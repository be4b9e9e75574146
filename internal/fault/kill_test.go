package fault

import (
	"sync"
	"testing"
)

func TestKillSwitchFiresOnce(t *testing.T) {
	k := NewKillSwitch(3)
	fired := 0
	k.kill = func() { fired++ }
	for i := 0; i < 10; i++ {
		k.Tick()
	}
	if fired != 1 {
		t.Fatalf("kill fired %d times, want 1", fired)
	}
}

func TestKillSwitchExactCount(t *testing.T) {
	k := NewKillSwitch(5)
	k.kill = func() {}
	for i := 0; i < 4; i++ {
		k.Tick()
	}
	if got := k.Remaining(); got != 1 {
		t.Fatalf("remaining after 4 ticks = %d, want 1", got)
	}
}

func TestKillSwitchConcurrent(t *testing.T) {
	k := NewKillSwitch(64)
	var mu sync.Mutex
	fired := 0
	k.kill = func() { mu.Lock(); fired++; mu.Unlock() }
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				k.Tick()
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("kill fired %d times under 256 concurrent ticks, want 1", fired)
	}
}

func TestKillSwitchInert(t *testing.T) {
	var k *KillSwitch
	k.Tick() // nil-safe
	if NewKillSwitch(0) != nil || NewKillSwitch(-3) != nil {
		t.Fatal("non-positive countdown should be inert (nil)")
	}
	if k.Remaining() != -1 {
		t.Fatal("nil Remaining should be -1")
	}
}

// Remaining reports ticks left until the switch fires.
func (k *KillSwitch) Remaining() int64 {
	if k == nil {
		return -1
	}
	return k.remaining.Load()
}
