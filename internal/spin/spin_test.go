package spin

import (
	"sync"
	"testing"
)

func TestLockUnlock(t *testing.T) {
	var l Lock
	l.Lock()
	l.Unlock()
	spins, acq := l.Stats()
	if acq != 1 || spins != 0 {
		t.Fatalf("Stats = %d,%d", spins, acq)
	}
}

func TestUnlockPanics(t *testing.T) {
	var l Lock
	defer func() {
		if recover() == nil {
			t.Fatalf("unlock of unlocked lock did not panic")
		}
	}()
	l.Unlock()
}

func TestMutualExclusion(t *testing.T) {
	var l Lock
	counter := 0
	const G, N = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < N; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != G*N {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, G*N)
	}
	_, acq := l.Stats()
	if acq != G*N {
		t.Fatalf("acquires = %d, want %d", acq, G*N)
	}
}
