package prun

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soarpsme/internal/wme"
)

func TestBudgetGrantsAtLeastOne(t *testing.T) {
	b := NewBudget(2)
	if got := b.acquire(8); got != 2 {
		t.Fatalf("Acquire(8) on fresh budget of 2 = %d, want 2", got)
	}
	// Budget exhausted: the next Acquire must block until a release.
	done := make(chan int, 1)
	go func() { done <- b.acquire(4) }()
	select {
	case got := <-done:
		t.Fatalf("Acquire on empty budget returned %d without a release", got)
	case <-time.After(20 * time.Millisecond):
	}
	b.release(1)
	select {
	case got := <-done:
		if got != 1 {
			t.Fatalf("Acquire after single release = %d, want 1", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not wake after release")
	}
	b.release(1) // the first acquire's remaining slot
	b.release(1) // the second acquire's slot
	if b.Cap() != 2 {
		t.Fatalf("Cap = %d", b.Cap())
	}
}

func TestBudgetNeverOversubscribes(t *testing.T) {
	const cap, workers, rounds = 3, 16, 200
	b := NewBudget(cap)
	var inUse, peak atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got := b.acquire(1 + i%4)
				cur := inUse.Add(int64(got))
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				inUse.Add(-int64(got))
				b.release(got)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("budget oversubscribed: peak %d > cap %d", p, cap)
	}
}

// TestBudgetSharedAcrossRuntimes runs the same workload with and without a
// single-slot budget, its first task stalled so that the first cycle
// crosses: every budgeted cycle must run with exactly one worker (the
// budget's floor) and produce a conflict set identical to the unbudgeted
// run — worker width never affects match results.
func TestBudgetSharedAcrossRuntimes(t *testing.T) {
	run := func(budget *Budget) ([]CycleStats, []string) {
		nw, cs, ws := buildNet(t)
		rt := New(nw, Config{Processes: 4, Policy: WorkStealing, Budget: budget, Fault: stallAt(0)})
		var dels []wme.Delta
		for _, w := range ws {
			dels = append(dels, wme.Delta{Op: wme.Remove, WME: w})
		}
		var out []CycleStats
		out = append(out, rt.RunCycle(deltas(ws)))
		out = append(out, rt.RunCycle(dels))
		out = append(out, rt.RunCycle(deltas(ws)))
		return out, cs.keys()
	}
	free, freeCS := run(nil)
	tight, tightCS := run(NewBudget(1))
	for i := range tight {
		if tight[i].Workers != 1 {
			t.Fatalf("cycle %d ran with %d workers under a 1-slot budget", i, tight[i].Workers)
		}
	}
	if fmt.Sprint(tightCS) != fmt.Sprint(freeCS) {
		t.Fatalf("conflict set diverged under budget:\n got %v\nwant %v", tightCS, freeCS)
	}
	if free[0].Workers != 4 {
		t.Fatalf("unbudgeted cycle ran with %d workers, want 4", free[0].Workers)
	}
}
