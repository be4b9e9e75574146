// Package spin provides a counted spin lock. PSM-E measures contention as
// the number of times a process spins on a lock before acquiring it
// (spins/access for hash-bucket lines, spins/task for the task queues —
// Figures 6-2 and 6-3 of the paper); this lock counts those spins.
package spin

import (
	"runtime"
	"sync/atomic"
)

// Lock is a test-and-test-and-set spin lock that counts failed acquisition
// attempts. The zero value is an unlocked lock with zero counters.
type Lock struct {
	state atomic.Uint32
	// spins counts failed acquire attempts; acquires counts successful
	// Lock() calls. spins/acquires is the paper's "spins per access".
	spins    atomic.Uint64
	acquires atomic.Uint64
}

// Lock acquires the lock, spinning until available and counting each
// failed attempt. Gosched is called while spinning so single-core hosts
// (and GOMAXPROCS=1 tests) make progress.
func (l *Lock) Lock() {
	spun := uint64(0)
	for {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			break
		}
		spun++
		runtime.Gosched()
	}
	if spun != 0 {
		l.spins.Add(spun)
	}
	l.acquires.Add(1)
}

// Unlock releases the lock.
func (l *Lock) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("spin: unlock of unlocked lock")
	}
}

// Stats returns the cumulative (spins, acquires) counters.
func (l *Lock) Stats() (spins, acquires uint64) {
	return l.spins.Load(), l.acquires.Load()
}

// Counts is a point-in-time snapshot of a lock's (or lock group's)
// contention counters; the observability layer folds deltas between
// snapshots into its metrics registry when the registry is scraped, so the
// hot-path counters stay plain atomics.
type Counts struct {
	Spins    uint64
	Acquires uint64
}
