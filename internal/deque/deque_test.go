package deque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestOwnerLIFO(t *testing.T) {
	d := New[int](4)
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	if d.Len() != 10 {
		t.Fatalf("Len = %d, want 10", d.Len())
	}
	for i := 9; i >= 0; i-- {
		v := d.PopBottom()
		if v == nil || *v != i {
			t.Fatalf("PopBottom = %v, want %d", v, i)
		}
	}
	if v := d.PopBottom(); v != nil {
		t.Fatalf("pop from empty = %v", *v)
	}
	if d.Len() != 0 {
		t.Fatalf("Len after drain = %d", d.Len())
	}
}

func TestStealFIFO(t *testing.T) {
	d := New[int](4)
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	for i := 0; i < 10; i++ {
		v, ok := d.Steal()
		if !ok || v == nil || *v != i {
			t.Fatalf("Steal = %v,%v, want %d", v, ok, i)
		}
	}
	if _, ok := d.Steal(); ok {
		t.Fatalf("steal from empty reported retryable")
	}
}

func TestGrowPreservesContents(t *testing.T) {
	d := New[int](0)
	if d.Cap() != minCapacity {
		t.Fatalf("initial cap = %d", d.Cap())
	}
	n := 10 * minCapacity
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	if d.Cap() < n {
		t.Fatalf("cap did not grow: %d", d.Cap())
	}
	// Interleave: steal half from the top, pop half from the bottom.
	for i := 0; i < n/2; i++ {
		v, ok := d.Steal()
		if !ok || *v != i {
			t.Fatalf("steal %d got %v", i, v)
		}
	}
	for i := n - 1; i >= n/2; i-- {
		v := d.PopBottom()
		if v == nil || *v != i {
			t.Fatalf("pop %d got %v", i, v)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("leftover items: %d", d.Len())
	}
}

// TestWrapAroundReuse drives the ring through many full wrap-arounds at
// constant occupancy so slot indices are reused.
func TestWrapAroundReuse(t *testing.T) {
	d := New[int](0)
	vals := make([]int, 8*minCapacity)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
		if i%2 == 0 {
			if v, ok := d.Steal(); !ok || v == nil {
				t.Fatalf("steal failed at %d", i)
			}
		} else if v := d.PopBottom(); v == nil {
			t.Fatalf("pop failed at %d", i)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("leftover: %d", d.Len())
	}
}

// TestConcurrentStealExactlyOnce is the race-detector stress: one owner
// pushing and popping, several thieves stealing; every pushed item must be
// taken exactly once, by exactly one goroutine.
func TestConcurrentStealExactlyOnce(t *testing.T) {
	const (
		items   = 100000
		thieves = 4
	)
	d := New[int64](0)
	taken := make([]atomic.Int64, items)
	vals := make([]int64, items)
	var got atomic.Int64
	var done atomic.Bool

	take := func(v *int64) {
		if n := taken[*v].Add(1); n != 1 {
			t.Errorf("item %d taken %d times", *v, n)
		}
		got.Add(1)
	}

	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if v, _ := d.Steal(); v != nil {
					take(v)
				} else {
					runtime.Gosched()
				}
			}
			// Final drain so nothing the owner left behind is lost.
			for {
				v, retry := d.Steal()
				if v != nil {
					take(v)
				} else if !retry {
					return
				}
			}
		}()
	}
	for i := 0; i < items; i++ {
		vals[i] = int64(i)
		d.PushBottom(&vals[i])
		// The owner pops some of its own work back, as match workers do.
		if i%3 == 0 {
			if v := d.PopBottom(); v != nil {
				take(v)
			}
		}
	}
	for {
		v := d.PopBottom()
		if v == nil {
			break
		}
		take(v)
	}
	done.Store(true)
	wg.Wait()
	if got.Load() != items {
		t.Fatalf("took %d of %d items", got.Load(), items)
	}
}

// Len reports the approximate number of queued items (exact when no
// concurrent operations are in flight).
func (d *Deque[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Cap reports the current ring capacity.
func (d *Deque[T]) Cap() int { return len(d.buf.Load().slot) }
