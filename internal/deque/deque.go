// Package deque implements the Chase-Lev lock-free work-stealing deque
// (Chase & Lev, "Dynamic Circular Work-Stealing Deque", SPAA 2005). One
// owner goroutine pushes and pops at the bottom (LIFO, preserving PSM-E's
// depth-first chain following); any number of thieves steal from the top
// (FIFO) with a single compare-and-swap and no locks. The backing ring
// grows when full; old rings are left to the garbage collector, so thieves
// holding a stale ring pointer still read valid memory.
//
// This is the queue behind prun's WorkStealing policy — the modern
// lock-free counterpart of the paper's counted-spinlock task queues, kept
// separate so the paper-faithful reproduction paths stay untouched.
package deque

import "sync/atomic"

// minCapacity is the smallest ring size (must be a power of two).
const minCapacity = 64

// ring is one immutable-size circular buffer generation.
type ring[T any] struct {
	mask int64
	slot []atomic.Pointer[T]
}

func newRing[T any](n int64) *ring[T] {
	return &ring[T]{mask: n - 1, slot: make([]atomic.Pointer[T], n)}
}

// Deque is a work-stealing deque of *T. The zero value is NOT ready for
// use; call New. PushBottom and PopBottom may be called only by the single
// owner; Steal may be called by any goroutine.
type Deque[T any] struct {
	// top is the next index thieves steal from; it only increases.
	top atomic.Int64
	// bottom is the next index the owner pushes to; only the owner
	// writes it.
	bottom atomic.Int64
	buf    atomic.Pointer[ring[T]]
}

// New returns an empty deque with at least the given initial capacity
// (rounded up to a power of two, minimum 64).
func New[T any](capacity int) *Deque[T] {
	n := int64(minCapacity)
	for n < int64(capacity) {
		n <<= 1
	}
	d := &Deque[T]{}
	d.buf.Store(newRing[T](n))
	return d
}

// PushBottom appends v at the bottom. Owner only.
func (d *Deque[T]) PushBottom(v *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.buf.Load()
	if b-t >= int64(len(r.slot))-1 {
		r = d.grow(r, b, t)
	}
	r.slot[b&r.mask].Store(v)
	d.bottom.Store(b + 1)
}

// grow doubles the ring, copying the live window [top, bottom) at the same
// logical indices. Owner only; thieves concurrently reading the old ring
// see identical values for any index they can still successfully steal.
func (d *Deque[T]) grow(old *ring[T], b, t int64) *ring[T] {
	r := newRing[T](int64(len(old.slot)) << 1)
	for i := t; i < b; i++ {
		r.slot[i&r.mask].Store(old.slot[i&old.mask].Load())
	}
	d.buf.Store(r)
	return r
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

// PopBottom removes and returns the most recently pushed item, or nil if
// the deque is empty. Owner only.
func (d *Deque[T]) PopBottom() *T {
	b := d.bottom.Load() - 1
	r := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	v := r.slot[b&r.mask].Load()
	if b > t {
		// More than one item: no thief can reach index b.
		return v
	}
	// Last item: race thieves for it via the top CAS.
	if !d.top.CompareAndSwap(t, t+1) {
		v = nil // a thief won
	}
	d.bottom.Store(b + 1)
	return v
}

// Steal removes and returns the oldest item. It returns (nil, false) when
// the deque was observed empty, and (nil, true) when the steal lost a race
// and is worth retrying. Safe for any goroutine.
func (d *Deque[T]) Steal() (*T, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	r := d.buf.Load()
	v := r.slot[t&r.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return v, true
}
