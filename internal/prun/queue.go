package prun

import (
	"soarpsme/internal/deque"
	"soarpsme/internal/rete"
	"soarpsme/internal/spin"
)

// queue is one task queue — the only thing the two policies differ in.
// push and pop are the owner's end and steal the thieves' end; pop and
// steal return nil on an empty queue (or a lost race: the worker loop
// treats both as "try elsewhere"). len is the owner's count of what it
// holds. drain discards everything queued and is called only while no
// worker runs.
type queue interface {
	push(t *rete.Task)
	pop() *rete.Task
	steal() *rete.Task
	len() int
	drain()
}

// lockQueue is PSM-E's task queue: a stack behind a counted spin-lock
// (Runtime.QueueLockStats reads the counts), one per process under the
// MultiQueue policy. It is LIFO at both ends, like the paper's stack
// queues, which favors depth-first chain following.
//
// alone is the lead's rete.Proc.Alone: while the lead runs its cycle alone
// it is the only process that reaches any queue, so acquire only counts
// the acquisition it skips, in skipped (folded into the runtime's count by
// collect).
type lockQueue struct {
	lock    spin.Lock
	tasks   []*rete.Task
	alone   *bool
	skipped uint64
}

func (q *lockQueue) acquire() {
	if *q.alone {
		q.skipped++
		return
	}
	q.lock.Lock()
}

func (q *lockQueue) release() {
	if !*q.alone {
		q.lock.Unlock()
	}
}

func (q *lockQueue) push(t *rete.Task) {
	q.acquire()
	q.tasks = append(q.tasks, t)
	q.release()
}

func (q *lockQueue) pop() *rete.Task {
	q.acquire()
	n := len(q.tasks)
	if n == 0 {
		q.release()
		return nil
	}
	t := q.tasks[n-1]
	q.tasks = q.tasks[:n-1]
	q.release()
	return t
}

func (q *lockQueue) steal() *rete.Task { return q.pop() }

// len is read only by the lead while it runs alone.
func (q *lockQueue) len() int { return len(q.tasks) }

func (q *lockQueue) drain() {
	q.lock.Lock()
	q.tasks = q.tasks[:0]
	q.lock.Unlock()
}

// dequeQueue is the WorkStealing policy's queue: a Chase-Lev lock-free
// deque, owner LIFO and thief FIFO. push and pop are owner-only; the
// injector may push onto any deque because it runs before the workers.
type dequeQueue struct{ d *deque.Deque[rete.Task] }

func (q dequeQueue) push(t *rete.Task) { q.d.PushBottom(t) }
func (q dequeQueue) pop() *rete.Task   { return q.d.PopBottom() }
func (q dequeQueue) len() int          { return q.d.Len() }

func (q dequeQueue) steal() *rete.Task {
	t, _ := q.d.Steal()
	return t
}

func (q dequeQueue) drain() {
	for {
		if t, retry := q.d.Steal(); t == nil && !retry {
			return
		}
	}
}
