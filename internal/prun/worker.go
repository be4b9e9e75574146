package prun

import (
	"fmt"
	"runtime"
	"time"

	"soarpsme/internal/fault"
	"soarpsme/internal/rete"
	"soarpsme/internal/wme"
)

// freeListCap bounds each worker's task free list; beyond it, executed
// tasks are left to the garbage collector. Sized to absorb a large cycle's
// root-task injection: the injector draws on worker 0's list, which a cycle
// with helpers refills only because rebalance deals the lists back out at
// its end. An idle task is 80 B, plus the suppBatch-entry array (768 B) of
// one that has carried a suppressed batch, which it keeps for the next.
const freeListCap = 2048

// sched is the rete.Scheduler of one match process under every policy: it
// pushes onto the process's own queue and recycles executed tasks through a
// per-worker free list so the steady-state hot path allocates no tasks. It
// is used by one goroutine at a time.
type sched struct {
	rt    *Runtime
	q     queue
	free  []*rete.Task
	spill rete.Spill
	// ord is the ordinal of the last task this process recorded, the number
	// the wall-clock sampling mask applies to. It lives here because the
	// sched, unlike the worker's per-cycle bookkeeping, persists: the rate
	// is one in SampleEvery whatever the cycle size.
	ord uint64
	// rec is set while the cycle records its tasks (Runtime.attached); only
	// a record reads a task's Seq, so Push numbers tasks only then.
	rec bool
}

// alloc returns a recycled (or fresh) blank task.
func (s *sched) alloc() *rete.Task {
	if k := len(s.free); k > 0 {
		t := s.free[k-1]
		s.free = s.free[:k-1]
		return t
	}
	return new(rete.Task)
}

// NewTask implements rete.Scheduler: a blank task, recycled from this
// worker's free list when one is parked there.
func (s *sched) NewTask() *rete.Task { return s.alloc() }

// Spill implements rete.Scheduler: the one suppressed-run overflow buffer
// of this match process, reused by every activation it executes.
func (s *sched) Spill() *rete.Spill { return &s.spill }

// Push enqueues an activation on the owner's queue.
func (s *sched) Push(t *rete.Task) {
	rt := s.rt
	if s.rec {
		t.Seq = rt.seq.Add(1)
	}
	rt.pending.Add(1)
	s.q.push(t)
}

// pushRoot schedules a right activation arriving from the alpha network.
func (s *sched) pushRoot(n *rete.BetaNode, op wme.Op, w *wme.WME) {
	t := s.alloc()
	*t = rete.Task{Node: n, Dir: rete.DirRight, Op: op, W: w, Supp: t.Supp}
	s.Push(t)
}

// recycle returns an executed task to the free list. The task must no
// longer be reachable from any queue (it was just executed by this worker).
// It is cleared first: a parked task must not keep its token, wme or batch
// entries — retracted state by the next cycle — reachable. It keeps its
// emptied batch array, so a suppressed batch reuses one.
func (s *sched) recycle(t *rete.Task) {
	if len(s.free) < freeListCap {
		clear(t.Supp)
		*t = rete.Task{Supp: t.Supp[:0]}
		s.free = append(s.free, t)
	}
}

// worker is one match process: its scheduler, which persists across cycles
// (the free list), and per-cycle bookkeeping. Counters and task records are
// local — no other goroutine touches them while the cycle runs — and folded
// into CycleStats, the profiler, the observer's registry and its tracer by
// collect once the workers have exited.
type worker struct {
	sched
	id  int
	ctl *cycleCtl
	// lead marks worker 0 until it has started the cycle's helpers;
	// backlog is the clock reading at which the lead last saw the pending
	// count reach helperThreshold, 0 while it is below.
	lead    bool
	backlog int64

	// recs is the cycle's task records, appended iff something is attached
	// (rec). The task of ordinal k is timed when k&timeMask is zero; last
	// is the process's latest clock reading, where the next timed task
	// starts.
	timeMask uint64
	last     int64
	recs     []TaskRec

	tasks      int64
	batches    int64
	cost       int64
	failedPops int64
	termProbes int64
	steals     int64
	panics     int
}

// begin resets the per-cycle bookkeeping, pointing the worker at whatever
// is attached to the runtime now.
func (w *worker) begin(ctl *cycleCtl) {
	*w = worker{sched: w.sched, id: w.id, ctl: ctl, recs: w.recs[:0]}
	w.rec, w.timeMask = w.rt.attached()
}

// stamp reads the clock if the next task is timed. A timed task starts
// where its worker's previous reading ended, so a worker stamps when it
// starts running and again after every fully failed pop round — idle time
// is not task time.
func (w *worker) stamp() {
	if w.rec && (w.ord+1)&w.timeMask == 0 {
		w.last = clock()
	}
}

// probe consults the fault injector at site. An injected panic unwinds in
// place (the worker's recover converts it into a poisoned cycle); a stall
// blocks until its delay elapses or the cycle aborts; a dropped steal is
// reported as drop=true so the steal scan skips one victim.
func (w *worker) probe(site fault.Site) (drop bool) {
	in := w.rt.cfg.Fault
	if in == nil {
		return false
	}
	a := in.Visit(site)
	if a.Kind == fault.KindNone {
		return false
	}
	if h := w.rt.obs; h != nil {
		h.Injected.Inc()
	}
	switch a.Kind {
	case fault.KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %v", site))
	case fault.KindStall:
		tm := time.NewTimer(a.Delay)
		select {
		case <-tm.C:
		case <-w.ctl.abort:
			tm.Stop()
		}
	case fault.KindDropSteal:
		return true
	}
	return false
}

// recovered is every match process's panic handler, the caller's goroutine
// included: it converts a panicking match process — injected or organic —
// into a poisoned cycle instead of a dead program.
func (w *worker) recovered() {
	if r := recover(); r != nil {
		w.panics++
		w.ctl.poison(fmt.Sprintf("worker %d panic: %v", w.id, r))
	}
}

// exec runs one task, counts it, records it if anything is attached, and
// retires it. The pending counter drops only after Exec has pushed the
// task's children, so it never reads zero while work remains. A timed
// record costs one clock read (two for a sampled task: the reading that
// ends the task before it is its start).
func (w *worker) exec(t *rete.Task, stolen bool) {
	cost, emitted := w.rt.nw.Exec(t, &w.sched)
	w.tasks++
	w.cost += cost
	if len(t.Supp) > 0 {
		w.batches++
	}
	if w.rec {
		w.recs = append(w.recs, TaskRec{Seq: t.Seq, Parent: t.ParentSeq, Cost: cost, Node: t.Node.ID, Depth: t.Depth + 1,
			Worker: int32(w.id), Emitted: int32(emitted), Kind: t.Node.Kind, Stolen: stolen})
		w.ord++
		if timed, next := w.ord&w.timeMask == 0, (w.ord+1)&w.timeMask == 0; timed || next {
			end := clock()
			if timed {
				r := &w.recs[len(w.recs)-1]
				r.Start, r.Dur = w.last, end-w.last
			}
			w.last = end
		}
	}
	w.rt.pending.Add(-1)
	w.recycle(t)
}

// quiesced handles a fully failed pop/steal round: it reports true when
// the cycle is over (a quiescence probe, counted separately), and
// otherwise counts a failed pop — genuine idleness while work is pending —
// and yields.
func (w *worker) quiesced() bool {
	if w.rt.pending.Load() == 0 {
		w.termProbes++
		return true
	}
	w.failedPops++
	runtime.Gosched()
	w.stamp()
	return false
}

// run is one match process, the same under every policy: pop the own queue,
// else steal from the others starting at a rotating victim, else test for
// quiescence — the pending counter is consulted only after a fully failed
// round, which is the termination protocol's confirmation scan. The lead
// also looks at it once after injection and after each task it retires,
// until the cycle crosses: it reads the clock only while helperThreshold
// tasks are pending, and starts the helpers once that backlog has lasted
// helperAfter.
func (w *worker) run() {
	defer w.recovered()
	w.stamp()
	queues, own, id := w.rt.queues, w.q, w.id
	nq := len(queues)
	rot := 0
	for !w.ctl.bad.Load() {
		if w.lead {
			if w.rt.pending.Load() < helperThreshold {
				w.backlog = 0
			} else if now := clock(); w.backlog == 0 {
				w.backlog = now
			} else if now-w.backlog >= int64(helperAfter) {
				w.lead = false
				w.rt.startHelpers(w.ctl)
			}
		}
		t := own.pop()
		stolen := false
		if t == nil && nq > 1 {
			// Rotate the starting victim per scan (deterministically,
			// from a per-worker counter): a fixed id+1 start concentrates
			// steals on the adjacent queue.
			for k := 0; k < nq-1 && t == nil; k++ {
				if w.probe(fault.SiteSteal) {
					continue
				}
				t = queues[(id+1+(rot+k)%(nq-1))%nq].steal()
			}
			rot++
			stolen = t != nil
		}
		if t == nil {
			if w.quiesced() {
				return
			}
			continue
		}
		if stolen {
			w.steals++
		}
		w.probe(fault.SiteExec)
		if w.ctl.bad.Load() {
			// A popped task is abandoned here, not executed: the whole
			// partial match state is about to be discarded.
			return
		}
		w.exec(t, stolen)
	}
}
