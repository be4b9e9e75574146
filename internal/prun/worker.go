package prun

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
	"soarpsme/internal/rete"
	"soarpsme/internal/wme"
)

// freeListCap bounds each worker's task free list; beyond it, executed
// tasks are left to the garbage collector. Sized to absorb a large cycle's
// root-task injection (the injector draws on worker 0's list), at ~64 B per
// idle task.
const freeListCap = 2048

// sched is the rete.Scheduler of one match process under every policy: it
// pushes onto the process's own queue, applies the update filter, and
// recycles executed tasks through a per-worker free list so the steady-state
// hot path allocates no tasks. It is used by one goroutine at a time.
type sched struct {
	rt   *Runtime
	q    queue
	free []*rete.Task
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

// NewTask implements rete.Scheduler: a blank task for an activation of node
// n, or nil when the update filter drops n (filter before allocate).
func (s *sched) NewTask(n *rete.BetaNode) *rete.Task {
	if s.rt.filtered(n.ID) {
		return nil
	}
	return s.alloc()
}

// Push enqueues an activation on the owner's queue. Seeded tasks don't pass
// through NewTask; the filter still applies to them.
func (s *sched) Push(t *rete.Task) {
	rt := s.rt
	if rt.filtered(t.Node.ID) {
		return
	}
	t.Seq = rt.seq.Add(1)
	rt.pending.Add(1)
	s.q.push(t)
}

// pushRoot schedules a right activation arriving from the alpha network.
// The caller has already applied the update filter.
func (s *sched) pushRoot(n *rete.BetaNode, op wme.Op, w *wme.WME) {
	t := s.alloc()
	*t = rete.Task{Node: n, Dir: rete.DirRight, Op: op, W: w}
	s.Push(t)
}

// Filtered implements rete.Scheduler: the unlink fast path consults it
// before executing an activation inline, mirroring Push's drop.
func (s *sched) Filtered(id rete.NodeID) bool { return s.rt.filtered(id) }

// recycle returns an executed task to the free list. The task must no
// longer be reachable from any queue (it was just executed by this worker).
// It is cleared first: a parked task must not keep its token, wme or batch
// slice — retracted state by the next cycle — reachable.
func (s *sched) recycle(t *rete.Task) {
	if len(s.free) < freeListCap {
		*t = rete.Task{}
		s.free = append(s.free, t)
	}
}

// worker is one match process: its scheduler, which persists across cycles
// (the free list), and per-cycle bookkeeping. Counters are local — no other
// goroutine touches them while the cycle runs — and folded into CycleStats,
// and from there into the observer's registry, by collect once the workers
// have exited.
type worker struct {
	sched
	id      int
	h       *obs.MatchHooks
	ctl     *cycleCtl
	tracing bool
	local   []TaskRec

	tasks      int64
	batches    int64
	cost       int64
	failedPops int64
	termProbes int64
	steals     int64
	panics     int

	// Profiling state (all nil/zero when the network has no profiler).
	// Depth and granularity histograms accumulate locally and flush once per
	// cycle so the per-task path adds no histogram atomics; wall-clock
	// sampling times one task in (sampleMask+1) per worker.
	prof       *rete.Prof
	sampleMask uint64
	profD      [rete.DepthBuckets]int64
	profC      [rete.CostBuckets]int64
	profMax    int32
}

// begin resets the per-cycle bookkeeping, pointing the worker at its own
// queue and at the observer and profiler currently installed.
func (w *worker) begin(ctl *cycleCtl) {
	rt, h := w.rt, w.rt.obs
	*w = worker{sched: w.sched, id: w.id, h: h, ctl: ctl, tracing: h != nil && h.Trc != nil, local: w.local[:0]}
	w.q = rt.queues[w.id%len(rt.queues)]
	if p := rt.nw.Prof; p != nil {
		w.prof = p
		w.sampleMask = p.SampleMask()
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
	if h := w.h; h != nil {
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

// recovered is the worker goroutines' panic handler: it converts a
// panicking match process — injected or organic — into a poisoned cycle
// instead of a dead program. Deferred after wg.Done so the waiter always
// unblocks.
func (w *worker) recovered() {
	if r := recover(); r != nil {
		w.panics++
		w.ctl.poison(fmt.Sprintf("worker %d panic: %v", w.id, r))
	}
}

// exec runs one task, records its statistics and trace spans, and retires
// it. The pending counter drops only after Exec has pushed the task's
// children, so it never reads zero while work remains.
func (w *worker) exec(t *rete.Task, stolen bool) {
	sampling := w.prof != nil && w.tasks&int64(w.sampleMask) == 0
	var start time.Time
	if w.tracing || sampling {
		start = time.Now()
	}
	cost := w.rt.nw.Exec(t, &w.sched)
	w.tasks++
	w.cost += cost
	if t.Supp != nil {
		w.batches++
	}
	if w.prof != nil {
		d := t.Depth + 1
		w.profD[rete.DepthBucket(d)]++
		w.profC[rete.CostBucket(cost)]++
		if d > w.profMax {
			w.profMax = d
		}
		if sampling {
			w.prof.AddSample(t.Node.ID, time.Since(start).Nanoseconds())
		}
	}
	if h := w.h; h != nil {
		h.TaskCost.Observe(float64(cost))
		if w.tracing {
			args := map[string]any{"node": int(t.Node.ID), "seq": t.Seq, "cost-us": cost}
			if stolen {
				args["stolen"] = true
			}
			h.Trc.Complete(h.Pid, w.id+1, fmt.Sprintf("%v#%d", t.Node.Kind, t.Node.ID), "task", start, time.Since(start), args)
		}
	}
	if w.rt.cfg.CaptureTrace {
		w.local = append(w.local, TaskRec{Seq: t.Seq, Parent: t.ParentSeq, Node: t.Node.ID, Kind: t.Node.Kind, Cost: cost, Depth: t.Depth + 1, Worker: int32(w.id)})
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
	return false
}

// run is one match process, the same under every policy: pop the own queue,
// else steal from the others starting at a rotating victim, else test for
// quiescence — the pending counter is consulted only after a fully failed
// round, which is the termination protocol's confirmation scan.
func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer w.recovered()
	queues, own, id := w.rt.queues, w.q, w.id
	nq := len(queues)
	rot := 0
	for !w.ctl.bad.Load() {
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
