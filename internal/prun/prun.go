// Package prun is the parallel match runtime of PSM-E (§2.3): node
// activations are tasks held in task queues and executed by a fixed set of
// match processes (goroutines), one queue per process with cycle-stealing
// (§6.1/Figure 6-4). The worker loop, the injector, the supervision of a
// failing cycle, the contention and failed-pop counters and the one
// per-task record (rete.TaskRec) that the multiprocessor simulator, the
// match profiler, the flight recorder and the Chrome trace all read exist
// once, over a small queue interface (queue.go). The paper's other
// organization, one shared queue (Figure 6-1), is modeled only by
// internal/sim, which draws every figure from traces captured at one
// process.
//
// A second policy, WorkStealing, is not a paper artifact: it puts a
// Chase-Lev lock-free deque (internal/deque) behind the same interface in
// place of the paper's counted-spinlock stack.
package prun

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"soarpsme/internal/deque"
	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
	"soarpsme/internal/rete"
	"soarpsme/internal/wme"
)

// Policy selects the task-queue organization.
type Policy uint8

// MultiQueue, the zero Policy, gives each match process its own stack under
// the paper's counted spin-lock, with stealing from the others (Figure
// 6-4). WorkStealing gives each process a lock-free Chase-Lev deque (owner
// LIFO, thief FIFO). With one match process both are the same LIFO stack.
const (
	MultiQueue Policy = iota
	WorkStealing
)

func (p Policy) String() string {
	if p == WorkStealing {
		return "work-stealing"
	}
	return "multi-queue"
}

// Budget caps the number of match workers running concurrently across
// every Runtime that shares it. The serving layer hands one Budget to all
// of its sessions so S sessions × P processes never oversubscribe the
// machine. A slot is held only by a process that runs: a cycle blocks for
// its floor of one (so no session ever starves), takes whatever share of
// the rest is free — without blocking — if and when it starts its helpers,
// and returns what it took at quiescence. Worker count never affects match
// results — only how the cycle's tasks are spread — so running a cycle
// below its configured width is safe.
type Budget struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
	cap  int
}

// NewBudget returns a budget of n concurrent workers (n < 1 means
// GOMAXPROCS).
func NewBudget(n int) *Budget {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	b := &Budget{free: n, cap: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Cap returns the budget's total worker capacity.
func (b *Budget) Cap() int { return b.cap }

// InUse returns the number of worker slots currently held. The serving
// layer reads it (with Cap) as the budget-occupancy half of its
// backpressure hint: a saturated budget means admitted work will drain
// slowly, so a 429's Retry-After should back clients off longer.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap - b.free
}

// acquire blocks until at least one worker slot is free, then takes up to
// want slots and returns the number taken (in [1, want]).
func (b *Budget) acquire(want int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.free == 0 {
		b.cond.Wait()
	}
	return b.take(max(want, 1))
}

// tryAcquire takes up to want free slots without blocking and returns the
// number taken (in [0, want]).
func (b *Budget) tryAcquire(want int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.take(want)
}

func (b *Budget) take(want int) int {
	got := min(want, b.free)
	b.free -= got
	return got
}

// release returns n slots taken by acquire or tryAcquire.
func (b *Budget) release(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.free += n
	if b.free > b.cap {
		panic("prun: budget over-released")
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Config configures the runtime.
type Config struct {
	// Processes is the number of match processes (the paper varies 1..13).
	Processes int
	Policy    Policy
	// Budget, when non-nil, is a worker budget shared with other Runtimes:
	// a cycle that starts its helpers runs with min(Processes, its granted
	// share) processes, at least one. Nil grants every helper.
	Budget *Budget
	// CaptureTrace keeps each cycle's task records on CycleStats.Trace for
	// the simulator, with nothing else attached.
	CaptureTrace bool
	// Fault, when non-nil, is consulted at the named injection sites
	// (worker.exec, worker.steal); nil injects nothing and costs one
	// pointer test per site.
	Fault *fault.Injector
	// Deadline, when nonzero, bounds each parallel cycle's wall-clock time.
	// A cycle that has not quiesced when the deadline expires is poisoned
	// by the watchdog and reported Failed so the engine can fall back to a
	// serial replay. It must comfortably exceed the worst-case healthy
	// cycle time; an expiry on a merely slow cycle is safe (the fallback
	// recomputes identical results) but wasteful.
	Deadline time.Duration
}

// TaskRec is one executed task in a cycle trace.
type TaskRec = rete.TaskRec

// epoch is the zero of the process clock TaskRec.Start is read on.
var epoch = time.Now()

// clock is one monotonic read: ns since epoch.
func clock() int64 { return int64(time.Since(epoch)) }

// CycleStats summarizes one match cycle.
type CycleStats struct {
	Tasks     int
	TotalCost int64 // summed modeled task cost (sequential work, µs)
	// Workers is the number of match processes that ran: the caller, plus
	// the helpers started at the crossing (fewer than Processes−1 when a
	// shared Budget was contended). 1 for the serial fallback.
	Workers int
	// FailedPops counts pop attempts that found every queue empty while
	// tasks were still pending — genuine idleness/contention (§6.1). Pops
	// that fail because the cycle is over are counted as TermProbes.
	FailedPops int64
	// TermProbes counts quiescence-detection probes: a failed pop (or
	// failed steal round) observed with zero pending tasks. Exactly one
	// per process that ran (== Workers) — previously these were miscounted
	// as failed pops, inflating the paper's §6.1 metric by at least
	// Processes per cycle.
	TermProbes int64
	// Steals counts tasks popped from another process's queue (multi-queue
	// cycle-stealing, §6.1, and the WorkStealing policy's thief path).
	Steals int64
	// SuppBatches counts executed suppressed-batch tasks (each carrying up
	// to suppBatch deferred empty-left right activations). Tasks includes
	// them, so Tasks - SuppBatches is the count of ordinary activations —
	// the quantity the unlink counter oracle compares against a serial run.
	SuppBatches int64
	// Trace is the cycle's task records, worker by worker, whenever anything
	// was attached to read them (see Runtime.attached). The same slice is
	// what the tracer and the flight ring retain; treat it as read-only.
	Trace []TaskRec
	// MaxDepth is the cycle's longest dependent activation chain, filled
	// when a profiler is attached to the network.
	MaxDepth int32
	// Failed marks a cycle that did not run to quiescence: a worker
	// panicked or the watchdog deadline expired. The counters above cover
	// only the work executed before the abort, Trace is dropped, and the
	// network's partial match state must be discarded (the engine's
	// degradation path rebuilds it with ReplaySerial).
	Failed bool
	// Reason describes the failure ("worker 3 panic: ...", "watchdog: ...").
	Reason string
	// Recovered marks stats produced by the serial fallback replay.
	Recovered bool
	// Panics counts worker panics recovered during the cycle.
	Panics int
}

// Runtime drives a rete.Network with parallel match processes.
type Runtime struct {
	nw  *rete.Network
	cfg Config

	// queues are the policy's task queues, one per process, and the only
	// policy-dependent state. workers are the match processes;
	// they persist across cycles (each keeps its task free list); a cycle
	// runs worker 0 on its caller and, once it crosses, the next few.
	queues  []queue
	workers []*worker
	inj     injector

	// pending counts the tasks queued or running once a cycle has crossed;
	// before, the lead's queue holds them all and it is not kept.
	// queueSkipped is the queue-lock acquisitions the lead skipped while
	// alone, folded in by collect.
	pending      atomic.Int64
	seq          atomic.Int64
	queueSkipped atomic.Uint64

	// ctl is the control reused by unsupervised cycles (nextCtl).
	ctl *cycleCtl

	// obs, when non-nil, receives each cycle's counters, task-cost
	// observations and (given a tracer) task records from collect.
	obs *obs.MatchHooks
}

// cycleCtl is the supervision state of one cycle: the first failure wins
// (sync.Once), publishes its reason, and closes abort so stalled workers
// wake. bad is the cheap per-iteration poison check. Every cycle under a
// watchdog or a fault injector gets a fresh one, so a stale watchdog or
// stall can only poison its own (already finished) cycle; without either,
// only the cycle's own processes can poison it, and they have exited when
// it ends, so an unpoisoned control is reused (Runtime.nextCtl).
type cycleCtl struct {
	abort   chan struct{}
	once    sync.Once
	bad     atomic.Bool
	reason  string
	helpers int            // processes started beside the caller, and by it
	wg      sync.WaitGroup // their exits
}

func newCycleCtl() *cycleCtl { return &cycleCtl{abort: make(chan struct{})} }

// nextCtl returns the control of the cycle about to run: a fresh one under
// a watchdog or a fault injector, else the runtime's own, replaced once a
// cycle has poisoned it.
func (rt *Runtime) nextCtl() *cycleCtl {
	if rt.cfg.Deadline > 0 || rt.cfg.Fault != nil {
		return newCycleCtl()
	}
	if rt.ctl == nil || rt.ctl.bad.Load() {
		rt.ctl = newCycleCtl()
	}
	rt.ctl.helpers = 0
	return rt.ctl
}

// poison marks the cycle failed with the given reason; it reports whether
// this call won the race to poison (so callers can count causes exactly
// once). reason is published before the bad store, so any reader that
// observes bad also observes reason.
func (c *cycleCtl) poison(reason string) (won bool) {
	c.once.Do(func() {
		won = true
		c.reason = reason
		c.bad.Store(true)
		close(c.abort)
	})
	return won
}

// New creates a runtime with the given configuration. The policy is
// consulted here and nowhere else: it decides which kind of queue each
// process owns.
func New(nw *rete.Network, cfg Config) *Runtime {
	if cfg.Processes < 1 {
		cfg.Processes = 1
	}
	rt := &Runtime{nw: nw, cfg: cfg}
	rt.workers = make([]*worker, cfg.Processes)
	for i := range rt.workers {
		rt.workers[i] = &worker{sched: sched{rt: rt}, id: i}
	}
	// Between cycles the lead is alone: the injector pushes the next
	// cycle's roots onto its queue before it runs.
	alone := &rt.workers[0].proc.Alone
	*alone = true
	rt.queues = make([]queue, cfg.Processes)
	for i, w := range rt.workers {
		if cfg.Policy == WorkStealing {
			w.q = dequeQueue{deque.New[rete.Task](0)}
		} else {
			w.q = &lockQueue{alone: alone}
		}
		rt.queues[i] = w.q
	}
	rt.inj.s = &rt.workers[0].sched
	return rt
}

// SetObserver attaches (non-nil) or detaches (nil) match instrumentation.
// Must be called while no cycle is running.
func (rt *Runtime) SetObserver(h *obs.MatchHooks) { rt.obs = h }

// attached reports whether anything reads per-task records — observer
// hooks, a profiler on the network, or a trace capture — and, through the
// mask ANDed with each worker's task ordinal, which records are timed:
// every one when a tracer will render them as spans, one in the profiler's
// SampleEvery when only it wants wall-clock samples, none otherwise.
func (rt *Runtime) attached() (rec bool, timeMask uint64) {
	h, p := rt.obs, rt.nw.Prof
	switch {
	case h != nil && h.Trc != nil:
		return true, 0
	case p != nil:
		return true, p.SampleMask()
	}
	return h != nil || rt.cfg.CaptureTrace, ^uint64(0)
}

// suppBatch is the number of suppressed right activations that ride one
// scheduled batch task. Large enough to amortize the task's scheduling
// cost down to noise, small enough that a cycle's suppressed work spreads
// across the workers (work-stealing steals whole batches).
const suppBatch = 32

// injector schedules a cycle's root tasks, all of them onto worker 0's
// queue through worker 0's sched, drawing on that worker's free list. A
// cycle that no helper joins so runs exactly the one-process schedule; a
// helper that starts steals the roots like any other task. Worker 0 runs
// in every cycle, but the tasks the helpers steal are recycled onto their
// lists, not its own; rebalance deals the lists back out when a cycle with
// helpers ends.
//
// Suppressed right activations — destinations whose left memory was empty
// at injection time — are deferred into batch tasks instead of executed
// inline (rete.FilterRight), which serialized every suppressed memory op on
// the injection goroutine and re-entered the emitter recursively on relink
// races. Batches keep the per-activation cost near zero while the memory
// ops parallelize across the match processes like any other task. The
// pending batch is gathered in the task that will carry it, drawn from the
// free list with the array it kept.
type injector struct {
	s     *sched
	batch *rete.Task
}

// delta injects one wme change.
func (in *injector) delta(d wme.Delta) {
	in.s.rt.nw.Inject(d, in.activate)
}

// activate receives one right activation from the alpha network.
func (in *injector) activate(n *rete.BetaNode, w *wme.WME, op wme.Op) {
	s := in.s
	if !s.rt.nw.SuppressRight(n) {
		s.pushRoot(n, op, w)
		return
	}
	if in.batch == nil {
		in.batch = s.alloc()
		if in.batch.Supp == nil {
			in.batch.Supp = make([]rete.SuppRight, 0, suppBatch)
		}
	}
	in.batch.Supp = append(in.batch.Supp, rete.SuppRight{Node: n, Op: op, W: w})
	if len(in.batch.Supp) >= suppBatch {
		in.flush()
	}
}

// flush schedules the pending suppressed activations as one batch task
// (no-op when there are none).
func (in *injector) flush() {
	t := in.batch
	if t == nil {
		return
	}
	in.batch = nil
	t.Node, t.Dir = t.Supp[0].Node, rete.DirRight
	in.s.Push(t)
}

// RunCycle injects the wme changes of one cycle and runs match to
// quiescence. Per the paper's measurement methodology (§6), all wme changes
// are applied before match begins.
func (rt *Runtime) RunCycle(deltas []wme.Delta) CycleStats {
	rt.inj.s.rec, _ = rt.attached()
	for _, d := range deltas {
		rt.inj.delta(d)
	}
	rt.inj.flush()
	return rt.runToQuiescence()
}

// RunSeeded runs the state update of one production addition (paper §5.2):
// it pushes the last-shared-node seeds (rete.SeedUpdateTasks), runs each
// live wme in all through the alpha paths that feed info's new nodes
// (rete.InjectUpdate), and runs to quiescence.
func (rt *Runtime) RunSeeded(info *rete.AddInfo, seeds []*rete.Task, all []*wme.WME) CycleStats {
	rt.inj.s.rec, _ = rt.attached()
	for _, t := range seeds {
		rt.inj.s.Push(t)
	}
	for _, w := range all {
		rt.nw.InjectUpdate(info, w, rt.inj.activate)
	}
	rt.inj.flush()
	return rt.runToQuiescence()
}

// helperThreshold and helperAfter are the crossing: a cycle starts its
// helpers once helperThreshold tasks have stayed pending for helperAfter
// of wall-clock time. A task here costs about 1 µs, against 400 µs for a
// node activation on the paper's Multimax, and a helper, which starts
// late and shares queues and counters with the lead, cost every real
// workload more than it took over; a backlog that lasts a millisecond is
// one of tasks large enough to repay it. The sweep, on a 2-core host
// (benchmark/run.sh, 12 s runs, seeds 21 and 22; the first row is the
// count-only crossing with roots dealt round-robin over the queues):
//
//	helperAfter      soar-learn work/s   match-replay work/s
//	count only       4,017  4,468         92,755   86,968
//	100 µs           5,358  5,778         79,210   91,802
//	250 µs           4,694  5,788         90,781  106,354
//	1 ms             5,308  6,360        130,850  120,102
//	4 ms             5,694  6,356        134,680  129,072
//	never            5,792  6,034        151,222  120,430
//
// 1 ms is the shortest at which both read like never, and a cycle of
// paper-sized tasks (BenchmarkStalledFanout, 2 ms each) still crosses
// after the first task it runs with the backlog held. The count keeps a
// cycle that never holds 24 tasks — every cypress and served b=1 cycle —
// from reading the clock at all.
const (
	helperThreshold = 24
	helperAfter     = time.Millisecond
)

// runToQuiescence runs the injected tasks to completion under the cycle's
// supervision: a panicking process or an expired watchdog deadline poisons
// the cycle, the processes exit, and the cycle is reported Failed. The
// caller is the first match process (worker 0) and holds the budget's floor
// of one slot; until the cycle crosses there is no other, and no other slot,
// and the lead runs alone: it takes no line or queue lock and keeps no
// pending count. Once the helpers have exited it is alone again.
func (rt *Runtime) runToQuiescence() CycleStats {
	ctl := rt.nextCtl()
	if d := rt.cfg.Deadline; d > 0 {
		wd := time.AfterFunc(d, func() {
			if ctl.poison(fmt.Sprintf("watchdog: cycle exceeded %v deadline", d)) {
				if h := rt.obs; h != nil {
					h.Watchdogs.Inc()
				}
			}
		})
		defer wd.Stop()
	}
	if b := rt.cfg.Budget; b != nil {
		b.acquire(1)
		defer func() { b.release(1 + ctl.helpers) }()
	}
	w := rt.workers[0]
	w.begin(ctl)
	w.run()
	if ctl.helpers > 0 {
		ctl.wg.Wait()
	}
	w.proc.Alone = true
	cs := rt.collect(1 + ctl.helpers)
	if ctl.bad.Load() {
		rt.drainPoisoned()
		cs.Failed, cs.Reason, cs.Trace = true, ctl.reason, nil
	} else if ctl.helpers > 0 {
		rebalance(rt.workers[:1+ctl.helpers])
	}
	return cs
}

// rebalance deals the task free lists of the processes that ran a cycle
// back out evenly, so that no two differ by more than one. A task is
// recycled by the process that executed it, so every steal moves one off
// worker 0 — which injects every cycle's roots and would otherwise keep
// allocating them. Each list was at most freeListCap long, so no share
// exceeds it. It runs after the helpers have exited: nothing else touches
// the lists.
func rebalance(ws []*worker) {
	total := 0
	for _, w := range ws {
		total += len(w.free)
	}
	want := func(i int) int {
		if i < total%len(ws) {
			return total/len(ws) + 1
		}
		return total / len(ws)
	}
	d := 0 // the first process that may still have tasks to spare
	for i, w := range ws {
		for len(w.free) < want(i) {
			for len(ws[d].free) <= want(d) {
				d++
			}
			from := ws[d].free
			k := min(want(i)-len(w.free), len(from)-want(d))
			w.free = append(w.free, from[len(from)-k:]...)
			ws[d].free = from[:len(from)-k]
		}
	}
}

// startHelpers is the crossing: worker 0 calls it once, when helperThreshold
// tasks have stayed pending for helperAfter, and every other match process
// the budget can spare right now starts (run recovers, so Done is reached).
// The lead stops running alone first, even when the budget grants no
// helper: the pending count takes over from its queue's length, and from
// here on every process locks. The go statements publish everything the
// lead wrote without a lock.
func (rt *Runtime) startHelpers(ctl *cycleCtl) {
	lead := rt.workers[0]
	rt.pending.Store(int64(lead.q.len()))
	lead.proc.Alone = false
	n := rt.cfg.Processes - 1
	if b := rt.cfg.Budget; b != nil {
		n = b.tryAcquire(n)
	}
	ctl.helpers = n
	ctl.wg.Add(n)
	for _, w := range rt.workers[1 : 1+n] {
		w.begin(ctl)
		go func() { defer ctl.wg.Done(); w.run() }()
	}
}

// collect folds the cycle-local counters of the n processes that ran into the
// cycle's stats and publishes them to the observer's registry: one Add each
// per cycle. It adds each process's tallies of the network's counters into
// those (rete.Network.Publish) and the queue-lock acquisitions the lead
// skipped into the runtime's count, so no activation or queue operation
// bumps a shared counter. If the workers recorded their tasks it then makes
// the one pass every per-task observer is derived from: the records are
// merged into Trace, folded into the profiler's cells and histograms and
// into match_task_cost_us, and handed to the tracer as one lazy batch —
// nothing is rendered unless the trace is read.
func (rt *Runtime) collect(n int) CycleStats {
	cs := CycleStats{Workers: n}
	nrec := 0
	for _, w := range rt.workers[:n] {
		cs.Tasks += int(w.tasks)
		cs.TotalCost += w.cost
		cs.FailedPops += w.failedPops
		cs.TermProbes += w.termProbes
		cs.Steals += w.steals
		cs.SuppBatches += w.batches
		cs.Panics += w.panics
		nrec += len(w.recs)
		rt.nw.Publish(&w.proc)
		if lq, ok := w.q.(*lockQueue); ok && lq.skipped != 0 {
			rt.queueSkipped.Add(lq.skipped)
			lq.skipped = 0
		}
	}
	h := rt.obs
	if h != nil {
		h.Tasks.Add(uint64(cs.Tasks))
		h.FailedPops.Add(uint64(cs.FailedPops))
		h.TermProbes.Add(uint64(cs.TermProbes))
		h.Steals.Add(uint64(cs.Steals))
		h.Panics.Add(uint64(cs.Panics))
	}
	if nrec == 0 {
		return cs
	}
	cs.Trace = make([]TaskRec, 0, nrec)
	for _, w := range rt.workers[:n] {
		cs.Trace = append(cs.Trace, w.recs...)
	}
	recs := cs.Trace // never reassigned, so the closures below capture it by value
	if p := rt.nw.Prof; p != nil {
		cs.MaxDepth = p.Fold(recs)
	}
	if h != nil {
		h.TaskCost.ObserveEach(len(recs), func(i int) float64 { return float64(recs[i].Cost) })
		if trc := h.Trc; trc != nil {
			pid, base := h.Pid, trc.TS(epoch)
			trc.Batch(func(dst []obs.Event) []obs.Event { return AppendSpans(dst, recs, pid, base, true) })
		}
	}
	return cs
}

// AppendSpans is the one TaskRec → Chrome event renderer, behind both the
// tracer's per-cycle batches and the flight recorder's dumps: one complete
// span per record on lane tid = worker+1 of pid. With wall set (a
// tracer's batch, every record timed) a span sits at its record's Start,
// base being the process clock's zero in the reader's µs timebase;
// otherwise (a flight dump) each lane replays its tasks back to back from
// base at their modeled µs cost.
func AppendSpans(dst []obs.Event, recs []TaskRec, pid int, base float64, wall bool) []obs.Event {
	lane := map[int32]float64{} // where each worker's modeled lane has got to
	for i := range recs {
		r := &recs[i]
		ts, dur := float64(r.Start)/1e3, float64(r.Dur)/1e3
		if !wall {
			ts, dur = lane[r.Worker], float64(r.Cost)
			lane[r.Worker] += dur
		}
		args := map[string]any{"node": int(r.Node), "seq": r.Seq, "parent": r.Parent, "depth": r.Depth, "cost-us": r.Cost}
		if r.Stolen {
			args["stolen"] = true
		}
		dst = append(dst, obs.Event{Name: fmt.Sprintf("%v#%d", r.Kind, r.Node), Cat: "task", Ph: "X",
			Ts: base + ts, Dur: dur, Pid: pid, Tid: int(r.Worker) + 1, Args: args})
	}
	return dst
}

// drainPoisoned forcibly quiesces a poisoned cycle after all workers have
// exited: every queued task is discarded (the partial match state is being
// thrown away anyway), the pending counter is cleared, and the free lists
// are abandoned (a task on a free list could otherwise alias one that was
// still queued when the cycle aborted).
func (rt *Runtime) drainPoisoned() {
	for _, q := range rt.queues {
		q.drain()
	}
	for _, w := range rt.workers {
		w.free = nil
	}
	rt.pending.Store(0)
}

// ReplaySerial rebuilds match state from scratch on the calling goroutine:
// every wme in all is injected and its activation chain run to completion,
// depth-first, before the next wme is injected. It is the engine's
// degradation path after a poisoned cycle — the network's memories must
// already have been reset (rete.Network.ResetMatchState) so the replay
// re-derives them. No fault injector, watchdog, or termination protocol is
// consulted: a degraded cycle always completes (§2.3's serial semantics are
// the correctness oracle the parallel policies are measured against). It
// runs as worker 0 on worker 0's queue, so a recovered cycle is recorded —
// and so profiled, observed and traced — exactly like a one-worker cycle.
func (rt *Runtime) ReplaySerial(all []*wme.WME) CycleStats {
	w := rt.workers[0]
	w.begin(nil)
	for _, x := range all {
		rt.nw.Inject(wme.Delta{Op: wme.Add, WME: x}, func(n *rete.BetaNode, ww *wme.WME, op wme.Op) {
			// Suppressed activations run inline here, not batched: there
			// are no other workers to spread them over.
			if !rt.nw.FilterRight(n, op, ww, &w.sched) {
				w.pushRoot(n, op, ww)
			}
		})
		w.stamp() // injection is not task time
		for t := w.q.pop(); t != nil; t = w.q.pop() {
			w.exec(t, false)
		}
	}
	cs := rt.collect(1)
	cs.Recovered = true
	return cs
}

// QueueLockStats sums (spins, acquires) over the task-queue locks: the live
// counterpart of the paper's spins/task measure, read by queue_lock_spins_total
// and psme -stats. Figure 6-3 itself is drawn by internal/sim from
// one-process traces, not from these counts. Always zero under the
// lock-free WorkStealing policy. The acquires count each acquisition the
// lead skipped while alone, as of the last finished cycle: they are those
// of the same schedule with every queue locked.
func (rt *Runtime) QueueLockStats() (spins, acquires uint64) {
	for _, q := range rt.queues {
		if lq, ok := q.(*lockQueue); ok {
			s, a := lq.lock.Stats()
			spins += s
			acquires += a
		}
	}
	return spins, acquires + rt.queueSkipped.Load()
}
