// Package sim is the deterministic multiprocessor simulator that stands in
// for the 16-CPU Encore Multimax (see DESIGN.md, substitutions). It replays
// captured task-dependency traces — the node activations of one or more
// match cycles, with their modeled costs and parent links — on P simulated
// match processes scheduled through PSM-E's task queues (one shared queue,
// or one queue per process with cycle-stealing), with an explicit
// queue-lock service time so the contention phenomena of §6 (spins/task
// growth, failed pops, the 13-process dip, the multi-queue recovery)
// emerge from the model rather than being asserted.
//
// The simulator is what regenerates the paper's speedup figures on any
// host: the trace fixes the work and its dependence structure, and the
// simulation makespan at P processes gives speedup = makespan(1)/makespan(P).
// A trace is indexed once (Index) and replayed by Run as often as needed.
package sim

import "sort"

// failedPopRetry is the idle-loop delay after a failed pop, in queue-op
// units: the paper's idle processes find the empty queue by locking it
// (§6.1).
const failedPopRetry = 4

// Config sets the machine model.
type Config struct {
	Processes int
	// QueueOp is the service time of one task-queue lock/push/pop, in the
	// same microsecond units as task costs (default 25).
	QueueOp int64
	// Queues is the task-queue count: 1 is the paper's single queue shared
	// by every process (Figures 6-1, 6-3), 0 one queue per process with
	// cycle-stealing (Figure 6-4). Intermediate counts model §6.2's
	// observation that cycle tails want fewer queues than cycle bursts.
	Queues int
	// MaxSamples bounds the tasks-in-system time series (Figure 6-6).
	MaxSamples int
}

// Cycle is one match cycle's task DAG, indexed for replay: its tasks in
// trace order, each linked to its first child and its next sibling by
// distance, so cycles concatenate as they stand. Concatenated cycles are
// one DAG with the barriers between them removed.
type Cycle []task

type task struct {
	cost int64
	// kid and sib are the distances to the first child and to the next
	// sibling (children are linked in trace order); 0 if there is none.
	kid, sib int32
	root     bool
}

// Index links a trace of n tasks, where rec(i) is task i's sequence
// number, its parent's and its cost. A task whose parent is anywhere in
// the trace is that task's child; a zero or unknown parent makes it a root.
func Index(n int, rec func(i int) (seq, parent, cost int64)) Cycle {
	c := make(Cycle, n)
	idOf := make(map[int64]int32, n)
	for i := range c {
		seq, _, cost := rec(i)
		idOf[seq] = int32(i)
		c[i].cost = cost
	}
	last := make([]int32, n) // each task's last child linked so far
	for i := range c {
		_, parent, _ := rec(i)
		p, ok := idOf[parent]
		switch {
		case parent == 0 || !ok:
			c[i].root = true
			continue
		case c[p].kid == 0:
			c[p].kid = int32(i) - p
		default:
			c[last[p]].sib = int32(i) - last[p]
		}
		last[p] = int32(i)
	}
	return c
}

// Result is the outcome of a replay.
type Result struct {
	Makespan   int64 // µs until the last task completes
	TotalWork  int64 // sum of task costs (sequential execution time)
	Tasks      int
	queueSpins int64 // µs spent waiting on queue locks
	FailedPops int64
	// Steals counts tasks popped from a queue other than the popping
	// processor's own (multi-queue cycle-stealing).
	Steals int64
	// Busy[p] is processor p's busy time (task execution only).
	busy []int64
	// Samples is (time, tasks-in-system) at task push/completion events.
	Samples []Sample
}

// Sample is one point of the tasks-in-system trace.
type Sample struct {
	T int64
	N int
}

// SpinsPerTask reports queue-lock waiting per executed task, normalized to
// queue-op units (the paper's Figure 6-3 metric).
func (r *Result) SpinsPerTask(queueOp int64) float64 {
	if r.Tasks == 0 || queueOp == 0 {
		return 0
	}
	return float64(r.queueSpins) / float64(queueOp) / float64(r.Tasks)
}

// Run replays cycles on the configured machine. Cycles are synchronous
// (paper §3) — each starts from time zero only after the previous
// completes — so their makespans add; a single cycle is a one-element run.
func Run(cycles []Cycle, cfg Config) *Result {
	if cfg.Processes < 1 {
		cfg.Processes = 1
	}
	if cfg.QueueOp == 0 {
		cfg.QueueOp = 25
	}
	nq := cfg.Processes
	if cfg.Queues > 0 {
		nq = cfg.Queues
	}
	res := &Result{busy: make([]int64, cfg.Processes)}

	// Queues: entries become poppable once their push completes.
	type entry struct {
		id      int32
		visible int64
	}
	queues := make([][]entry, nq)
	lockFree := make([]int64, nq)
	procTime := make([]int64, cfg.Processes)
	// pending[p] is the first child processor p has still to push, or -1;
	// every cycle ends with none.
	pending := make([]int32, cfg.Processes)
	for p := range pending {
		pending[p] = -1
	}

	// Task-count events: +1 when a task enters the system (pushed), -1
	// when it completes; the series is prefix-summed in time order after
	// the replay. A cycle's events are offset by the makespan before it.
	type tcEvent struct {
		t int64
		d int
	}
	var events []tcEvent
	recordEvents := cfg.MaxSamples != 0

	// An empty-queue probe holds the lock only for the cache-line touch
	// (the paper's idle processes "lock the queue and find the empty
	// queue for themselves", §6.1); spinning itself is on a local copy.
	const probeOp = 2

	// pop removes the most recently pushed visible entry (LIFO).
	pop := func(q int, t int64) (int32, bool) {
		lst := queues[q]
		for i := len(lst) - 1; i >= 0; i-- {
			if lst[i].visible <= t {
				id := lst[i].id
				queues[q] = append(lst[:i], lst[i+1:]...)
				return id, true
			}
		}
		return -1, false
	}

	for _, c := range cycles {
		if len(c) == 0 {
			continue
		}
		base := res.Makespan
		clear(lockFree)
		clear(procTime)
		// Roots are pushed round-robin at time zero by the control process.
		roots := 0
		for i := range c {
			res.TotalWork += c[i].cost
			if c[i].root {
				q := roots % nq
				queues[q] = append(queues[q], entry{int32(i), 0})
				roots++
			}
		}
		res.Tasks += len(c)
		if recordEvents {
			events = append(events, tcEvent{base, roots})
		}

		// Every lock operation is performed by the earliest-time processor,
		// so lock acquisitions happen in global time order. A processor that
		// finishes a task first pushes that task's children (lock operations
		// at its completion time), then returns to popping.
		var span int64
		executed, pushing := 0, 0
		for executed < len(c) || pushing > 0 {
			p := 0
			for i := 1; i < cfg.Processes; i++ {
				if procTime[i] < procTime[p] {
					p = i
				}
			}
			t := procTime[p]
			if ch := pending[p]; ch >= 0 {
				// Push this processor's completed task's children.
				q := p % nq
				for {
					start := t
					if lockFree[q] > start {
						res.queueSpins += lockFree[q] - start
						start = lockFree[q]
					}
					t = start + cfg.QueueOp
					lockFree[q] = t
					queues[q] = append(queues[q], entry{ch, t})
					if recordEvents {
						events = append(events, tcEvent{base + t, 1})
					}
					if c[ch].sib == 0 {
						break
					}
					ch += c[ch].sib
				}
				pending[p] = -1
				pushing--
				span = max(span, t)
				procTime[p] = t
				continue
			}
			if executed == len(c) {
				// Nothing left for this processor; park it past the horizon.
				procTime[p] = 1 << 62
				continue
			}
			got := int32(-1)
			// Own queue first, then steal.
			for k := 0; k < nq; k++ {
				q := (p + k) % nq
				start := t
				if lockFree[q] > start {
					res.queueSpins += lockFree[q] - start
					start = lockFree[q]
				}
				if id, ok := pop(q, start); ok {
					got = id
					if k > 0 {
						res.Steals++
					}
					t = start + cfg.QueueOp
					lockFree[q] = t
					break
				}
				t = start + probeOp
				lockFree[q] = t
			}
			if got < 0 {
				res.FailedPops++
				procTime[p] = t + failedPopRetry*cfg.QueueOp
				continue
			}
			done := t + c[got].cost
			res.busy[p] += c[got].cost
			if c[got].kid != 0 {
				pending[p] = got + c[got].kid
				pushing++
			}
			executed++
			if recordEvents {
				events = append(events, tcEvent{base + done, -1})
			}
			span = max(span, done)
			procTime[p] = done
		}
		res.Makespan += span
	}

	if recordEvents {
		sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
		n := 0
		for _, e := range events {
			n += e.d
			if cfg.MaxSamples > 0 && len(res.Samples) >= cfg.MaxSamples {
				break
			}
			res.Samples = append(res.Samples, Sample{T: e.t, N: n})
		}
	}
	return res
}
