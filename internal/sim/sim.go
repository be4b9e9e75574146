// Package sim is the deterministic multiprocessor simulator that stands in
// for the 16-CPU Encore Multimax (see DESIGN.md, substitutions). It replays
// a captured task-dependency trace — the node activations of one or more
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
package sim

import (
	"sort"

	"soarpsme/internal/prun"
)

// Policy is the paper's task-queue organization: SingleQueue is one queue
// shared by every process (Figure 6-1), MultiQueue one queue per process
// with cycle-stealing (Figure 6-4). The live runtime keeps only the
// second; the first exists here, where the figures are drawn.
type Policy uint8

const (
	SingleQueue Policy = iota
	MultiQueue
)

// Config sets the machine model.
type Config struct {
	Processes int
	Policy    Policy
	// QueueOp is the service time of one task-queue lock/push/pop, in the
	// same microsecond units as task costs (default 25).
	QueueOp int64
	// failedPopRetry is the idle-loop delay after a failed pop (default:
	// 2*QueueOp — the paper's idle processes find the empty queue by
	// locking it, §6.1).
	failedPopRetry int64
	// Queues overrides the queue count (0 = 1 for SingleQueue, Processes
	// for MultiQueue). Intermediate counts model §6.2's observation that
	// cycle tails want fewer queues than cycle bursts.
	Queues int
	// MaxSamples bounds the tasks-in-system time series (Figure 6-6).
	MaxSamples int
}

// Result is the outcome of simulating one trace.
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

// task is the simulator's internal task form.
type task struct {
	cost     int64
	children []int32
}

func anyPending(p [][]int32) bool {
	for _, x := range p {
		if len(x) > 0 {
			return true
		}
	}
	return false
}

// Simulate runs the trace on the configured machine.
func Simulate(trace []prun.TaskRec, cfg Config) *Result {
	if cfg.Processes < 1 {
		cfg.Processes = 1
	}
	if cfg.QueueOp == 0 {
		cfg.QueueOp = 25
	}
	if cfg.failedPopRetry == 0 {
		cfg.failedPopRetry = 4 * cfg.QueueOp
	}
	nq := 1
	if cfg.Policy == MultiQueue {
		nq = cfg.Processes
	}
	if cfg.Queues > 0 {
		nq = cfg.Queues
	}
	if nq > 1 {
		// Stealing requires the multi-queue policy's search loop.
		cfg.Policy = MultiQueue
	}

	// Index the trace: map Seq -> dense id, build children lists, find
	// the roots. Traces are recorded in completion order of a sequential
	// run; keep that order for determinism.
	idOf := make(map[int64]int32, len(trace))
	tasks := make([]task, len(trace))
	res := &Result{Tasks: len(trace), busy: make([]int64, cfg.Processes)}
	for i, r := range trace {
		idOf[r.Seq] = int32(i)
		tasks[i].cost = r.Cost
		res.TotalWork += r.Cost
	}
	var roots []int32
	for i, r := range trace {
		if r.Parent == 0 {
			roots = append(roots, int32(i))
			continue
		}
		if p, ok := idOf[r.Parent]; ok {
			tasks[p].children = append(tasks[p].children, int32(i))
		} else {
			roots = append(roots, int32(i))
		}
	}
	if len(trace) == 0 {
		return res
	}

	// Queues: entries become poppable once their push completes.
	type entry struct {
		id      int32
		visible int64
	}
	queues := make([][]entry, nq)
	lockFree := make([]int64, nq)
	// Roots are pushed round-robin at time zero by the control process.
	for i, id := range roots {
		q := i % nq
		queues[q] = append(queues[q], entry{id, 0})
	}

	// Task-count events: +1 when a task enters the system (pushed), -1
	// when it completes; the series is prefix-summed in time order after
	// the simulation.
	type tcEvent struct {
		t int64
		d int
	}
	var events []tcEvent
	recordEvents := cfg.MaxSamples != 0
	if recordEvents {
		events = append(events, tcEvent{0, len(roots)})
	}

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
				queues[q] = append(lst[:i:i], lst[i+1:]...)
				return id, true
			}
		}
		return -1, false
	}

	// Every lock operation is performed by the earliest-time processor,
	// so lock acquisitions happen in global time order. A processor that
	// finishes a task first pushes that task's children (lock operations
	// at its completion time), then returns to popping.
	procTime := make([]int64, cfg.Processes)
	pending := make([][]int32, cfg.Processes)
	executed := 0
	for executed < len(tasks) || anyPending(pending) {
		p := 0
		for i := 1; i < cfg.Processes; i++ {
			if procTime[i] < procTime[p] {
				p = i
			}
		}
		t := procTime[p]
		if len(pending[p]) > 0 {
			// Push this processor's completed task's children.
			q := p % nq
			for _, c := range pending[p] {
				start := t
				if lockFree[q] > start {
					res.queueSpins += lockFree[q] - start
					start = lockFree[q]
				}
				t = start + cfg.QueueOp
				lockFree[q] = t
				queues[q] = append(queues[q], entry{c, t})
				if recordEvents {
					events = append(events, tcEvent{t, 1})
				}
			}
			pending[p] = nil
			if t > res.Makespan {
				res.Makespan = t
			}
			procTime[p] = t
			continue
		}
		if executed == len(tasks) {
			// Nothing left for this processor; park it past the horizon.
			procTime[p] = 1 << 62
			continue
		}
		got := int32(-1)
		// Own queue first, then steal (multi-queue policy).
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
			if cfg.Policy == SingleQueue {
				break
			}
		}
		if got < 0 {
			res.FailedPops++
			procTime[p] = t + cfg.failedPopRetry
			continue
		}
		done := t + tasks[got].cost
		res.busy[p] += tasks[got].cost
		pending[p] = tasks[got].children
		executed++
		if recordEvents {
			events = append(events, tcEvent{done, -1})
		}
		if done > res.Makespan {
			res.Makespan = done
		}
		procTime[p] = done
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

// Speedup simulates the trace at 1 and at P processes and returns
// makespan(1)/makespan(P).
func Speedup(trace []prun.TaskRec, p int, pol Policy, queueOp int64) float64 {
	if len(trace) == 0 {
		return 1
	}
	one := Simulate(trace, Config{Processes: 1, Policy: SingleQueue, QueueOp: queueOp})
	par := Simulate(trace, Config{Processes: p, Policy: pol, QueueOp: queueOp})
	if par.Makespan == 0 {
		return 1
	}
	return float64(one.Makespan) / float64(par.Makespan)
}

// MultiCycle simulates a sequence of cycle traces (a whole run): cycles
// are synchronous (paper §3) — each cycle starts only after the previous
// completes — so makespans add.
func MultiCycle(traces [][]prun.TaskRec, cfg Config) *Result {
	total := &Result{busy: make([]int64, cfg.Processes)}
	for _, tr := range traces {
		r := Simulate(tr, cfg)
		total.Makespan += r.Makespan
		total.TotalWork += r.TotalWork
		total.Tasks += r.Tasks
		total.queueSpins += r.queueSpins
		total.FailedPops += r.FailedPops
		total.Steals += r.Steals
		for i := range r.busy {
			if i < len(total.busy) {
				total.busy[i] += r.busy[i]
			}
		}
	}
	return total
}

// RunSpeedup simulates a whole run (all cycles) at 1 and P processes.
func RunSpeedup(traces [][]prun.TaskRec, p int, pol Policy, queueOp int64) float64 {
	one := MultiCycle(traces, Config{Processes: 1, Policy: SingleQueue, QueueOp: queueOp})
	par := MultiCycle(traces, Config{Processes: p, Policy: pol, QueueOp: queueOp})
	if par.Makespan == 0 {
		return 1
	}
	return float64(one.Makespan) / float64(par.Makespan)
}
