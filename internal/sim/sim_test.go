package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

// rec is one traced task: its sequence number, its parent's and its cost.
type rec struct{ seq, parent, cost int64 }

func index(tr []rec) Cycle {
	return Index(len(tr), func(i int) (int64, int64, int64) { return tr[i].seq, tr[i].parent, tr[i].cost })
}

// wide returns n independent root tasks of the given cost.
func wide(n int, cost int64) Cycle {
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{seq: int64(i + 1), cost: cost}
	}
	return index(out)
}

// chain returns n fully dependent tasks.
func chain(n int, cost int64) Cycle {
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{seq: int64(i + 1), parent: int64(i), cost: cost}
	}
	return index(out)
}

// run replays one cycle.
func run(c Cycle, cfg Config) *Result { return Run([]Cycle{c}, cfg) }

// speedup replays c at 1 and at p processes with the given queue count and
// returns makespan(1)/makespan(p).
func speedup(c Cycle, p, queues int, queueOp int64) float64 {
	one := run(c, Config{Processes: 1, QueueOp: queueOp})
	par := run(c, Config{Processes: p, Queues: queues, QueueOp: queueOp})
	return float64(one.Makespan) / float64(par.Makespan)
}

func TestEmptyTrace(t *testing.T) {
	for _, cycles := range [][]Cycle{nil, {index(nil)}, {index(nil), index(nil)}} {
		r := Run(cycles, Config{Processes: 4})
		if r.Makespan != 0 || r.Tasks != 0 || r.TotalWork != 0 {
			t.Fatalf("empty run of %d cycles: %+v", len(cycles), r)
		}
	}
}

func TestUniprocessorMakespan(t *testing.T) {
	r := run(wide(10, 400), Config{Processes: 1, QueueOp: 25})
	// 10 pops + execution; no pushes (no children).
	want := int64(10*400 + 10*25)
	if r.Makespan != want {
		t.Fatalf("makespan = %d, want %d", r.Makespan, want)
	}
	if r.TotalWork != 4000 {
		t.Fatalf("TotalWork = %d", r.TotalWork)
	}
}

func TestWideScalesNearLinear(t *testing.T) {
	c := wide(200, 400)
	s4 := speedup(c, 4, 0, 25)
	s8 := speedup(c, 8, 0, 25)
	if s4 < 3.5 || s8 < 6.5 {
		t.Fatalf("wide trace scaled poorly: s4=%.2f s8=%.2f", s4, s8)
	}
}

func TestChainDoesNotScale(t *testing.T) {
	c := chain(100, 400)
	if s := speedup(c, 13, 0, 25); s > 1.05 {
		t.Fatalf("chain should not speed up, got %.2f", s)
	}
	if r := run(c, Config{Processes: 13, QueueOp: 25}); r.FailedPops == 0 {
		t.Fatalf("idle processors should record failed pops")
	}
}

func TestSingleQueueContentionCapsSpeedup(t *testing.T) {
	// With expensive queue ops, the single shared queue caps throughput
	// below the multi-queue organization (Figure 6-1 vs 6-4).
	c := wide(400, 400)
	single := speedup(c, 13, 1, 120)
	multi := speedup(c, 13, 0, 120)
	if single >= multi {
		t.Fatalf("single-queue (%.2f) should cap below multi-queue (%.2f)", single, multi)
	}
	if single > 5 {
		t.Fatalf("single-queue speedup %.2f should saturate under heavy lock cost", single)
	}
}

func TestSpinsGrowWithProcesses(t *testing.T) {
	c := wide(400, 400)
	r4 := run(c, Config{Processes: 4, Queues: 1, QueueOp: 60})
	r13 := run(c, Config{Processes: 13, Queues: 1, QueueOp: 60})
	if r13.SpinsPerTask(60) <= r4.SpinsPerTask(60) {
		t.Fatalf("spins/task should grow with processes: %f vs %f",
			r4.SpinsPerTask(60), r13.SpinsPerTask(60))
	}
}

func TestAllTasksExecuteExactlyOnce(t *testing.T) {
	// Mixed DAG: roots with chains hanging off them.
	var tr []rec
	seq := int64(0)
	for r := 0; r < 20; r++ {
		seq++
		root := seq
		tr = append(tr, rec{seq: root, cost: 300})
		parent := root
		for d := 0; d < r%5; d++ {
			seq++
			tr = append(tr, rec{seq: seq, parent: parent, cost: 200})
			parent = seq
		}
	}
	c := index(tr)
	for _, p := range []int{1, 3, 8} {
		r := run(c, Config{Processes: p, QueueOp: 20})
		if r.Tasks != len(tr) {
			t.Fatalf("p=%d executed %d of %d", p, r.Tasks, len(tr))
		}
		var busy int64
		for _, b := range r.busy {
			busy += b
		}
		if busy != r.TotalWork {
			t.Fatalf("p=%d busy %d != work %d", p, busy, r.TotalWork)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := wide(100, 333)
	a := run(c, Config{Processes: 7, QueueOp: 30})
	b := run(c, Config{Processes: 7, QueueOp: 30})
	if a.Makespan != b.Makespan || a.queueSpins != b.queueSpins || a.FailedPops != b.FailedPops {
		t.Fatalf("simulation not deterministic")
	}
}

func TestSamples(t *testing.T) {
	r := run(wide(50, 400), Config{Processes: 4, Queues: 1, QueueOp: 20, MaxSamples: 1000})
	if len(r.Samples) == 0 {
		t.Fatalf("no samples")
	}
	for i := 1; i < len(r.Samples); i++ {
		if r.Samples[i].T < r.Samples[i-1].T {
			t.Fatalf("samples not time-ordered")
		}
	}
	last := r.Samples[len(r.Samples)-1]
	if last.N != 0 {
		t.Fatalf("final tasks-in-system = %d, want 0", last.N)
	}
}

// TestMultiCycleAddsMakespans: a run of several cycles replays them back to
// back, and merging them removes the barrier between them.
func TestMultiCycleAddsMakespans(t *testing.T) {
	c := wide(10, 400)
	cfg := Config{Processes: 2, Queues: 1, QueueOp: 20}
	one := run(c, cfg)
	both := Run([]Cycle{c, c}, cfg)
	if both.Makespan != 2*one.Makespan {
		t.Fatalf("two-cycle makespan %d != 2x%d", both.Makespan, one.Makespan)
	}
	if both.Tasks != 2*one.Tasks {
		t.Fatalf("two-cycle tasks wrong")
	}
	// Concatenated, the chains keep their links and the barriers go: a
	// 3-chain beside ten roots finishes no later than the ten alone plus
	// the chain run after them.
	ch := chain(3, 400)
	merged := append(append(Cycle{}, c...), ch...)
	if got, want := run(merged, cfg).Makespan, Run([]Cycle{c, ch}, cfg).Makespan; got >= want {
		t.Fatalf("merged makespan %d, want below the two cycles' %d", got, want)
	}
	if got, want := run(ch, cfg).Makespan, 3*(400+20)+2*20; got != int64(want) {
		t.Fatalf("3-chain makespan %d, want %d", got, want)
	}
}

func TestUnknownParentTreatedAsRoot(t *testing.T) {
	r := run(index([]rec{{seq: 5, parent: 99, cost: 100}}), Config{Processes: 1, QueueOp: 10})
	if r.Tasks != 1 {
		t.Fatalf("orphan task not executed")
	}
	// A parent later in the trace still links, and its children keep
	// trace order.
	c := index([]rec{{seq: 3, parent: 1, cost: 10}, {seq: 2, parent: 1, cost: 10}, {seq: 1, cost: 10}, {seq: 4, parent: 7, cost: 10}})
	want := Cycle{{cost: 10, sib: 1}, {cost: 10}, {cost: 10, kid: -2, root: true}, {cost: 10, root: true}}
	if !slices.Equal(c, want) {
		t.Fatalf("indexed %+v, want %+v", c, want)
	}
}

// Property: speedup at P processes never exceeds P (work conservation) and
// never falls below ~the-serial-fraction bound.
func TestSpeedupBoundsProperty(t *testing.T) {
	f := func(nRoots, depth uint8, procs uint8) bool {
		n := int(nRoots%20) + 1
		d := int(depth % 6)
		p := int(procs%12) + 2
		var tr []rec
		seq := int64(0)
		for i := 0; i < n; i++ {
			seq++
			root := seq
			tr = append(tr, rec{seq: root, cost: 200})
			parent := root
			for j := 0; j < d; j++ {
				seq++
				tr = append(tr, rec{seq: seq, parent: parent, cost: 150})
				parent = seq
			}
		}
		s := speedup(index(tr), p, 0, 20)
		return s >= 0.9 && s <= float64(p)+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueCountOverride(t *testing.T) {
	c := wide(200, 400)
	// 2 queues for 8 processes sits between single and full multi.
	single := run(c, Config{Processes: 8, Queues: 1, QueueOp: 120}).Makespan
	two := run(c, Config{Processes: 8, Queues: 2, QueueOp: 120}).Makespan
	multi := run(c, Config{Processes: 8, QueueOp: 120}).Makespan
	if !(multi <= two && two <= single) {
		t.Fatalf("queue-count ordering wrong: single=%d two=%d multi=%d", single, two, multi)
	}
}

// TestRunAllocsPerChain: an indexed cycle replays without allocating per
// task — popping from a queue keeps its capacity for the next push.
func TestRunAllocsPerChain(t *testing.T) {
	cycles := []Cycle{chain(10000, 400)}
	cfg := Config{Processes: 4, QueueOp: 25}
	if n := testing.AllocsPerRun(3, func() { Run(cycles, cfg) }); n >= 100 {
		t.Fatalf("replaying a 10000-task chain made %.0f allocations, want < 100", n)
	}
}
