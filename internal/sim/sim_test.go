package sim

import (
	"testing"
	"testing/quick"

	"soarpsme/internal/prun"
)

// wide returns n independent root tasks of the given cost.
func wide(n int, cost int64) []prun.TaskRec {
	out := make([]prun.TaskRec, n)
	for i := range out {
		out[i] = prun.TaskRec{Seq: int64(i + 1), Cost: cost}
	}
	return out
}

// chain returns n fully dependent tasks.
func chain(n int, cost int64) []prun.TaskRec {
	out := make([]prun.TaskRec, n)
	for i := range out {
		out[i] = prun.TaskRec{Seq: int64(i + 1), Parent: int64(i), Cost: cost}
	}
	return out
}

func TestEmptyTrace(t *testing.T) {
	r := Simulate(nil, Config{Processes: 4})
	if r.Makespan != 0 || r.Tasks != 0 {
		t.Fatalf("empty trace: %+v", r)
	}
	if Speedup(nil, 8, MultiQueue, 25) != 1 {
		t.Fatalf("empty speedup != 1")
	}
}

func TestUniprocessorMakespan(t *testing.T) {
	tr := wide(10, 400)
	r := Simulate(tr, Config{Processes: 1, QueueOp: 25})
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
	tr := wide(200, 400)
	s4 := Speedup(tr, 4, MultiQueue, 25)
	s8 := Speedup(tr, 8, MultiQueue, 25)
	if s4 < 3.5 || s8 < 6.5 {
		t.Fatalf("wide trace scaled poorly: s4=%.2f s8=%.2f", s4, s8)
	}
}

func TestChainDoesNotScale(t *testing.T) {
	tr := chain(100, 400)
	s := Speedup(tr, 13, MultiQueue, 25)
	if s > 1.05 {
		t.Fatalf("chain should not speed up, got %.2f", s)
	}
	r := Simulate(tr, Config{Processes: 13, Policy: MultiQueue, QueueOp: 25})
	if r.FailedPops == 0 {
		t.Fatalf("idle processors should record failed pops")
	}
}

func TestSingleQueueContentionCapsSpeedup(t *testing.T) {
	// With expensive queue ops, the single shared queue caps throughput
	// below the multi-queue organization (Figure 6-1 vs 6-4).
	tr := wide(400, 400)
	single := Speedup(tr, 13, SingleQueue, 120)
	multi := Speedup(tr, 13, MultiQueue, 120)
	if single >= multi {
		t.Fatalf("single-queue (%.2f) should cap below multi-queue (%.2f)", single, multi)
	}
	if single > 5 {
		t.Fatalf("single-queue speedup %.2f should saturate under heavy lock cost", single)
	}
}

func TestSpinsGrowWithProcesses(t *testing.T) {
	tr := wide(400, 400)
	r4 := Simulate(tr, Config{Processes: 4, Policy: SingleQueue, QueueOp: 60})
	r13 := Simulate(tr, Config{Processes: 13, Policy: SingleQueue, QueueOp: 60})
	if r13.SpinsPerTask(60) <= r4.SpinsPerTask(60) {
		t.Fatalf("spins/task should grow with processes: %f vs %f",
			r4.SpinsPerTask(60), r13.SpinsPerTask(60))
	}
}

func TestAllTasksExecuteExactlyOnce(t *testing.T) {
	// Mixed DAG: roots with chains hanging off them.
	var tr []prun.TaskRec
	seq := int64(0)
	for r := 0; r < 20; r++ {
		seq++
		root := seq
		tr = append(tr, prun.TaskRec{Seq: root, Cost: 300})
		parent := root
		for d := 0; d < r%5; d++ {
			seq++
			tr = append(tr, prun.TaskRec{Seq: seq, Parent: parent, Cost: 200})
			parent = seq
		}
	}
	for _, p := range []int{1, 3, 8} {
		r := Simulate(tr, Config{Processes: p, Policy: MultiQueue, QueueOp: 20})
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
	tr := wide(100, 333)
	a := Simulate(tr, Config{Processes: 7, Policy: MultiQueue, QueueOp: 30})
	b := Simulate(tr, Config{Processes: 7, Policy: MultiQueue, QueueOp: 30})
	if a.Makespan != b.Makespan || a.queueSpins != b.queueSpins || a.FailedPops != b.FailedPops {
		t.Fatalf("simulation not deterministic")
	}
}

func TestSamples(t *testing.T) {
	tr := wide(50, 400)
	r := Simulate(tr, Config{Processes: 4, QueueOp: 20, MaxSamples: 1000})
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

func TestMultiCycleAddsMakespans(t *testing.T) {
	tr := wide(10, 400)
	one := Simulate(tr, Config{Processes: 2, QueueOp: 20})
	both := MultiCycle([][]prun.TaskRec{tr, tr}, Config{Processes: 2, QueueOp: 20})
	if both.Makespan != 2*one.Makespan {
		t.Fatalf("MultiCycle makespan %d != 2x%d", both.Makespan, one.Makespan)
	}
	if both.Tasks != 2*one.Tasks {
		t.Fatalf("MultiCycle tasks wrong")
	}
}

func TestUnknownParentTreatedAsRoot(t *testing.T) {
	tr := []prun.TaskRec{{Seq: 5, Parent: 99, Cost: 100}}
	r := Simulate(tr, Config{Processes: 1, QueueOp: 10})
	if r.Tasks != 1 {
		t.Fatalf("orphan task not executed")
	}
}

// Property: speedup at P processes never exceeds P (work conservation) and
// never falls below ~the-serial-fraction bound.
func TestSpeedupBoundsProperty(t *testing.T) {
	f := func(nRoots, depth uint8, procs uint8) bool {
		n := int(nRoots%20) + 1
		d := int(depth % 6)
		p := int(procs%12) + 2
		var tr []prun.TaskRec
		seq := int64(0)
		for i := 0; i < n; i++ {
			seq++
			root := seq
			tr = append(tr, prun.TaskRec{Seq: root, Cost: 200})
			parent := root
			for j := 0; j < d; j++ {
				seq++
				tr = append(tr, prun.TaskRec{Seq: seq, Parent: parent, Cost: 150})
				parent = seq
			}
		}
		s := Speedup(tr, p, MultiQueue, 20)
		return s >= 0.9 && s <= float64(p)+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueCountOverride(t *testing.T) {
	tr := wide(200, 400)
	// 2 queues for 8 processes sits between single and full multi.
	single := Simulate(tr, Config{Processes: 8, Policy: SingleQueue, QueueOp: 120}).Makespan
	two := Simulate(tr, Config{Processes: 8, Queues: 2, QueueOp: 120}).Makespan
	multi := Simulate(tr, Config{Processes: 8, Policy: MultiQueue, QueueOp: 120}).Makespan
	if !(multi <= two && two <= single) {
		t.Fatalf("queue-count ordering wrong: single=%d two=%d multi=%d", single, two, multi)
	}
}
