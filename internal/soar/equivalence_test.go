package soar_test

import (
	"fmt"
	"slices"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/fault"
	"soarpsme/internal/prun"
	. "soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/hanoi"
	"soarpsme/internal/tasks/strips"
)

// learningSolve is one chunking solve, per match cycle the number of
// chunks built so far, and the number of match cycles that ran with
// helpers.
type learningSolve struct {
	res    *Result
	chunks []int
	helped int
}

// paperTasks stalls one match task in 256 for the CLI's stall: a stand-in
// for the paper's 400 µs node activation, where a task here costs about
// 1 µs. The stall outlasts the runtime's crossing (prun checks that), so a
// cycle whose backlog is held across such a task starts its helpers.
func paperTasks() *fault.Injector {
	return fault.Seeded(1, fault.Rates{Stall: 256, StallFor: fault.DefaultRates().StallFor})
}

func solveLearning(t *testing.T, mk func() *Task, procs int, pol prun.Policy, in *fault.Injector) learningSolve {
	t.Helper()
	cfg := Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 400}
	cfg.Engine.Processes = procs
	cfg.Engine.Policy = pol
	cfg.Engine.Fault = in
	a, err := New(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	var s learningSolve
	a.Eng.AfterCycle = func(cs *prun.CycleStats) {
		s.chunks = append(s.chunks, a.Builder().Count())
		if cs.Workers > 1 {
			s.helped++
		}
	}
	if s.res, err = a.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// diff describes how s differs from the serial reference ref, or is "".
// Within one elaboration cycle the instantiations fire in the order the
// conflict set received them, which parallel match does not fix (nor did
// it before this test: chunk CE counts came out permuted within a cycle in
// about half the parallel solves on the parent tree), so each cycle's CE
// counts are compared as a multiset; everything else must be identical.
func (s learningSolve) diff(ref learningSolve) string {
	r, w := s.res, ref.res
	if r.Halted != w.Halted || r.Decisions != w.Decisions || r.ElabCycles != w.ElabCycles ||
		r.ChunksBuilt != w.ChunksBuilt || r.OperatorDecisions != w.OperatorDecisions {
		return fmt.Sprintf("halted %v, %d decisions / %d elab cycles / %d chunks / %d moves; serial %v, %d / %d / %d / %d",
			r.Halted, r.Decisions, r.ElabCycles, r.ChunksBuilt, r.OperatorDecisions,
			w.Halted, w.Decisions, w.ElabCycles, w.ChunksBuilt, w.OperatorDecisions)
	}
	if !slices.Equal(s.chunks, ref.chunks) {
		return fmt.Sprintf("chunks built per match cycle differ: %v, serial %v", s.chunks, ref.chunks)
	}
	lo := 0
	for _, hi := range s.chunks {
		got, want := slices.Clone(r.ChunkCEs[lo:hi]), slices.Clone(w.ChunkCEs[lo:hi])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			return fmt.Sprintf("chunks %d..%d have CE counts %v, serial %v", lo, hi, r.ChunkCEs[lo:hi], w.ChunkCEs[lo:hi])
		}
		lo = hi
	}
	return ""
}

// TestLearningParallelEquivalence is a hard oracle for learning solves
// (ROADMAP "independent oracle" (a)): every task of the soar-learn round,
// hanoi included, solved with chunking at 2 and 4 match processes under
// each scheduling policy must reproduce the Processes=1 solve — halt,
// decisions, elaboration cycles, moves, chunks built in each match cycle
// and their CE counts. Before PR 14's conflict-set fix hanoi missed the
// decision bound in about one run in six at two processes. The parallel
// solves stall paper-sized tasks (paperTasks), so that each configuration
// runs some cycles with helpers (checked when no task was filtered out).
func TestLearningParallelEquivalence(t *testing.T) {
	tasks := []struct {
		name string
		mk   func() *Task
	}{
		{"strips", strips.Default},
		{"blocks", blocks.Default},
		{"hanoi", hanoi.Default},
	}
	for i, b := range eightpuzzle.Instances() {
		tasks = append(tasks, struct {
			name string
			mk   func() *Task
		}{fmt.Sprintf("eight-%d", i), func() *Task { return eightpuzzle.Task(b) }})
	}
	type config struct {
		pol   prun.Policy
		procs int
	}
	helped := map[config]int{}
	ran := 0
	for _, tc := range tasks {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			ref := solveLearning(t, tc.mk, 1, prun.MultiQueue, nil)
			if !ref.res.Halted {
				t.Fatalf("serial reference did not halt: %+v", ref.res)
			}
			for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
				for _, procs := range []int{2, 4} {
					s := solveLearning(t, tc.mk, procs, pol, paperTasks())
					if d := s.diff(ref); d != "" {
						t.Errorf("%v × %d processes: %s", pol, procs, d)
					}
					t.Logf("%v × %d processes: %d of %d match cycles ran with helpers", pol, procs, s.helped, len(s.chunks))
					helped[config{pol, procs}] += s.helped
				}
			}
		})
	}
	if ran < len(tasks) {
		return // a -run filter may have kept only tasks none of whose cycles cross
	}
	for c, n := range helped {
		if n == 0 {
			t.Errorf("%v × %d processes: no match cycle of any task ran with helpers", c.pol, c.procs)
		}
	}
}

// TestLeadAloneSolveByteIdentical pins what putting every root on the
// lead's queue buys: a solve at two processes whose every match cycle ran
// on the lead alone ran the one-process schedule, so its Result is
// byte-identical to the Processes=1 solve's, the order of its 13 chunks'
// CE counts included — not only equal up to the order within a cycle, as a
// solve with helpers is. Blocks' cycles hold no backlog for a millisecond,
// even under -race; an attempt that a slow host made cross is retried.
func TestLeadAloneSolveByteIdentical(t *testing.T) {
	ref := solveLearning(t, blocks.Default, 1, prun.MultiQueue, nil)
	want := fmt.Sprintf("%+v", *ref.res)
	if ref.res.ChunksBuilt == 0 {
		t.Fatalf("the serial blocks solve built no chunk: %s", want)
	}
	for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
		const attempts = 3
		s := solveLearning(t, blocks.Default, 2, pol, nil)
		for i := 1; i < attempts && s.helped > 0; i++ {
			s = solveLearning(t, blocks.Default, 2, pol, nil)
		}
		if s.helped > 0 {
			t.Fatalf("%v: %d match cycles ran with helpers in each of %d attempts", pol, s.helped, attempts)
		}
		if got := fmt.Sprintf("%+v", *s.res); got != want || !slices.Equal(s.chunks, ref.chunks) {
			t.Fatalf("%v: a solve on the lead alone returned\n %s\nwant the one-process solve's\n %s", pol, got, want)
		}
	}
}
