package soar_test

import (
	"fmt"
	"slices"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	. "soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/hanoi"
	"soarpsme/internal/tasks/strips"
)

// learningSolve is one chunking solve and, per match cycle, the number of
// chunks built so far.
type learningSolve struct {
	res    *Result
	chunks []int
}

func solveLearning(t *testing.T, mk func() *Task, procs int, pol prun.Policy) learningSolve {
	t.Helper()
	cfg := Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 400}
	cfg.Engine.Processes = procs
	cfg.Engine.Policy = pol
	a, err := New(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	var s learningSolve
	a.Eng.AfterCycle = func(*prun.CycleStats) { s.chunks = append(s.chunks, a.Builder().Count()) }
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
// decision bound in about one run in six at two processes.
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
	for _, tc := range tasks {
		t.Run(tc.name, func(t *testing.T) {
			ref := solveLearning(t, tc.mk, 1, prun.MultiQueue)
			if !ref.res.Halted {
				t.Fatalf("serial reference did not halt: %+v", ref.res)
			}
			for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
				for _, procs := range []int{2, 4} {
					if d := solveLearning(t, tc.mk, procs, pol).diff(ref); d != "" {
						t.Errorf("%v × %d processes: %s", pol, procs, d)
					}
				}
			}
		})
	}
}
