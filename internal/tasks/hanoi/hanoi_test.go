package hanoi_test

import (
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/hanoi"
)

func run(t *testing.T, n int, chunking bool, seed *soar.Agent) (*soar.Agent, *soar.Result) {
	t.Helper()
	cfg := soar.Config{Engine: engine.DefaultConfig(), Chunking: chunking, MaxDecisions: 400}
	a, err := soar.New(cfg, hanoi.Task(n))
	if err != nil {
		t.Fatal(err)
	}
	if seed != nil {
		if _, err := a.AdoptChunks(seed); err != nil {
			t.Fatal(err)
		}
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	return a, res
}

func TestSolvesOptimally(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		a, res := run(t, n, false, nil)
		if !res.Halted {
			t.Fatalf("n=%d: did not solve: %+v", n, res)
		}
		// Each move is one operator decision in the top goal.
		if res.OperatorDecisions != hanoi.MinMoves(n) {
			t.Fatalf("n=%d: solved in %d moves, optimal is %d", n, res.OperatorDecisions, hanoi.MinMoves(n))
		}
		if err := a.Eng.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolvesWithChunking(t *testing.T) {
	during, res := run(t, 4, true, nil)
	if !res.Halted {
		t.Fatalf("did not solve with chunking: %+v", res)
	}
	if res.ChunksBuilt == 0 {
		t.Fatalf("no chunks built")
	}
	_, after := run(t, 4, true, during)
	if !after.Halted {
		t.Fatalf("after-chunking run did not solve")
	}
	if after.Decisions >= res.Decisions {
		t.Fatalf("chunks did not reduce decisions: %d -> %d", res.Decisions, after.Decisions)
	}
}

func TestUsesConjunctiveNegations(t *testing.T) {
	task := hanoi.Default()
	if strings.Count(task.Source, "-{") < 2 {
		t.Fatalf("hanoi should use two conjunctive negations per proposal")
	}
}

func TestMinMoves(t *testing.T) {
	if hanoi.MinMoves(3) != 7 || hanoi.MinMoves(5) != 31 {
		t.Fatalf("MinMoves wrong")
	}
}

func TestDiskBoundsClamped(t *testing.T) {
	for _, n := range []int{0, 1, 9, 20} {
		task := hanoi.Task(n)
		if task.Source == "" {
			t.Fatalf("clamped task empty for n=%d", n)
		}
	}
}
