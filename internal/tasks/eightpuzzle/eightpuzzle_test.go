package eightpuzzle

import (
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/soar"
)

func solve(t *testing.T, b Board, chunking bool, seed *soar.Agent) (*soar.Agent, *soar.Result) {
	t.Helper()
	cfg := soar.Config{Engine: engine.DefaultConfig(), Chunking: chunking, MaxDecisions: 300}
	a, err := soar.New(cfg, Task(b))
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

func TestScrambleDeterministicAndSolvable(t *testing.T) {
	a := Scramble(16, 8)
	b := Scramble(16, 8)
	if a != b {
		t.Fatalf("Scramble not deterministic")
	}
	if Solved(a) {
		t.Fatalf("scramble equals goal")
	}
	if !Solved(Goal) {
		t.Fatalf("goal not solved")
	}
	// Scrambles must preserve the tile multiset.
	seen := map[int]int{}
	for _, row := range a {
		for _, v := range row {
			seen[v]++
		}
	}
	for v := 0; v <= 8; v++ {
		if seen[v] != 1 {
			t.Fatalf("tile %d appears %d times", v, seen[v])
		}
	}
}

func TestInstancesSolveInAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for i, b := range Instances() {
		_, nc := solve(t, b, false, nil)
		if !nc.Halted {
			t.Fatalf("instance %d: no-chunking run did not solve", i)
		}
		during, dres := solve(t, b, true, nil)
		if !dres.Halted {
			t.Fatalf("instance %d: during-chunking run did not solve", i)
		}
		if dres.ChunksBuilt == 0 {
			t.Fatalf("instance %d: no chunks built", i)
		}
		_, ares := solve(t, b, true, during)
		if !ares.Halted {
			t.Fatalf("instance %d: after-chunking run did not solve", i)
		}
		if ares.Decisions >= dres.Decisions {
			t.Fatalf("instance %d: chunks did not reduce decisions (%d -> %d)",
				i, dres.Decisions, ares.Decisions)
		}
	}
}

func TestChunksAreConfigSpecific(t *testing.T) {
	// Chunk LHS must pin the board cells (constants), with the state and
	// operator variablized.
	a, res := solve(t, Scramble(12, 18), true, nil)
	if !res.Halted || res.ChunksBuilt == 0 {
		t.Fatalf("run failed: %+v", res)
	}
	found := false
	for _, p := range a.Eng.NW.Productions() {
		if !strings.HasPrefix(p.Name, "chunk-") {
			continue
		}
		ces := len(p.AST.LHS)
		if ces > 8 { // a best/worst chunk with the board snapshot
			found = true
			if ces < 12 {
				t.Fatalf("snapshot chunk too small: %d CEs", ces)
			}
		}
	}
	if !found {
		t.Fatalf("no snapshot chunks built")
	}
}

func TestExpensiveChunksIncreaseMatchWork(t *testing.T) {
	// The paper's §6.3 phenomenon: after chunking, total match work grows
	// (eight-puzzle chunks are expensive) while decisions shrink.
	if testing.Short() {
		t.Skip("long")
	}
	b := Scramble(20, 3)
	_, nc := solve(t, b, false, nil)
	during, _ := solve(t, b, true, nil)
	after, ares := solve(t, b, true, during)
	tasksOf := func(a *soar.Agent) int { return a.Eng.Totals.Tasks }
	_ = nc
	ncAgent, _ := solve(t, b, false, nil)
	if tasksOf(after) <= tasksOf(ncAgent) {
		t.Fatalf("after-chunking match work should exceed without-chunking: %d vs %d",
			tasksOf(after), tasksOf(ncAgent))
	}
	if !ares.Halted {
		t.Fatalf("after run did not halt")
	}
}

func TestTaskSourceParses(t *testing.T) {
	task := Default()
	if task.ProblemSpace != "eight-puzzle" || task.InitialState != "s0" {
		t.Fatalf("task metadata wrong")
	}
	if !strings.Contains(task.Source, "ep*propose-move") {
		t.Fatalf("missing proposal production")
	}
	if !strings.Contains(task.Source, "(startup") {
		t.Fatalf("missing startup wmes")
	}
}

// Solved reports whether b equals the goal configuration.
func Solved(b Board) bool { return b == Goal }
