package soar_test

import (
	"bytes"
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	. "soarpsme/internal/soar"
	"soarpsme/internal/tasks/eightpuzzle"
)

func epAgent(t *testing.T, board eightpuzzle.Board, chunking bool, procs int) *Agent {
	t.Helper()
	cfg := Config{
		Engine:       engine.DefaultConfig(),
		Chunking:     chunking,
		MaxDecisions: 200,
	}
	cfg.Engine.Processes = procs
	cfg.Engine.Policy = prun.MultiQueue
	a, err := New(cfg, eightpuzzle.Task(board))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestEightPuzzleTrivial(t *testing.T) {
	// One move from the goal: blank at c32, tile 8 at c33... build a board
	// one move away: swap blank with tile 8.
	b := eightpuzzle.Goal
	b[2][1], b[2][2] = 0, 8
	a := epAgent(t, b, false, 1)
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatalf("did not solve one-move puzzle: %+v", res)
	}
	if res.Decisions == 0 {
		t.Fatalf("no decisions")
	}
	if err := a.Eng.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEightPuzzleScrambleNoChunking(t *testing.T) {
	a := epAgent(t, eightpuzzle.Scramble(8, 3), false, 1)
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatalf("did not solve 8-move scramble: %+v", res)
	}
	if res.ChunksBuilt != 0 {
		t.Fatalf("chunks built with chunking off")
	}
}

func TestEightPuzzleChunkingBuildsChunks(t *testing.T) {
	a := epAgent(t, eightpuzzle.Scramble(8, 3), true, 1)
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatalf("did not solve with chunking: %+v", res)
	}
	if res.ChunksBuilt == 0 {
		t.Fatalf("no chunks built")
	}
	// Chunks are real productions in the network.
	found := 0
	for _, p := range a.Eng.NW.Productions() {
		if strings.HasPrefix(p.Name, "chunk-") {
			found++
		}
	}
	if found != res.ChunksBuilt {
		t.Fatalf("network has %d chunks, result says %d", found, res.ChunksBuilt)
	}
	if err := a.Eng.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEightPuzzleChunkTransfer(t *testing.T) {
	// After-chunking run: a fresh agent seeded with the chunks learned in
	// a during-chunking run must solve with fewer elaboration cycles and
	// fewer (or equal) decisions, and build no new chunks for the same
	// trajectory.
	board := eightpuzzle.Scramble(8, 3)
	first := epAgent(t, board, true, 1)
	res1, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Halted || res1.ChunksBuilt == 0 {
		t.Fatalf("during-chunking run failed: %+v", res1)
	}

	second := epAgent(t, board, true, 1)
	// Transfer the learned chunks into the fresh agent before running.
	if _, err := second.AdoptChunks(first); err != nil {
		t.Fatal(err)
	}
	res2, err := second.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Halted {
		t.Fatalf("after-chunking run did not solve: %+v", res2)
	}
	if res2.Decisions >= res1.Decisions {
		t.Fatalf("chunks did not reduce decisions: %d -> %d", res1.Decisions, res2.Decisions)
	}
}

func TestEightPuzzleParallelEquivalence(t *testing.T) {
	board := eightpuzzle.Scramble(6, 3)
	ref := epAgent(t, board, true, 1)
	res1, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{4, 8} {
		a := epAgent(t, board, true, procs)
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Halted != res1.Halted || res.Decisions != res1.Decisions || res.ChunksBuilt != res1.ChunksBuilt {
			t.Fatalf("procs=%d diverged: %+v vs %+v", procs, res, res1)
		}
	}
}

func TestTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Engine: engine.DefaultConfig(), MaxDecisions: 20, Trace: &buf}
	b := eightpuzzle.Goal
	b[2][1], b[2][2] = 0, 8
	a, err := New(cfg, eightpuzzle.Task(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "decide:") {
		t.Fatalf("no trace output")
	}
}

// TestSoarRejectsRemoveModify pins that New refuses a task any of whose
// productions removes, modifies or excises (Soar productions only add wmes,
// paper §3), naming the production, whichever action it is and wherever
// the production stands in the program.
func TestSoarRejectsRemoveModify(t *testing.T) {
	for _, act := range []string{"(remove 1)", "(modify 1 ^v 2)", "(excise fine)"} {
		src := "(literalize c v)\n(p fine (c ^v <x>) --> (make c ^v <x>))\n(p bad (c ^v <x>) --> (make c ^v 3) " + act + ")"
		_, err := New(Config{Engine: engine.DefaultConfig()}, &Task{
			Name:         "bad",
			Source:       src,
			ProblemSpace: "p",
			InitialState: "s0",
		})
		if err == nil {
			t.Fatalf("%s accepted in Soar mode", act)
		}
		if msg := err.Error(); !strings.Contains(msg, "production bad:") || !strings.Contains(msg, "paper §3") {
			t.Fatalf("%s: error %q does not name the production and cite paper §3", act, msg)
		}
	}
}

func TestSlotAndImpasseStrings(t *testing.T) {
	if SlotProblemSpace.String() != "problem-space" || SlotState.String() != "state" || SlotOperator.String() != "operator" {
		t.Fatalf("Slot strings wrong")
	}
	if ImpasseTie.String() != "tie" || ImpasseNone.String() != "none" || ImpasseConflict.String() != "conflict" || ImpasseNoChange.String() != "no-change" {
		t.Fatalf("Impasse strings wrong")
	}
}
