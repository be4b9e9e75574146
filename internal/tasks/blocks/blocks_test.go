package blocks

import (
	"bytes"
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/soar"
)

func run(t *testing.T, chunking bool, seed *soar.Agent, trace *bytes.Buffer) (*soar.Agent, *soar.Result) {
	t.Helper()
	cfg := soar.Config{Engine: engine.DefaultConfig(), Chunking: chunking, MaxDecisions: 200}
	if trace != nil {
		cfg.Trace = trace
	}
	a, err := soar.New(cfg, Default())
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

func TestSolvesViaOperatorNoChangeSubgoals(t *testing.T) {
	var trace bytes.Buffer
	_, res := run(t, false, nil, &trace)
	if !res.Halted {
		t.Fatalf("did not solve: %+v\n%s", res, trace.String())
	}
	// Tower reversal needs exactly three moves.
	if res.OperatorDecisions != 3 {
		t.Fatalf("moves = %d, want 3", res.OperatorDecisions)
	}
	// Every move must have raised an operator no-change impasse (no apply
	// production exists in the top space).
	n := strings.Count(trace.String(), "operator no-change impasse")
	if n != 3 {
		t.Fatalf("operator no-change impasses = %d, want 3\n%s", n, trace.String())
	}
}

func TestChunkingLearnsAwayApplicationSubgoals(t *testing.T) {
	during, dres := run(t, true, nil, nil)
	if !dres.Halted || dres.ChunksBuilt == 0 {
		t.Fatalf("during-chunking failed: %+v", dres)
	}

	var trace bytes.Buffer
	_, ares := run(t, true, during, &trace)
	if !ares.Halted {
		t.Fatalf("after-chunking did not solve: %+v", ares)
	}
	// The application chunks fire in the top context: far fewer (ideally
	// zero) no-change impasses remain.
	before := 3
	after := strings.Count(trace.String(), "operator no-change impasse")
	if after >= before {
		t.Fatalf("chunks did not learn away application subgoals: %d -> %d", before, after)
	}
	if ares.Decisions >= dres.Decisions {
		t.Fatalf("decisions did not drop: %d -> %d", dres.Decisions, ares.Decisions)
	}
}

func TestApplicationChunkShape(t *testing.T) {
	a, res := run(t, true, nil, nil)
	if !res.Halted {
		t.Fatalf("did not solve")
	}
	// At least one chunk creates a newstate scaffold (the learned
	// application step) with a gensym bind for the fresh state id.
	found := false
	for _, p := range a.Eng.NW.Productions() {
		if !strings.HasPrefix(p.Name, "chunk-") {
			continue
		}
		src := strings.ToLower(p.Name)
		_ = src
		hasMakeNewstate := false
		for _, act := range p.AST.RHS {
			if a.Eng.Tab.Name(act.Class) == "newstate" {
				hasMakeNewstate = true
			}
		}
		if hasMakeNewstate {
			found = true
		}
	}
	if !found {
		t.Fatalf("no application chunk creating the newstate scaffold")
	}
}

func TestCustomInstance(t *testing.T) {
	// Two piles: a on table, b on a; goal: b on table, a on b.
	start := stack{{"block-a", "block-b"}}
	goal := [][2]string{{"block-b", "table"}, {"block-a", "block-b"}}
	cfg := soar.Config{Engine: engine.DefaultConfig(), MaxDecisions: 200}
	a, err := soar.New(cfg, task(start, goal))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.OperatorDecisions != 2 {
		t.Fatalf("custom instance: %+v", res)
	}
}
