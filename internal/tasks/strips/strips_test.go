package strips

import (
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/soar"
	"soarpsme/internal/value"
)

func run(t *testing.T, chunking bool, seed *soar.Agent) (*soar.Agent, *soar.Result) {
	t.Helper()
	cfg := soar.Config{Engine: engine.DefaultConfig(), Chunking: chunking, MaxDecisions: 300}
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

func TestSolvesAllModes(t *testing.T) {
	_, nc := run(t, false, nil)
	if !nc.Halted {
		t.Fatalf("without chunking did not solve: %+v", nc)
	}
	during, dres := run(t, true, nil)
	if !dres.Halted || dres.ChunksBuilt == 0 {
		t.Fatalf("during chunking failed: %+v", dres)
	}
	_, ares := run(t, true, during)
	if !ares.Halted {
		t.Fatalf("after chunking did not solve: %+v", ares)
	}
	if ares.Decisions >= dres.Decisions {
		t.Fatalf("chunks did not reduce decisions: %d -> %d", dres.Decisions, ares.Decisions)
	}
}

func TestBoxesDelivered(t *testing.T) {
	a, res := run(t, false, nil)
	if !res.Halted {
		t.Fatalf("did not solve")
	}
	// Every box sits in its goal room in the final state.
	tab := a.Eng.Tab
	atCls, _ := tab.Lookup("at")
	layout := defaultLayout()
	// Find the final state: the value of the top goal's state slot is not
	// exported, so check that for each box a live "at" wme places it in
	// its goal room.
	for _, box := range layout.boxes {
		found := false
		for _, w := range a.Eng.WM.All() {
			if w.Class != atCls {
				continue
			}
			if tab.Name(w.Field(1).Sym) == box.name && tab.Name(w.Field(2).Sym) == box.goal {
				found = true
			}
		}
		if !found {
			t.Fatalf("box %s not delivered to %s", box.name, box.goal)
		}
	}
}

func TestMonitorProductionFires(t *testing.T) {
	a, res := run(t, false, nil)
	if !res.Halted {
		t.Fatalf("did not solve")
	}
	monitored, ok := a.Eng.Tab.Lookup("monitored")
	if !ok {
		t.Fatalf("monitored class missing")
	}
	n := 0
	for _, w := range a.Eng.WM.All() {
		if w.Class == monitored {
			n++
		}
	}
	if n == 0 {
		t.Fatalf("monitor-strips-state never fired")
	}
}

func TestUsesConjunctiveNegation(t *testing.T) {
	// The nearest-box evaluation uses a Soar conjunctive negation.
	task := Default()
	if !strings.Contains(task.Source, "-{") {
		t.Fatalf("task does not exercise conjunctive negation")
	}
	if !strings.Contains(task.Source, "st*monitor-strips-state") {
		t.Fatalf("missing long-chain monitor production")
	}
}

func TestLayoutHelpers(t *testing.T) {
	if room(2, 3) != "r23" {
		t.Fatalf("Room naming wrong")
	}
	l := defaultLayout()
	if l.rows != 3 || l.cols != 3 || len(l.boxes) != 3 {
		t.Fatalf("layout wrong: %+v", l)
	}
	var _ value.Sym // keep import shape stable
}
