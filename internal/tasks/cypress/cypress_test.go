package cypress

import (
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/wme"
)

func TestGenerateMatchesPaperStatistics(t *testing.T) {
	sys := Generate(DefaultParams())
	if got := strings.Count(sys.Source, "(p cy-"); got != 196 {
		t.Fatalf("productions = %d, want 196", got)
	}
	if len(sys.ChunkSrcs) != 26 {
		t.Fatalf("chunks = %d, want 26", len(sys.ChunkSrcs))
	}
	// Average CE counts track the paper's Table 5-1 (26 and 51).
	avg := func(seqs [][]int) float64 {
		s := 0
		for _, q := range seqs {
			s += len(q)
		}
		return float64(s) / float64(len(seqs))
	}
	if a := avg(sys.seqs); a < 22 || a > 30 {
		t.Fatalf("task production CEs = %.1f, want ~26", a)
	}
	if a := avg(sys.chunkSeqs); a < 45 || a > 57 {
		t.Fatalf("chunk CEs = %.1f, want ~51", a)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultParams())
	b := Generate(DefaultParams())
	if a.Source != b.Source {
		t.Fatalf("generation not deterministic")
	}
	c := Generate(Params{Seed: 7})
	if c.Source == a.Source {
		t.Fatalf("different seeds produced identical systems")
	}
}

func TestSharingInGeneratedNetwork(t *testing.T) {
	sys := Generate(Params{Productions: 40, Cycles: 10})
	e := engine.New(engine.DefaultConfig())
	if err := e.LoadProgram(sys.Source); err != nil {
		t.Fatal(err)
	}
	totalCEs := 0
	for _, q := range sys.seqs {
		totalCEs += len(q)
	}
	if got := e.NW.TwoInputNodes(); got >= totalCEs {
		t.Fatalf("no sharing: %d nodes for %d CEs", got, totalCEs)
	}
}

func TestDriverProducesMatchesAndDeletes(t *testing.T) {
	sys := Generate(Params{Productions: 60, Cycles: 120, Chunks: 4})
	e := engine.New(engine.DefaultConfig())
	if err := e.LoadProgram(sys.Source); err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(sys, e.Tab, e.WM)
	adds, removes, tasks := 0, 0, 0
	for c := 0; c < sys.Params.Cycles; c++ {
		batch := drv.Batch()
		for _, d := range batch {
			if d.Op == wme.Add {
				adds++
			} else {
				removes++
			}
		}
		cs := e.ApplyAndMatch(batch)
		tasks += cs.Tasks
	}
	if adds == 0 || removes == 0 {
		t.Fatalf("driver lacks adds (%d) or removes (%d)", adds, removes)
	}
	if tasks == 0 {
		t.Fatalf("no match activity")
	}
	if e.CS.Len() < 0 {
		t.Fatalf("impossible")
	}
	if err := e.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTimeChunkAddition(t *testing.T) {
	sys := Generate(Params{Productions: 30, Cycles: 60, Chunks: 3})
	e := engine.New(engine.DefaultConfig())
	if err := e.LoadProgram(sys.Source); err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(sys, e.Tab, e.WM)
	next := 0
	for c := 0; c < sys.Params.Cycles; c++ {
		if _, err := drv.Step(e, c, &next, true); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Additions) != 3 {
		t.Fatalf("added %d chunks, want 3", len(e.Additions))
	}
	for i, res := range e.Additions {
		if res.Info.SharedTwoInput == 0 {
			t.Fatalf("chunk %d shared nothing (chunks extend task productions)", i)
		}
	}
	if err := e.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsFillDefaults(t *testing.T) {
	p := Params{}
	p.fill()
	d := DefaultParams()
	if p != d {
		t.Fatalf("fill() != defaults: %+v vs %+v", p, d)
	}
}
