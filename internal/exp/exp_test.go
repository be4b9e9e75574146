package exp

import (
	"strings"
	"testing"

	"soarpsme/internal/rete"
	"soarpsme/internal/value"
)

// sharedLab caches captures across tests in this package (they are
// expensive); the Lab itself memoizes runs.
var sharedLab = NewLab()

func TestTable51ChunksBiggerThanTaskProductions(t *testing.T) {
	tbl, err := Table51(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	out := tbl.String()
	if !strings.Contains(out, "Eight-puzzle") || !strings.Contains(out, "Cypress") {
		t.Fatalf("missing tasks:\n%s", out)
	}
	// Shape target: chunks have more CEs than the hand-coded productions.
	for _, row := range tbl.Rows {
		taskCEs := atoiOr(t, row[1])
		chunkCEs := atoiOr(t, row[2])
		if chunkCEs <= taskCEs {
			t.Errorf("%s: chunk CEs (%d) not larger than task CEs (%d)", row[0], chunkCEs, taskCEs)
		}
	}
}

// TestNodeBytes pins the code-size formula to the sizes the instruction
// emitter it replaced produced for each node shape (Table 5-1's inputs).
func TestNodeBytes(t *testing.T) {
	eq := rete.JoinTest{Pred: value.PredEq}
	ne := rete.JoinTest{Pred: value.PredNe}
	pair := rete.BBTest{}
	for _, c := range []struct {
		name string
		node rete.BetaNode
		want int
	}{
		{"P", rete.BetaNode{Kind: rete.KindP}, 56},
		{"join, no tests", rete.BetaNode{Kind: rete.KindJoin}, 158},
		{"join, one equality", rete.BetaNode{Kind: rete.KindJoin, Tests: []rete.JoinTest{eq}}, 240},
		{"join, one inequality", rete.BetaNode{Kind: rete.KindJoin, Tests: []rete.JoinTest{ne}}, 230},
		{"join, two equalities and an inequality", rete.BetaNode{Kind: rete.KindJoin, Tests: []rete.JoinTest{eq, eq, ne}}, 394},
		{"not, no tests", rete.BetaNode{Kind: rete.KindNot}, 146},
		{"not, one equality", rete.BetaNode{Kind: rete.KindNot, Tests: []rete.JoinTest{eq}}, 228},
		{"NCC", rete.BetaNode{Kind: rete.KindNCC}, 146},
		{"NCC partner", rete.BetaNode{Kind: rete.KindNCCPartner}, 146},
		{"pair join, two pair tests", rete.BetaNode{Kind: rete.KindJoinBB, BBTests: []rete.BBTest{pair, pair}}, 322},
		{"pair join, one equality and one pair test", rete.BetaNode{Kind: rete.KindJoinBB, Tests: []rete.JoinTest{eq}, BBTests: []rete.BBTest{pair}}, 322},
	} {
		if got := nodeBytes(&c.node); got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.name, got, c.want)
		}
	}
}

func atoiOr(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("non-numeric cell %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestTable52SharingCompilesFaster(t *testing.T) {
	tbl, err := Table52(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		shared := row[2]
		unshared := row[3]
		if !(parseF(t, shared) < parseF(t, unshared)) {
			t.Errorf("%s: shared compile (%s) not faster than unshared (%s)", row[0], shared, unshared)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var f float64
	var frac, div float64 = 0, 1
	dot := false
	for _, c := range s {
		if c == '.' {
			dot = true
			continue
		}
		d := float64(c - '0')
		if dot {
			div *= 10
			frac = frac*10 + d
			continue
		}
		f = f*10 + d
	}
	return f + frac/div
}

func TestTable61Granularity(t *testing.T) {
	tbl, err := Table61(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		avg := atoiOr(t, row[3])
		// Shape target: task granularity in the hundreds of microseconds
		// (the paper reports ~400-438 µs).
		if avg < 200 || avg > 600 {
			t.Errorf("%s: avg task time %dus outside paper band", row[0], avg)
		}
	}
}

func TestSpeedupShapes(t *testing.T) {
	f61, err := Fig61(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	f64, err := Fig64(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f61.Series {
		last61 := f61.Series[i].Y[len(f61.Series[i].Y)-1]
		last64 := f64.Series[i].Y[len(f64.Series[i].Y)-1]
		// Multiple queues lift the 13-process ceiling (Fig 6-1 vs 6-4).
		if last64 <= last61 {
			t.Errorf("series %d: multi-queue (%.2f) not above single-queue (%.2f)", i, last64, last61)
		}
		// Single-queue saturates: <= 6-fold (paper: max ~4.2).
		if last61 > 6 {
			t.Errorf("series %d: single-queue speedup %.2f too high", i, last61)
		}
		// Speedup at 13 exceeds speedup at 1.
		if f64.Series[i].Y[0] != 1 {
			t.Errorf("series %d: speedup at 1 process = %.2f", i, f64.Series[i].Y[0])
		}
	}
}

func TestUpdatePhaseSpeedups(t *testing.T) {
	f, err := Fig69(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		last := s.Y[len(s.Y)-1]
		if last < 1.5 {
			t.Errorf("%s: update-phase speedup %.2f too low (paper: high)", s.Name, last)
		}
	}
}

func TestAfterChunkingEightPuzzleHighestSpeedup(t *testing.T) {
	f610, err := Fig610(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	f64, err := Fig64(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	ep610 := f610.Series[0].Y[len(f610.Series[0].Y)-1]
	ep64 := f64.Series[0].Y[len(f64.Series[0].Y)-1]
	// Paper §6.3: the biggest increase in parallelism is the Eight-puzzle
	// after chunking (about 10-fold at 13 processes).
	if ep610 <= ep64 {
		t.Errorf("after-chunking EP speedup (%.2f) not above without-chunking (%.2f)", ep610, ep64)
	}
	if ep610 < 7 {
		t.Errorf("after-chunking EP speedup %.2f below paper band (~10)", ep610)
	}
}

func TestHistogramShiftAfterChunking(t *testing.T) {
	before, err := Fig611(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Fig612(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	// Mass at >= 200 tasks/cycle grows after chunking (rightward shift,
	// Figures 6-11 vs 6-12).
	sumAbove := func(s []float64, x []float64, cut float64) float64 {
		total := 0.0
		for i := range x {
			if x[i] >= cut {
				total += s[i]
			}
		}
		return total
	}
	b := sumAbove(before.Series[0].Y, before.Series[0].X, 200)
	a := sumAbove(after.Series[0].Y, after.Series[0].X, 200)
	if a <= b {
		t.Errorf("histogram did not shift right: before %.1f%%, after %.1f%%", b, a)
	}
}

func TestFig67RendersProductions(t *testing.T) {
	out, err := Fig67(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "st*monitor-strips-state") {
		t.Fatalf("monitor production missing:\n%s", out)
	}
	if !strings.Contains(out, "chunk") {
		t.Fatalf("chunk missing:\n%s", out)
	}
}

func TestFig68BilinearShortensChain(t *testing.T) {
	tbl, err := Fig68(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	lin := atoiOr(t, tbl.Rows[0][1])
	bil := atoiOr(t, tbl.Rows[1][1])
	if bil >= lin {
		t.Errorf("bilinear chain (%d) not shorter than linear (%d)", bil, lin)
	}
}

func TestFig62StripsWorstContention(t *testing.T) {
	f, err := Fig62(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	// Strips should have the smallest share of single-access buckets
	// (paper: Strips contention higher than Eight-puzzle and Cypress).
	oneAccess := make([]float64, len(f.Series))
	for i, s := range f.Series {
		for j, x := range s.X {
			if x == 1 {
				oneAccess[i] = s.Y[j]
			}
		}
	}
	if !(oneAccess[1] < oneAccess[0] && oneAccess[1] < oneAccess[2]) {
		t.Errorf("Strips not the most contended: one-access shares %v", oneAccess)
	}
}

func TestCaptureInvariants(t *testing.T) {
	caps, err := sharedLab.Workloads(DuringChunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		if !c.Halted {
			t.Errorf("%s did not halt", c.Name)
		}
		if len(c.ChunkCEs) == 0 {
			t.Errorf("%s built no chunks", c.Name)
		}
		if len(c.UpdateTraces) == 0 {
			t.Errorf("%s recorded no update cycles", c.Name)
		}
	}
}
