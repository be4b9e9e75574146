package exp

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"soarpsme/internal/obs"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
)

// rendering is the one `experiments -exp all` report of this package's
// tests, rendered on one lab: every test below reads it, so each paper
// workload is captured once.
type rendering struct {
	lab  *Lab
	text string
	res  results
	// ran counts the match cycles the lab's observer saw in each section.
	ran map[string]uint64
}

var rendered = sync.OnceValues(func() (*rendering, error) {
	r := &rendering{lab: NewLab(), res: results{}, ran: map[string]uint64{}}
	o := obs.New()
	r.lab.SetObserver(o)
	cycles := o.Counter("match_cycles_total")
	last := cycles.Value()
	var out strings.Builder
	err := report(&out, r.lab, "all", false, func(id string, v fmt.Stringer) {
		r.res[id], r.ran[id], last = v, cycles.Value()-last, cycles.Value()
	})
	r.text = out.String()
	return r, err
})

func render(t *testing.T) *rendering {
	t.Helper()
	r, err := rendered()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReportMatchesGolden: the report equals testdata/exp-all.golden byte
// for byte (an intended figure change regenerates the file with
// `go run ./cmd/experiments -exp all > internal/exp/testdata/exp-all.golden`),
// README's scorecard is the rendered summary section, and each driver that
// varies the network options captures through the lab it is given: the
// lab's observer counts match cycles during its section.
func TestReportMatchesGolden(t *testing.T) {
	r := render(t)
	want, err := os.ReadFile("testdata/exp-all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if r.text != string(want) {
		t.Errorf("report differs from the golden file at %s", firstDiff(r.text, string(want)))
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if card := r.res["summary"].String(); !strings.Contains(string(readme), "```\n"+card+"```\n") {
		t.Errorf("README.md's scorecard block is not the rendered summary section:\n%s", card)
	}
	for _, id := range []string{"abl-mem", "abl-unlink", "abl-bilinear", "abl-share", "longrun", "f68"} {
		if r.ran[id] == 0 {
			t.Errorf("%s: no match cycle reached the lab's observer", id)
		}
	}
}

// firstDiff names the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "length"
}

// holds fails t unless each named claim (claims.go) holds on the report.
func holds(t *testing.T, ids ...string) {
	t.Helper()
	rows := render(t).res["summary"].(*table).Rows
	for _, id := range ids {
		i := 0
		for i < len(rows) && rows[i][0] != id {
			i++
		}
		if i == len(rows) {
			t.Errorf("no claim %s", id)
		} else if row := rows[i]; row[5] != "holds" {
			t.Errorf("%s (%s): measured %s, bound %s", id, row[1], row[3], row[4])
		}
	}
}

func TestSummaryAllShapesHold(t *testing.T) {
	for _, c := range claims {
		holds(t, c.id)
	}
}

// Each test below requires the claims-table rows that replaced its own
// predicates, so a failing row is reported under the name it had.
func TestTable51ChunksBiggerThanTaskProductions(t *testing.T)   { holds(t, "t51-ces", "t51-bytes") }
func TestTable52SharingCompilesFaster(t *testing.T)             { holds(t, "t52") }
func TestTable61Granularity(t *testing.T)                       { holds(t, "t61") }
func TestSpeedupShapes(t *testing.T)                            { holds(t, "f61-64") }
func TestFig62StripsWorstContention(t *testing.T)               { holds(t, "f62") }
func TestFig68BilinearShortensChain(t *testing.T)               { holds(t, "f68") }
func TestUpdatePhaseSpeedups(t *testing.T)                      { holds(t, "f69") }
func TestAfterChunkingEightPuzzleHighestSpeedup(t *testing.T)   { holds(t, "f610") }
func TestHistogramShiftAfterChunking(t *testing.T)              { holds(t, "f611-612") }
func TestAblationMemoriesHashingWins(t *testing.T)              { holds(t, "abl-mem") }
func TestAblationSharingReducesNodes(t *testing.T)              { holds(t, "abl-share") }
func TestAblationUnlinkCutsScheduledWork(t *testing.T)          { holds(t, "abl-unlink") }
func TestAblationAsyncLiftsSpeedup(t *testing.T)                { holds(t, "abl-async") }
func TestAblationAdaptiveQueuesOracleAtLeastMulti(t *testing.T) { holds(t, "abl-queues") }
func TestLongRunChunkingGrows(t *testing.T)                     { holds(t, "longrun") }

func TestFig67RendersProductions(t *testing.T) {
	out := render(t).res["f67"].String()
	if !strings.Contains(out, "st*monitor-strips-state") || !strings.Contains(out, "chunk") {
		t.Fatalf("monitor production or chunk missing:\n%s", out)
	}
}

func TestCaptureInvariants(t *testing.T) {
	caps, err := render(t).lab.workloads(duringChunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		if !c.halted {
			t.Errorf("%s did not halt", c.name)
		}
		if len(c.chunkCEs) == 0 {
			t.Errorf("%s built no chunks", c.name)
		}
		if len(c.updateTraces) == 0 {
			t.Errorf("%s recorded no update cycles", c.name)
		}
	}
}

// TestDiagnoseFindsLongChains: the §7 diagnosis finds low-speedup cycles,
// and a long-chain one names its production and suggests bilinear.
func TestDiagnoseFindsLongChains(t *testing.T) {
	c, err := render(t).lab.eightPuzzle(duringChunk)
	if err != nil {
		t.Fatal(err)
	}
	causes := map[string]int{}
	for _, d := range diagnose(c, 11, 5) {
		causes[d.cause]++
		if d.speedup >= 5 {
			t.Fatalf("diagnosis above threshold: %+v", d)
		}
		if d.cause == "long-chain" && (d.production == "" || !strings.Contains(d.suggestion, "bilinear")) {
			t.Fatalf("long-chain diagnosis incomplete: %+v", d)
		}
	}
	if causes["long-chain"] == 0 {
		t.Errorf("no long-chain diagnosis (causes: %v)", causes)
	}
	if len(render(t).res["diagnose"].(*table).Rows) == 0 {
		t.Errorf("diagnose table empty")
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

// TestLabKeyCoversOptions: a capture is a function of the whole network
// configuration, so captures that differ in one option are two captures,
// and asking again for either is a cache hit.
func TestLabKeyCoversOptions(t *testing.T) {
	l := NewLab()
	hashed, err := l.strips(noChunk)
	if err != nil {
		t.Fatal(err)
	}
	l.opts.LinearMemories = true
	linear, err := l.strips(noChunk)
	if err != nil {
		t.Fatal(err)
	}
	if linear == hashed || !linear.eng.NW.Opts.LinearMemories {
		t.Fatalf("the LinearMemories capture is the hashed one")
	}
	l.opts.LinearMemories = false
	if again, err := l.strips(noChunk); err != nil || again != hashed {
		t.Fatalf("asking again ran a new capture (err %v)", err)
	}
}
