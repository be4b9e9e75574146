package exp

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"soarpsme/internal/obs"
	"soarpsme/internal/rete"
	"soarpsme/internal/sim"
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

// TestExperimentsQuotesReport: every ```report <id>``` block of
// EXPERIMENTS.md is an excerpt of that section of the rendered report (its
// lines, in order, any skipped), and every claims-table row is named in
// the file, so no verdict can silently go. A regenerated golden file whose
// lines moved means re-copying the excerpts this test names.
func TestExperimentsQuotesReport(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, c := range claims {
		ids = append(ids, c.id)
	}
	for _, msg := range checkExcerpts("EXPERIMENTS.md", string(doc), render(t).text, ids) {
		t.Error(msg)
	}
}

// TestCheckExcerptsFailures: each way a document can misquote the report
// is reported, with the block's starting line and the line not found.
func TestCheckExcerptsFailures(t *testing.T) {
	const report = "==== t61 (Table 6-1) ====\nTask  us\n----  ---\nEP    405\nS     402\n\n" +
		"==== f61 (Figure 6-1) ====\nprocs  EP\n13     3.28\n\n"
	const ok = "Verdict `t61`, `f61-64`.\n```report t61\nTask  us\nS     402\n```\n"
	for _, c := range []struct {
		name, doc, want string
	}{
		{"a faithful excerpt", ok, ""},
		{"an unknown section id", ok + "\n```report t62\nTask  us\n```\n", "doc.md:7: report block names no section t62"},
		{"two lines out of order", ok + "```report t61\nS     402\nEP    405\n```\n", `doc.md:6: line "EP    405" is not in section t61 after the line before it`},
		{"a one-digit edit", ok + "```report t61\nEP    406\n```\n", `doc.md:6: line "EP    406" is not in section t61`},
		{"an empty block", ok + "```report f61\n```\n", "doc.md:6: report f61 block is empty"},
		{"a claims id missing from the text", "Verdict `t61`.\n", "doc.md: claims row `f61-64` is named nowhere"},
	} {
		got := strings.Join(checkExcerpts("doc.md", c.doc, report, []string{"t61", "f61-64"}), "\n")
		if c.want == "" && got != "" || !strings.Contains(got, c.want) {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

// checkExcerpts returns one message per misquote in doc (named name): a
// ```report <id>``` block naming no section of report, an empty block, a
// block line not found in its section after the block's previous line,
// and each of ids not named in backticks.
func checkExcerpts(name, doc, report string, ids []string) []string {
	sections := map[string][]string{}
	var cur string
	for _, l := range strings.Split(report, "\n") {
		if strings.HasPrefix(l, "==== ") {
			cur = strings.Fields(l)[1]
			sections[cur] = nil
		} else if cur != "" {
			sections[cur] = append(sections[cur], l)
		}
	}
	var msgs []string
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		id, ok := strings.CutPrefix(lines[i], "```report ")
		if !ok {
			continue
		}
		start := i + 1
		var body []string
		for i++; i < len(lines) && lines[i] != "```"; i++ {
			body = append(body, lines[i])
		}
		sec, ok := sections[id]
		switch {
		case !ok:
			msgs = append(msgs, fmt.Sprintf("%s:%d: report block names no section %s", name, start, id))
			continue
		case len(body) == 0:
			msgs = append(msgs, fmt.Sprintf("%s:%d: report %s block is empty", name, start, id))
			continue
		}
		at := 0
		for j, l := range body {
			for at < len(sec) && sec[at] != l {
				at++
			}
			if at == len(sec) {
				where := ""
				if j > 0 {
					where = " after the line before it"
				}
				msgs = append(msgs, fmt.Sprintf("%s:%d: line %q is not in section %s%s", name, start, l, id, where))
				break
			}
			at++
		}
	}
	for _, id := range ids {
		if !strings.Contains(doc, "`"+id+"`") {
			msgs = append(msgs, fmt.Sprintf("%s: claims row `%s` is named nowhere", name, id))
		}
	}
	return msgs
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

// TestCaptureInvariants: the during-chunking captures halted and learned,
// and after the report no capture's engine holds a task record: each trace
// was indexed for replay, with every task it held, and then dropped.
func TestCaptureInvariants(t *testing.T) {
	r := render(t)
	caps, err := r.lab.workloads(duringChunk)
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
		if len(c.updates) == 0 {
			t.Errorf("%s recorded no update cycles", c.name)
		}
	}
	held := func(cycles []sim.Cycle) (n int) {
		for _, cyc := range cycles {
			n += len(cyc)
		}
		return n
	}
	for k, c := range r.lab.cache {
		cycleTasks, updateTasks := 0, 0
		for _, cs := range c.eng.CycleStats {
			if cs.Trace != nil {
				t.Fatalf("%s (%+v) keeps a cycle's %d task records", c.name, k, len(cs.Trace))
			}
			cycleTasks += cs.Tasks
		}
		for i, add := range c.eng.Additions {
			if add.Update.Trace != nil {
				t.Fatalf("%s (%+v) keeps an addition's %d task records", c.name, k, len(add.Update.Trace))
			}
			if i >= c.measuredFrom {
				updateTasks += add.Update.Tasks
			}
		}
		if got := held(c.cycles); got != cycleTasks {
			t.Errorf("%s (%+v): indexed cycles hold %d tasks, the engine ran %d", c.name, k, got, cycleTasks)
		}
		if got := held(c.updates); got != updateTasks {
			t.Errorf("%s (%+v): indexed updates hold %d tasks, the engine ran %d", c.name, k, got, updateTasks)
		}
		if len(c.chains) != len(c.cycles) {
			t.Errorf("%s (%+v): %d chains for %d cycles", c.name, k, len(c.chains), len(c.cycles))
		}
	}
}

// TestSpeedup: a replay's speedup is makespan(1)/makespan(P), and 1 when
// the parallel replay took no time, as an empty run does.
func TestSpeedup(t *testing.T) {
	if s := speedup(uniproc(nil), replay(nil, 8, 0)); s != 1 {
		t.Errorf("empty run: speedup %v, want 1", s)
	}
	if s := speedup(&sim.Result{Makespan: 10}, &sim.Result{}); s != 1 {
		t.Errorf("zero parallel makespan: speedup %v, want 1", s)
	}
	if s := speedup(&sim.Result{Makespan: 10}, &sim.Result{Makespan: 4}); s != 2.5 {
		t.Errorf("speedup %v, want 2.5", s)
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
