package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"soarpsme/internal/conflict"
	"soarpsme/internal/ops5"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
)

func run(t *testing.T, src string, cfg Config) (*Engine, string) {
	t.Helper()
	var out bytes.Buffer
	cfg.Output = &out
	e := New(cfg)
	if err := e.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunOPS5(); err != nil {
		t.Fatal(err)
	}
	if err := e.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
	return e, out.String()
}

const counterSrc = `
(literalize counter n)
(startup (make counter ^n 0))
(p count-up
  (counter ^n { <n> < 10 })
  -->
  (modify 1 ^n (compute <n> + 1)))
(p done
  (counter ^n 10)
  -->
  (write done)
  (halt))
`

func TestCounterLoop(t *testing.T) {
	e, out := run(t, counterSrc, DefaultConfig())
	if !e.Halted() {
		t.Fatalf("did not halt")
	}
	if !strings.Contains(out, "done") {
		t.Fatalf("output %q missing done", out)
	}
	if e.Fired != 11 {
		t.Fatalf("fired %d, want 11", e.Fired)
	}
	if e.WM.Len() != 1 {
		t.Fatalf("WM len %d, want 1", e.WM.Len())
	}
}

func TestCounterLoopParallel(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
			cfg := DefaultConfig()
			cfg.Processes = procs
			cfg.Policy = pol
			e, _ := run(t, counterSrc, cfg)
			if e.Fired != 11 {
				t.Fatalf("procs=%d policy=%v: fired %d, want 11", procs, pol, e.Fired)
			}
		}
	}
}

func TestWriteOutput(t *testing.T) {
	_, out := run(t, `
(literalize item name qty)
(startup (make item ^name bolt ^qty 42))
(p report (item ^name <n> ^qty <q>) --> (write have <q> <n>) (remove 1))
`, DefaultConfig())
	if strings.TrimSpace(out) != "have 42 bolt" {
		t.Fatalf("output = %q", out)
	}
}

func TestRemoveStopsRefiring(t *testing.T) {
	e, _ := run(t, `
(literalize tick)
(startup (make tick))
(p once (tick) --> (remove 1))
`, DefaultConfig())
	if e.Fired != 1 {
		t.Fatalf("fired %d, want 1", e.Fired)
	}
	if e.WM.Len() != 0 {
		t.Fatalf("WM not empty")
	}
}

func TestRefraction(t *testing.T) {
	// Without removing its wme, a production fires once per instantiation
	// (refraction), so the run terminates.
	e, _ := run(t, `
(literalize fact v)
(startup (make fact ^v 1) (make fact ^v 2))
(p note (fact ^v <v>) --> (make seen ^v <v>))
`, DefaultConfig())
	if e.Fired != 2 {
		t.Fatalf("fired %d, want 2", e.Fired)
	}
}

func TestLEXPrefersRecent(t *testing.T) {
	// LEX: the instantiation with the most recent time tag fires first.
	_, out := run(t, `
(literalize ev name)
(startup (make ev ^name old) (make ev ^name new))
(p hit (ev ^name <n>) --> (write <n>) (remove 1))
`, DefaultConfig())
	lines := strings.Fields(out)
	if len(lines) != 2 || lines[0] != "new" || lines[1] != "old" {
		t.Fatalf("LEX order wrong: %v", lines)
	}
}

func TestMEAFirstCERecency(t *testing.T) {
	// MEA orders on the first CE's time tag: goal2 is more recent, so the
	// instantiation matching goal2 fires first even though its second wme
	// is older.
	src := `
(strategy mea)
(literalize goal id)
(literalize datum id v)
(startup (make datum ^id g2 ^v x) (make datum ^id g1 ^v y)
         (make goal ^id g1) (make goal ^id g2))
(p act (goal ^id <g>) (datum ^id <g> ^v <v>) --> (write <g>) (remove 1))
`
	_, out := run(t, src, DefaultConfig())
	lines := strings.Fields(out)
	if len(lines) != 2 || lines[0] != "g2" || lines[1] != "g1" {
		t.Fatalf("MEA order wrong: %v", lines)
	}
}

func TestSpecificityTieBreak(t *testing.T) {
	// Same time tags: the more specific production wins.
	_, out := run(t, `
(literalize obj kind size)
(startup (make obj ^kind box ^size 3))
(p specific (obj ^kind box ^size 3) --> (write specific) (remove 1))
(p generic (obj ^kind box) --> (write generic) (remove 1))
`, DefaultConfig())
	if strings.Fields(out)[0] != "specific" {
		t.Fatalf("specificity order wrong: %q", out)
	}
}

func TestModifyPreservesOtherFields(t *testing.T) {
	e, out := run(t, `
(literalize rec a b c)
(startup (make rec ^a 1 ^b 2 ^c 3))
(p bump (rec ^a 1 ^b <b>) --> (modify 1 ^a 9) (write b <b>))
(p verify (rec ^a 9 ^b 2 ^c 3) --> (write ok) (halt))
`, DefaultConfig())
	if !e.Halted() || !strings.Contains(out, "ok") {
		t.Fatalf("modify lost fields: %q", out)
	}
}

func TestBindGensymCompute(t *testing.T) {
	_, out := run(t, `
(literalize c n)
(startup (make c ^n 4))
(p go (c ^n <n>)
  -->
  (bind <m> (compute <n> * (compute <n> + 1)))
  (bind <g>)
  (write m <m>)
  (remove 1))
`, DefaultConfig())
	if !strings.Contains(out, "m 20") {
		t.Fatalf("compute wrong: %q", out)
	}
}

func TestComputeErrors(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg)
	err := e.LoadProgram(`
(literalize c n)
(startup (make c ^n sym))
(p bad (c ^n <n>) --> (make o ^v (compute <n> + 1)))
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunOPS5(); err == nil {
		t.Fatalf("compute on symbol should error")
	}
	e2 := New(cfg)
	if err := e2.LoadProgram(`
(literalize c n)
(startup (make c ^n 1))
(p bad (c ^n <n>) --> (make o ^v (compute <n> // 0)))
`); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.RunOPS5(); err == nil {
		t.Fatalf("division by zero should error")
	}
}

func TestHaltStopsImmediately(t *testing.T) {
	e, _ := run(t, `
(literalize t v)
(startup (make t ^v 1) (make t ^v 2) (make t ^v 3))
(p stop (t ^v <v>) --> (halt))
`, DefaultConfig())
	if e.Fired != 1 {
		t.Fatalf("fired %d after halt, want 1", e.Fired)
	}
}

func TestMaxCyclesBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 5
	var out bytes.Buffer
	cfg.Output = &out
	e := New(cfg)
	if err := e.LoadProgram(`
(literalize c n)
(startup (make c ^n 0))
(p forever (c ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
`); err != nil {
		t.Fatal(err)
	}
	fired, err := e.RunOPS5()
	if err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("fired %d, want 5 (cycle bound)", fired)
	}
}

// TestRunOPS5Retention pins that an OPS5 run's memory follows its live
// state, not its length: a 40,000-cycle run of a one-rule counter keeps
// within 1 MiB of what a 1,000-cycle run keeps, with neither a per-cycle
// stats log nor an undrained conflict-set journal behind it.
func TestRunOPS5Retention(t *testing.T) {
	const src = `
(literalize counter n)
(startup (make counter ^n 0))
(p count-up (counter ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
`
	liveAfter := func(cycles int) uint64 {
		cfg := DefaultConfig()
		cfg.MaxCycles = cycles
		e := New(cfg)
		if err := e.LoadProgram(src); err != nil {
			t.Fatal(err)
		}
		if fired, err := e.RunOPS5(); err != nil || fired != cycles {
			t.Fatalf("fired %d (%v), want %d", fired, err, cycles)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(e)
		return ms.HeapAlloc
	}
	short, long := liveAfter(1000), liveAfter(40000)
	t.Logf("live heap after 1,000 cycles %d KiB, after 40,000 cycles %d KiB", short>>10, long>>10)
	if long > short+1<<20 {
		t.Fatalf("a 40,000-cycle run keeps %d KiB, a 1,000-cycle run %d KiB: memory grows with the run", long>>10, short>>10)
	}
}

func TestRuntimeAdditionThroughEngine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processes = 4
	e := New(cfg)
	if err := e.LoadProgram(`
(literalize block name color on)
(literalize hand state)
(startup (make block ^name b1 ^color blue)
         (make block ^name b2 ^color red)
         (make hand ^state free))
(p graspable
  (block ^name <b> ^color blue)
  -(block ^on <b>)
  (hand ^state free)
  -->
  (make goal ^obj <b>))
`); err != nil {
		t.Fatal(err)
	}
	if e.CS.Len() != 1 {
		t.Fatalf("CS len %d, want 1", e.CS.Len())
	}
	chunk, err := ops5.ParseProduction(`
(p chunk-red
  (block ^name <b> ^color red)
  -(block ^on <b>)
  (hand ^state free)
  -->
  (make goal ^obj <b>))`, e.Tab)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AddProductionRuntime(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Update.Tasks == 0 {
		t.Fatalf("update cycle ran no tasks")
	}
	if err := e.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.CS.Len() != 2 {
		t.Fatalf("CS len after chunk = %d, want 2", e.CS.Len())
	}
	// The chunk's instantiation is immediately fireable.
	names := map[string]int{}
	for _, in := range e.CS.All() {
		names[in.Prod.Name]++
	}
	if names["chunk-red"] != 1 || names["graspable"] != 1 {
		t.Fatalf("CS contents wrong: %v", names)
	}
}

func TestRuntimeAdditionSharedVsUnshared(t *testing.T) {
	// Sharing reduces the number of new nodes per chunk.
	build := func(share bool) int {
		cfg := DefaultConfig()
		cfg.Rete.ShareBeta = share
		e := New(cfg)
		if err := e.LoadProgram(`
(literalize a x)
(literalize b x)
(literalize c x)
(p base (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (make o))
(startup (make a ^x 1) (make b ^x 1) (make c ^x 1))
`); err != nil {
			t.Fatal(err)
		}
		chunk, err := ops5.ParseProduction(`(p ch (a ^x <v>) (b ^x <v>) (c ^x <> <v>) --> (make o2))`, e.Tab)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.AddProductionRuntime(chunk)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Info.NewBeta)
	}
	shared, unshared := build(true), build(false)
	if shared >= unshared {
		t.Fatalf("sharing did not reduce new nodes: shared %d, unshared %d", shared, unshared)
	}
}

// opsFinalCS runs a program and returns the sorted final conflict set.
func opsFinalCS(t *testing.T, src string, cfg Config) []string {
	e := New(cfg)
	if err := e.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, in := range e.CS.All() {
		ids := make([]uint64, len(in.WMEs))
		for i, w := range in.WMEs {
			ids[i] = w.ID
		}
		keys = append(keys, fmt.Sprintf("%s%v", in.Prod.Name, ids))
	}
	sort.Strings(keys)
	return keys
}

const equivSrc = `
(literalize g id s)
(literalize d s v n)
(literalize e v)
(startup
  (make g ^id g1 ^s s1)
  (make g ^id g2 ^s s2)
  (make d ^s s1 ^v a ^n 1)
  (make d ^s s1 ^v b ^n 2)
  (make d ^s s2 ^v a ^n 3)
  (make d ^s s2 ^v c ^n 4)
  (make e ^v a)
  (make e ^v b))
(p pj (g ^id <g> ^s <s>) (d ^s <s> ^v <v> ^n > 1) (e ^v <v>) --> (make out))
(p pn (g ^id <g> ^s <s>) -(d ^s <s> ^v c) --> (make out2))
`

func TestParallelMatchEquivalence(t *testing.T) {
	ref := opsFinalCS(t, equivSrc, DefaultConfig())
	if len(ref) == 0 {
		t.Fatalf("reference CS empty")
	}
	for _, procs := range []int{2, 4, 8, 13} {
		for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
			cfg := DefaultConfig()
			cfg.Processes = procs
			cfg.Policy = pol
			got := opsFinalCS(t, equivSrc, cfg)
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("procs=%d %v: CS %v != %v", procs, pol, got, ref)
			}
		}
	}
}

func TestBilinearEngineEquivalence(t *testing.T) {
	src := `
(literalize g id)
(literalize p g name)
(literalize s g v)
(literalize o s name type)
(startup
  (make g ^id g1)
  (make p ^g g1 ^name strips)
  (make s ^g g1 ^v s1)
  (make o ^s s1 ^name o1 ^type robot)
  (make o ^s s1 ^name o2 ^type door)
  (make o ^s s1 ^name o3 ^type door)
  (make o ^s s1 ^name o4 ^type box)
  (make o ^s s1 ^name o5 ^type box)
  (make o ^s s1 ^name o6 ^type box))
(p monitor
  (g ^id <g>) (p ^g <g> ^name strips) (s ^g <g> ^v <s>)
  (o ^s <s> ^name o1 ^type robot)
  (o ^s <s> ^name o2 ^type door)
  (o ^s <s> ^name o3 ^type door)
  (o ^s <s> ^name o4 ^type box)
  (o ^s <s> ^name o5 ^type <ty>)
  (o ^s <s> ^name o6 ^type <ty>)
  -->
  (make out))
`
	ref := opsFinalCS(t, src, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Rete.Organization = rete.Bilinear
	cfg.Rete.ContextCEs = 3
	cfg.Rete.GroupCEs = 2
	cfg.Processes = 4
	got := opsFinalCS(t, src, cfg)
	if fmt.Sprint(got) != fmt.Sprint(ref) || len(ref) != 1 {
		t.Fatalf("bilinear CS %v != linear %v", got, ref)
	}
}

func TestStrategyAccessors(t *testing.T) {
	e := New(DefaultConfig())
	if err := e.LoadProgram(`(strategy mea)
(literalize c v)
(p x (c) --> (halt))`); err != nil {
		t.Fatal(err)
	}
	if e.Strategy() != conflict.ParseStrategy("mea") {
		t.Fatalf("strategy not MEA")
	}
}

func TestLoadProgramErrors(t *testing.T) {
	e := New(DefaultConfig())
	if err := e.LoadProgram(`(p broken`); err == nil {
		t.Fatalf("parse error not reported")
	}
	if err := e.LoadProgram(`(literalize c v)
(p q (c ^v > <x>) --> (halt))`); err == nil {
		t.Fatalf("compile error not reported")
	}
}

func TestExciseActionRHS(t *testing.T) {
	// A production that excises another at run time: once "gate" fires, it
	// removes "noisy", whose remaining instantiations must never fire.
	e, out := run(t, `
(literalize ev n)
(startup (make ev ^n 1) (make ev ^n 2) (make ev ^n 3))
(p noisy (ev ^n <n>) --> (write noisy <n>))
(p gate (ev ^n 3) --> (write gating) (excise noisy) (remove 1))
`, DefaultConfig())
	if e.NW.Lookup("noisy") != nil {
		t.Fatalf("noisy still in network")
	}
	// gate fires first (recency: n=3 wme is newest, and gate is more
	// specific); after the excise, no noisy output appears.
	if strings.Contains(out, "noisy") {
		t.Fatalf("excised production fired: %q", out)
	}
	if !strings.Contains(out, "gating") {
		t.Fatalf("gate did not fire: %q", out)
	}
}

func TestExciseUnknownProductionErrors(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg)
	if err := e.LoadProgram(`
(literalize c v)
(startup (make c ^v 1))
(p bad (c ^v 1) --> (excise no-such-production) (remove 1))
`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunOPS5(); err == nil {
		t.Fatalf("excising unknown production should error")
	}
}

func TestElementVariables(t *testing.T) {
	// OPS5 element variables: { <w> (ce) } with (remove <w>) / (modify <w>).
	e, out := run(t, `
(literalize slot name v)
(startup (make slot ^name a ^v 1) (make slot ^name b ^v 1))
(p bump-a
  { <w> (slot ^name a ^v 1) }
  -->
  (modify <w> ^v 2))
(p drop-b
  (slot ^name a ^v 2)
  { <x> (slot ^name b) }
  -->
  (write dropping b)
  (remove <x>))
`, DefaultConfig())
	if !strings.Contains(out, "dropping b") {
		t.Fatalf("element-variable chain did not fire: %q", out)
	}
	if e.WM.Len() != 1 {
		t.Fatalf("WM len = %d, want 1", e.WM.Len())
	}
}

func TestElementVariableErrors(t *testing.T) {
	e := New(DefaultConfig())
	if err := e.LoadProgram(`
(literalize c v)
(p bad (c ^v 1) --> (remove <nosuch>))
`); err == nil {
		t.Fatalf("unbound element variable accepted")
	}
	e2 := New(DefaultConfig())
	if err := e2.LoadProgram(`
(literalize c v)
(p bad { <w> (c ^v 1) } { <w> (c ^v 2) } --> (remove <w>))
`); err == nil {
		t.Fatalf("duplicate element variable accepted")
	}
}

func TestComputeOperators(t *testing.T) {
	_, out := run(t, `
(literalize c n)
(startup (make c ^n 7))
(p ops (c ^n <n>)
  -->
  (write sum (compute <n> + 3))
  (write diff (compute <n> - 3))
  (write prod (compute <n> * 3))
  (write quot (compute <n> // 3))
  (write mod (compute <n> % 3))
  (write fdiv (compute 7.5 // 2.5))
  (write fsum (compute <n> + 0.5))
  (remove 1))
`, DefaultConfig())
	for _, want := range []string{"sum 10", "diff 4", "prod 21", "quot 2", "mod 1", "fdiv 3", "fsum 7.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestComputeModFloatErrors(t *testing.T) {
	e := New(DefaultConfig())
	if err := e.LoadProgram(`
(literalize c n)
(startup (make c ^n 1))
(p bad (c ^n <n>) --> (make o ^v (compute 1.5 % <n>)))
`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunOPS5(); err == nil {
		t.Fatalf("float modulo should error")
	}
}
