package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"soarpsme/internal/obs"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/wme"
)

// TestObservability runs a program with the observer attached and checks
// that the pipeline hooks actually fire: match counters, the cycle
// histogram, the contention harvest, and the trace spans.
func TestObservability(t *testing.T) {
	o := &obs.Observer{Reg: obs.NewRegistry(), Trc: obs.NewTracer()}
	cfg := DefaultConfig()
	cfg.Processes = 4
	cfg.Obs = o
	e, _ := run(t, counterSrc, cfg)
	if !e.Halted() {
		t.Fatal("did not halt")
	}

	if got := o.Counter("match_tasks_total").Value(); got == 0 {
		t.Fatal("match_tasks_total is zero")
	}
	if got := o.Counter("match_cycles_total").Value(); got != uint64(e.Cycles()) {
		t.Fatalf("match_cycles_total = %d, want %d", got, e.Cycles())
	}
	if got := o.Counter("wme_changes_total").Value(); got == 0 {
		t.Fatal("wme_changes_total is zero")
	}
	if got := o.Histogram("match_cycle_seconds").Count(); got != uint64(e.Cycles()) {
		t.Fatalf("match_cycle_seconds count = %d, want %d", got, e.Cycles())
	}
	// The contention counters are harvested when the registry is collected,
	// not per cycle; after a collect they agree with the runtime's and the
	// network's own cumulative counts.
	if got := o.Counter("queue_lock_acquires_total").Value(); got != 0 {
		t.Fatalf("queue_lock_acquires_total = %d before a collect: the harvest is back on the per-cycle path", got)
	}
	if err := o.Reg.WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}
	_, qa := e.RT.QueueLockStats()
	if got := o.Counter("queue_lock_acquires_total").Value(); got != qa || qa == 0 {
		t.Fatalf("queue_lock_acquires_total = %d, want %d", got, qa)
	}
	for name, want := range map[string]int64{
		"null_activations_suppressed_total": e.NW.Stats.NullSuppressed.Load(),
		"alpha_dispatch_hits_total":         e.NW.Stats.AlphaHits.Load(),
		"alpha_dispatch_misses_total":       e.NW.Stats.AlphaMisses.Load(),
	} {
		if got := o.Counter(name).Value(); got != uint64(want) {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}

	var buf bytes.Buffer
	if err := o.Trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("tracer collected no events")
	}
	out := buf.String()
	for _, want := range []string{`"match-cycle"`, `"ph":"X"`, `"cat":"task"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%.2000s", want, out)
		}
	}

	var mb bytes.Buffer
	if err := o.Reg.WriteText(&mb); err != nil {
		t.Fatal(err)
	}
	metrics := mb.String()
	for _, want := range []string{"match_tasks_total", "queue_lock_spins_total", "# TYPE match_cycle_seconds histogram"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestObservabilityRuntimeAddition checks the run-time addition hooks:
// splice timing, chunk counter and the state-update span.
func TestObservabilityRuntimeAddition(t *testing.T) {
	o := &obs.Observer{Reg: obs.NewRegistry(), Trc: obs.NewTracer()}
	cfg := DefaultConfig()
	cfg.Obs = o
	var out bytes.Buffer
	cfg.Output = &out
	e := New(cfg)
	if err := e.LoadProgram(`
(literalize item name qty)
(startup (make item ^name bolt ^qty 2) (make item ^name nut ^qty 3))
`); err != nil {
		t.Fatal(err)
	}
	ast, err := ops5.ParseProduction(`(p spot (item ^name bolt ^qty <q>) --> (write found <q>))`, e.Tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddProductionRuntime(ast); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("chunks_added_total").Value(); got != 1 {
		t.Fatalf("chunks_added_total = %d, want 1", got)
	}
	if got := o.Histogram("rete_add_splice_seconds").Count(); got != 1 {
		t.Fatalf("rete_add_splice_seconds count = %d, want 1", got)
	}
	var buf bytes.Buffer
	if err := o.Trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"add-production:spot", "state-update:spot"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("trace missing %q span", want)
		}
	}
}

// TestObservabilityDisabled checks the nil path end to end: a nil observer
// in the config must change nothing and panic nowhere.
func TestObservabilityDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processes = 2
	cfg.Obs = nil
	e, _ := run(t, counterSrc, cfg)
	if e.Fired != 11 {
		t.Fatalf("fired %d, want 11", e.Fired)
	}
	if e.Obs() != nil {
		t.Fatal("Obs() should be nil when disabled")
	}
}

// TestLineHarvest pins where the hash-line tallies are folded into the
// registry now that no cycle pays for the sweep: nothing on the per-cycle
// path, everything — exactly — when the registry is scraped mid-run,
// across a poisoned cycle that discards the table, and at Close.
func TestLineHarvest(t *testing.T) {
	o := obs.New()
	cfg := DefaultConfig()
	cfg.Processes = 4
	cfg.Obs = o
	e := New(cfg)
	if err := e.LoadProgram(counterSrc); err != nil {
		t.Fatal(err)
	}
	acquires := o.Counter("hash_line_lock_acquires_total")
	accesses := o.Counter("hash_bucket_accesses_total")
	steps := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// tallies reads a table's cumulative counts.
	tallies := func(m *rete.Mem) (acq, acc uint64) {
		_, acq = m.LockStats()
		_, l, r := m.Tallies()
		return acq, l + r
	}
	// exact compares the registry with the live table's cumulative tallies
	// plus those of the table recovery discarded.
	var discardedAcq, discardedAcc uint64
	exact := func(when string) {
		t.Helper()
		acq, acc := tallies(e.NW.Mem)
		if got, want := acquires.Value(), discardedAcq+acq; got != want {
			t.Fatalf("%s: hash_line_lock_acquires_total = %d, tables say %d", when, got, want)
		}
		if got, want := accesses.Value(), discardedAcc+acc; got != want || want == 0 {
			t.Fatalf("%s: hash_bucket_accesses_total = %d, tables say %d", when, got, want)
		}
	}
	scrape := func() {
		t.Helper()
		if err := o.Reg.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	}

	steps(3)
	if got := acquires.Value() + accesses.Value(); got != 0 {
		t.Fatalf("line tallies reached the registry without a scrape (%d): the sweep is back on the per-cycle path", got)
	}
	scrape()
	exact("mid-run scrape")

	// A bad delta poisons the cycle; recovery replaces the table.
	first := e.NW.Mem
	if cs := e.ApplyAndMatch([]wme.Delta{{Op: wme.Remove, WME: &wme.WME{ID: 1 << 40}}}); !cs.Recovered {
		t.Fatalf("bad delta not recovered: %+v", cs)
	}
	if e.NW.Mem == first {
		t.Fatal("recovery kept the hash table")
	}
	discardedAcq, discardedAcc = tallies(first)
	steps(3)
	scrape()
	exact("scrape after recovery")

	steps(20)
	if !e.Halted() {
		t.Fatal("did not halt")
	}
	e.Close()
	exact("after Close")

	// Closed: the registry no longer reaches the engine.
	before := acquires.Value()
	scrape()
	if got := acquires.Value(); got != before {
		t.Fatalf("scrape after Close harvested %d more acquires", got-before)
	}
}
