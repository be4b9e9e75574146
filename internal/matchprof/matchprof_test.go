package matchprof_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/fault"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/serve"
	"soarpsme/internal/tasks/cypress"
)

// profiled is the engine configuration of a profiled session.
func profiled(procs int, opts *matchprof.Options) engine.Config {
	ec := engine.DefaultConfig()
	ec.Processes = procs
	ec.Prof = opts
	return ec
}

// driveCypress runs an engine through the cypress workload exactly as a
// served session would (chunking on), returning the engine. each, when
// non-nil, runs after every driver cycle and its chunk additions.
func driveCypress(t *testing.T, ec engine.Config, cycles int, each func(e *engine.Engine)) (*engine.Engine, []string) {
	t.Helper()
	sys := cypress.Generate(cypress.DefaultParams())
	e := engine.New(ec)
	if err := e.LoadProgram(sys.Source); err != nil {
		t.Fatal(err)
	}
	drv := cypress.NewDriver(sys, e.Tab, e.WM)
	var fps []string
	next := 0
	for cyc := 0; cyc < cycles; cyc++ {
		if _, err := drv.Step(e, cyc, &next, true); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, serve.Fingerprint(e))
		if each != nil {
			each(e)
		}
	}
	return e, fps
}

// Profiling must not perturb match results: the per-cycle conflict-set
// fingerprints of profiled runs at 1, 4, and 13 processes — and of one with
// a tracer attached as well, where every task is timed — are byte-identical
// to the unprofiled solo serial reference.
func TestConformanceWithProfiling(t *testing.T) {
	const cycles = 40
	want, err := serve.SoloFingerprints(cypress.DefaultParams(), cycles, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		procs int
		obs   *obs.Observer
	}{{1, nil}, {4, nil}, {13, nil}, {4, &obs.Observer{Reg: obs.NewRegistry(), Trc: obs.NewTracer()}}} {
		procs, name := in.procs, fmt.Sprintf("procs=%d", in.procs)
		if in.obs != nil {
			name += "+obs"
		}
		t.Run(name, func(t *testing.T) {
			// Aggressive sampling so the sampled path itself is exercised.
			ec := profiled(procs, &matchprof.Options{SampleEvery: 2})
			ec.Obs = in.obs
			e, got := driveCypress(t, ec, cycles, nil)
			for cyc := range want {
				if got[cyc] != want[cyc] {
					t.Fatalf("procs=%d cycle %d: fingerprint diverged with profiling on\n got %q\nwant %q",
						procs, cyc, got[cyc], want[cyc])
				}
			}
			snap := e.Prof.Snapshot()
			if snap.Totals.Acts == 0 {
				t.Fatal("profiling collected no activations")
			}
			if len(snap.Productions) == 0 {
				t.Fatal("no productions attributed")
			}
			// SampleEvery is a rate, not "the first task of every cycle":
			// each worker times every second task it executes, counted
			// across cycles. A tracer times them all.
			lo, hi := snap.Totals.Acts/2-int64(procs), snap.Totals.Acts/2
			if in.obs != nil {
				lo, hi = snap.Totals.Acts, snap.Totals.Acts
			}
			if n := snap.Totals.Samples; n < lo || n > hi {
				t.Fatalf("%d wall-clock samples over %d activations, want %d..%d", n, snap.Totals.Acts, lo, hi)
			}
		})
	}
}

// Attribution must cover BOTH inputs of bilinear pair joins: with the
// restructuring pass on, the right-side group sub-chains are real two-input
// nodes with their own cost cells, and a Parent-only spine walk leaves
// their cost unattributed and their chain depth undercounted. Cypress has
// no NCCs, so with correct ownership every activated node belongs to some
// production and Unattributed stays zero.
func TestBilinearAttributionCoversRightChains(t *testing.T) {
	run := func(org rete.Organization) *matchprof.Snapshot {
		sys := cypress.Generate(cypress.DefaultParams())
		ec := engine.DefaultConfig()
		ec.Processes = 2
		ec.Prof = &matchprof.Options{}
		ec.Rete.Organization = org
		e := engine.New(ec)
		if err := e.LoadProgram(sys.Source); err != nil {
			t.Fatal(err)
		}
		drv := cypress.NewDriver(sys, e.Tab, e.WM)
		next := 0
		for cyc := 0; cyc < 8; cyc++ {
			if _, err := drv.Step(e, cyc, &next, true); err != nil {
				t.Fatal(err)
			}
		}
		return e.Prof.Snapshot()
	}
	lin := run(rete.Linear)
	aut := run(rete.BilinearAuto)

	if aut.Unattributed.Acts != 0 || aut.Unattributed.Cost != 0 {
		t.Fatalf("bilinear group sub-chains unattributed: %+v", aut.Unattributed)
	}
	linDepth := map[string]int{}
	for _, p := range lin.Productions {
		if p.Restructured {
			t.Fatalf("linear run marked %s restructured", p.Name)
		}
		linDepth[p.Name] = p.ChainDepth
	}
	restructured := 0
	for _, p := range aut.Productions {
		if !p.Restructured {
			continue
		}
		restructured++
		ld, ok := linDepth[p.Name]
		if !ok {
			continue
		}
		// The balanced tree must shorten the longest root-to-P path, and the
		// fixed walk must still see a real (non-zero) depth through both
		// inputs.
		if p.ChainDepth == 0 || p.ChainDepth >= ld {
			t.Fatalf("%s: auto chain depth %d vs linear %d (left+right walk broken?)",
				p.Name, p.ChainDepth, ld)
		}
	}
	if restructured == 0 {
		t.Fatal("auto selected no cypress productions (26-CE chains should qualify)")
	}
}

// The flight ring must retain exactly the last FlightCycles cycles after
// wrapping, oldest first, each with its full task trace.
func TestFlightRingWraparound(t *testing.T) {
	const ringSize, cycles = 4, 10
	ec := profiled(2, &matchprof.Options{FlightCycles: ringSize})
	ec.CaptureTrace = true // keep the per-cycle log the ring is checked against
	e, _ := driveCypress(t, ec, cycles, nil)
	wantTasks := 0
	for _, cs := range e.CycleStats[cycles-ringSize:] {
		wantTasks += cs.Tasks
	}

	d := e.Prof.Trip("test trip")
	if d == nil || len(d.Cycles) != ringSize {
		t.Fatalf("dump has %d cycles, want %d", len(d.Cycles), ringSize)
	}
	gotTasks := 0
	for _, cd := range d.Cycles {
		gotTasks += len(cd.Trace)
	}
	if gotTasks != wantTasks {
		t.Fatalf("ring retains %d trace tasks, want %d (last %d cycles)", gotTasks, wantTasks, ringSize)
	}
	for i, cd := range d.Cycles {
		if want := int64(cycles - ringSize + i); cd.Cycle != want {
			t.Fatalf("dump cycle %d is engine cycle %d, want %d (oldest-first ordering)", i, cd.Cycle, want)
		}
		if len(cd.Trace) != cd.Tasks {
			t.Fatalf("dump cycle %d: %d trace entries for %d tasks", i, len(cd.Trace), cd.Tasks)
		}
	}
	if len(d.Events) == 0 {
		t.Fatal("dump has no trace events")
	}
	if e.Prof.LastDump() != d {
		t.Fatal("LastDump does not return the trip's dump")
	}
}

// A dump written to disk must read back equivalent to the in-memory one.
func TestDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, _ := driveCypress(t, profiled(2, &matchprof.Options{FlightCycles: 4, FlightDir: dir}), 6, nil)
	d := e.Prof.Trip("round trip")
	if d.Path == "" {
		t.Fatal("dump was not written to FlightDir")
	}
	rd, err := matchprof.ReadDump(d.Path)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Reason != d.Reason || len(rd.Cycles) != len(d.Cycles) || len(rd.Events) != len(d.Events) {
		t.Fatalf("reread dump differs: reason %q/%q, cycles %d/%d, events %d/%d",
			rd.Reason, d.Reason, len(rd.Cycles), len(d.Cycles), len(rd.Events), len(d.Events))
	}
	if rd.Snapshot == nil || rd.Snapshot.Totals.Acts != d.Snapshot.Totals.Acts {
		t.Fatal("reread snapshot totals differ")
	}
}

// Harvesting must be safe while cycles run: goroutines hammer Snapshot,
// Trip (which reads the whole ring) and LastDump against a live engine. Run
// with -race.
func TestConcurrentHarvest(t *testing.T) {
	sys := cypress.Generate(cypress.DefaultParams())
	ec := engine.DefaultConfig()
	ec.Processes = 4
	ec.Prof = &matchprof.Options{SampleEvery: 2, FlightCycles: 8}
	e := engine.New(ec)
	if err := e.LoadProgram(sys.Source); err != nil {
		t.Fatal(err)
	}
	drv := cypress.NewDriver(sys, e.Tab, e.WM)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := e.Prof.Snapshot()
				if snap == nil {
					t.Error("nil snapshot")
					return
				}
				e.Prof.Trip("harvest")
				e.Prof.LastDump()
			}
		}()
	}
	next := 0
	for cyc := 0; cyc < 60; cyc++ {
		if _, err := drv.Step(e, cyc, &next, true); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if acts := e.Prof.Snapshot().Totals.Acts; acts == 0 {
		t.Fatal("no activations recorded")
	}
}

// Scraping /debug/match while served sessions run cycles must be race-free
// and always return valid JSON with per-session and aggregate snapshots.
func TestServeDebugMatchConcurrent(t *testing.T) {
	srv := serve.New(serve.Config{Processes: 2, QueueDepth: 8, MaxSessions: 8, Obs: obs.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	var created struct {
		ID string `json:"id"`
	}
	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(`{"task":"cypress","cycles":0}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := http.Get(ts.URL + "/debug/match")
				if err != nil {
					t.Error(err)
					return
				}
				var out struct {
					Sessions  []*matchprof.Snapshot `json:"sessions"`
					Aggregate *matchprof.Snapshot   `json:"aggregate"`
				}
				err = json.NewDecoder(r.Body).Decode(&out)
				r.Body.Close()
				if err != nil {
					t.Errorf("bad /debug/match JSON: %v", err)
					return
				}
				if out.Aggregate == nil || len(out.Sessions) == 0 {
					t.Error("missing aggregate or sessions in /debug/match")
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		r, err := http.Post(ts.URL+"/sessions/"+created.ID+"/run", "application/json",
			strings.NewReader(`{"cycles":5,"chunking":true}`))
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("run: HTTP %d", r.StatusCode)
		}
		r.Body.Close()
	}
	close(done)
	wg.Wait()
}

// The fold is checked against counters it does not feed: rete's own
// NetStats, tallied inside Exec, and the runtime's task counter. After a
// cypress drive with chunk additions and one worker panic — a poisoned
// cycle, whose executed tasks still count, and its serial replay, which
// injects like any cycle and so emits only inside tasks — every
// activation, null activation and emitted token must be in exactly one
// cell, one depth bucket, one granularity bucket and one
// match_task_cost_us observation.
func TestFoldMatchesNetStats(t *testing.T) {
	for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
		for _, procs := range []int{1, 2, 4, 13} {
			t.Run(fmt.Sprintf("%v/procs=%d", pol, procs), func(t *testing.T) {
				o := &obs.Observer{Reg: obs.NewRegistry(), Trc: obs.NewTracer()}
				ec := profiled(procs, &matchprof.Options{SampleEvery: 4})
				ec.Policy, ec.Obs = pol, o
				ec.Fault = fault.Plan(fault.Fault{Site: fault.SiteExec, Kind: fault.KindPanic, Visit: 60})
				replayed := false
				sum := func(h []int64) (n int64) {
					for _, v := range h {
						n += v
					}
					return n
				}
				check := func(e *engine.Engine) {
					t.Helper()
					replayed = replayed || e.Totals.Recovered > 0
					for _, add := range e.Additions {
						replayed = replayed || add.Update.Recovered
					}
					s, st := e.Prof.Snapshot(), &e.NW.Stats
					if got, want := s.Totals.Acts, st.Activations.Load(); got != want {
						t.Fatalf("cycle %d: folded %d activations, Exec ran %d", e.Cycles(), got, want)
					}
					if got, want := s.Totals.Nulls, st.NullActs.Load(); got != want {
						t.Fatalf("cycle %d: folded %d null activations, Exec saw %d", e.Cycles(), got, want)
					}
					if got, want := s.Totals.Emitted, st.TokensEmitted.Load(); got != want {
						t.Fatalf("cycle %d: folded %d emitted tokens, Exec emitted %d", e.Cycles(), got, want)
					}
					if d, c := sum(s.DepthHist), sum(s.CostHist); d != s.Totals.Acts || c != s.Totals.Acts {
						t.Fatalf("cycle %d: depth histogram holds %d tasks, granularity %d, cells %d", e.Cycles(), d, c, s.Totals.Acts)
					}
					if got, want := o.Histogram("match_task_cost_us").Count(), o.Counter("match_tasks_total").Value(); got != want || int64(got) != s.Totals.Acts {
						t.Fatalf("cycle %d: match_task_cost_us holds %d observations for %d tasks, %d folded", e.Cycles(), got, want, s.Totals.Acts)
					}
				}
				e, _ := driveCypress(t, ec, 40, check)
				if !replayed {
					t.Fatal("the planned panic poisoned no cycle: the serial replay went unchecked")
				}
				if s := e.Prof.Snapshot().Totals; s.Samples == 0 || s.Samples != s.Acts {
					t.Fatalf("with a tracer attached every task is timed: %d samples for %d activations", s.Samples, s.Acts)
				}
			})
		}
	}
}

// One renderer: the task spans a reader gets from a -trace file's tracer
// (wall-clock) and from a flight dump of the same cycles (modeled) are the
// same spans.
func TestTracerAndFlightDumpRenderTheSameSpans(t *testing.T) {
	o := &obs.Observer{Reg: obs.NewRegistry(), Trc: obs.NewTracer()}
	ec := profiled(2, &matchprof.Options{FlightCycles: 64})
	ec.Obs = o
	e, _ := driveCypress(t, ec, 10, nil)
	type span struct {
		name string
		tid  int
		seq  float64
	}
	spans := func(evs []obs.Event) map[span]int {
		m := map[span]int{}
		for _, ev := range evs {
			if ev.Cat == "task" {
				m[span{ev.Name, ev.Tid, ev.Args["seq"].(float64)}]++
			}
		}
		return m
	}
	decode := func(b []byte) (evs []obs.Event) {
		t.Helper()
		if err := json.Unmarshal(b, &evs); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	var buf bytes.Buffer
	if err := o.Trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	live := spans(decode(buf.Bytes()))
	dumped, err := json.Marshal(e.Prof.Trip("compare").Events)
	if err != nil {
		t.Fatal(err)
	}
	flight := spans(decode(dumped))
	if len(live) == 0 || !reflect.DeepEqual(live, flight) {
		t.Fatalf("tracer renders %d distinct task spans, flight dump %d; want the same multiset", len(live), len(flight))
	}
}
