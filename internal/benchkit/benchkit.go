// Package benchkit holds the benchmark trajectory harness: the capture+
// replay benchmark cases shared by the repo's `go test -bench` suite
// (bench_test.go delegates BenchmarkPolicyReplay here) and by cmd/benchjson,
// which runs them with testing.Benchmark and appends the results to the
// perf-trajectory JSON files compared by CI's bench-regression leg.
package benchkit

import (
	"fmt"
	"sync"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/exp"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/wme"
)

// Case is one named benchmark.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// replayCfg identifies one captured run; captures are cached so that
// testing.Benchmark's repeated calibration calls (growing b.N) pay the
// solve cost once.
type replayCfg struct {
	task   string
	pol    prun.Policy
	unlink bool
	// prof installs the always-on match-cost attribution counters
	// (internal/matchprof, flight recorder off) — the ProfilingCases pair
	// measures their hot-path overhead against the unprofiled twin.
	prof bool
	// org selects the bilinear restructuring mode; the BilinearCases pair
	// measures the off-vs-auto replay cost on the long-chain workload.
	org rete.Organization
}

// capturedRun is a workload solved to quiescence plus its replayable
// wme-delta trajectory (forward and inverse).
type capturedRun struct {
	eng *engine.Engine
	fwd [][]wme.Delta
	inv [][]wme.Delta
}

var (
	capMu    sync.Mutex
	captures = map[replayCfg]*capturedRun{}
)

// inverseBatches undoes captured batches: reverse order, Add<->Remove.
func inverseBatches(batches [][]wme.Delta) [][]wme.Delta {
	inv := make([][]wme.Delta, 0, len(batches))
	for i := len(batches) - 1; i >= 0; i-- {
		src := batches[i]
		out := make([]wme.Delta, 0, len(src))
		for j := len(src) - 1; j >= 0; j-- {
			d := src[j]
			op := wme.Add
			if d.Op == wme.Add {
				op = wme.Remove
			}
			out = append(out, wme.Delta{Op: op, WME: d.WME})
		}
		inv = append(inv, out)
	}
	return inv
}

func engCfg(cfg replayCfg) engine.Config {
	ec := engine.DefaultConfig()
	ec.Processes = 4
	ec.Policy = cfg.pol
	ec.Rete.Unlink = cfg.unlink
	ec.Rete.Organization = cfg.org
	if cfg.prof {
		ec.Prof = &matchprof.Options{FlightCycles: -1}
	}
	return ec
}

// captureSoar solves a Soar task once, recording every applied batch.
func captureSoar(tb testing.TB, cfg replayCfg, mk func() *soar.Task) *capturedRun {
	sc := soar.Config{Engine: engCfg(cfg), MaxDecisions: 400}
	a, err := soar.New(sc, mk())
	if err != nil {
		tb.Fatal(err)
	}
	var batches [][]wme.Delta
	a.Eng.OnApply = func(ds []wme.Delta) {
		batches = append(batches, append([]wme.Delta(nil), ds...))
	}
	res, err := a.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if !res.Halted {
		tb.Fatal("did not solve")
	}
	a.Eng.OnApply = nil
	return &capturedRun{eng: a.Eng, fwd: batches, inv: inverseBatches(batches)}
}

// captureCypress drives the chunk-heavy synthetic workload (26 chunks added
// at their scripted points), recording every applied batch.
func captureCypress(tb testing.TB, cfg replayCfg) *capturedRun {
	sys := cypress.Generate(cypress.Params{Productions: 100, Cycles: 50, Chunks: 26})
	e := engine.New(engCfg(cfg))
	if err := e.LoadProgram(sys.Source); err != nil {
		tb.Fatal(err)
	}
	var batches [][]wme.Delta
	e.OnApply = func(ds []wme.Delta) {
		batches = append(batches, append([]wme.Delta(nil), ds...))
	}
	drv := cypress.NewDriver(sys, e.Tab, e.WM)
	next := 0
	for cyc := 0; cyc < sys.Params.Cycles; cyc++ {
		e.ApplyAndMatch(drv.Batch())
		for next < len(drv.ChunkAt) && drv.ChunkAt[next] == cyc {
			ast, err := sys.ParseChunk(next, e.Tab)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := e.AddProductionRuntime(ast); err != nil {
				tb.Fatal(err)
			}
			next++
		}
	}
	e.OnApply = nil
	return &capturedRun{eng: e, fwd: batches, inv: inverseBatches(batches)}
}

func capture(tb testing.TB, cfg replayCfg) *capturedRun {
	capMu.Lock()
	defer capMu.Unlock()
	if c, ok := captures[cfg]; ok {
		return c
	}
	var c *capturedRun
	switch cfg.task {
	case "eight-puzzle":
		c = captureSoar(tb, cfg, func() *soar.Task { return eightpuzzle.Task(eightpuzzle.Scramble(12, 18)) })
	case "strips":
		c = captureSoar(tb, cfg, strips.Default)
	case "cypress":
		c = captureCypress(tb, cfg)
	default:
		tb.Fatalf("benchkit: unknown task %q", cfg.task)
	}
	captures[cfg] = c
	return c
}

// replayBench is the benchmark body: each iteration replays the trajectory
// backward then forward through the live match runtime (rete add/remove
// cancellation restores the state exactly), so allocs/op isolates the match
// hot path. Reported extras: tasks/op (beta activations scheduled and
// executed per replay) and suppressed/op (null activations the unlink
// filter executed inline instead).
func replayBench(cfg replayCfg) func(b *testing.B) {
	return func(b *testing.B) {
		c := capture(b, cfg)
		eng := c.eng
		executed := 0
		supp0 := eng.NW.Stats.NullSuppressed.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, batch := range c.inv {
				executed += eng.RT.RunCycle(batch).Tasks
			}
			for _, batch := range c.fwd {
				executed += eng.RT.RunCycle(batch).Tasks
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(executed)/secs, "tasks/sec")
		}
		// One op = one inverse+forward double replay.
		b.ReportMetric(float64(executed)/float64(b.N), "tasks/op")
		b.ReportMetric(float64(eng.NW.Stats.NullSuppressed.Load()-supp0)/float64(b.N), "suppressed/op")
		if n := eng.NW.Mem.Tombstones(); n != 0 {
			b.Fatalf("%d tombstones after replay", n)
		}
	}
}

// PolicyReplayCases is the policy × workload × unlink replay matrix:
// MultiQueue (the paper's scheduler) vs WorkStealing, with the unlink
// null-activation filter off (the paper's engine) and on.
func PolicyReplayCases() []Case {
	var out []Case
	for _, task := range []string{"eight-puzzle", "strips", "cypress"} {
		for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
			for _, unlink := range []bool{false, true} {
				cfg := replayCfg{task: task, pol: pol, unlink: unlink}
				out = append(out, Case{
					Name:  fmt.Sprintf("%s/%v/unlink=%v", task, pol, unlink),
					Bench: replayBench(cfg),
				})
			}
		}
	}
	return out
}

// ProfilingCases is the eight-puzzle replay bench twice: with the match
// profiler's always-on attribution counters installed and without. The two
// cases share everything else, so the ns/op ratio is the profiler's
// hot-path overhead; cmd/benchjson gates it at 5% (a row of its gate table).
func ProfilingCases() []Case {
	base := replayCfg{task: "eight-puzzle", pol: prun.WorkStealing, unlink: true}
	on := base
	on.prof = true
	return []Case{
		{Name: "Profiling/eight-puzzle/off", Bench: replayBench(base)},
		{Name: "Profiling/eight-puzzle/on", Bench: replayBench(on)},
	}
}

// BilinearCases is the cypress long-chain replay bench twice: with the
// automatic bilinear restructuring pass off (linear join chains) and in
// auto mode (balanced pair-join trees). Everything else is shared.
// Restructuring multiplies tasks/op by design — that is the paper's
// work-for-parallelism trade — so cmd/benchjson gates the pair on per-task
// ns (ns/op ÷ tasks/op) at +10%, pinning down that the
// extra serial wall-clock is purely more tasks, not heavier ones.
func BilinearCases() []Case {
	base := replayCfg{task: "cypress", pol: prun.WorkStealing, unlink: true}
	auto := base
	auto.org = rete.BilinearAuto
	return []Case{
		{Name: "Bilinear/cypress/bilinear=off", Bench: replayBench(base)},
		{Name: "Bilinear/cypress/bilinear=auto", Bench: replayBench(auto)},
	}
}

// FigureCases regenerates the network-shape figures whose pipelines lean
// hardest on the match engine (long-chain and bilinear ablations) — the
// Fig 6-7/6-8 legs of the trajectory harness.
func FigureCases() []Case {
	var (
		labOnce sync.Once
		lab     *exp.Lab
	)
	sharedLab := func() *exp.Lab {
		labOnce.Do(func() { lab = exp.NewLab() })
		return lab
	}
	return []Case{
		{Name: "Fig6_7_LongChainProductions", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig67(sharedLab()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "Fig6_8_BilinearAblation", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig68(sharedLab()); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}
