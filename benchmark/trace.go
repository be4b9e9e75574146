package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// runTraced is the -trace 1 run. It drives a quarter of the workload's
// script twice, slice by slice in turn: once with a span around every call
// the harness makes into a layer, once with spans off — the difference is
// the tracing overhead. It writes the spans out and then runs the layer
// suite. No end-to-end number is ever taken from a traced run.
func runTraced(w *workload, opt options, e *env, stderr io.Writer) (*result, error) {
	calibBefore := calibrate()
	s, _, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	rounds := w.rounds(opt) / 4
	if rounds < 2 {
		rounds = 2
	}
	traced, plain := &phase{rec: newRecorder(true)}, &phase{rec: newRecorder(false)}
	timedPhases(s, rounds, w.slice(), traced, plain)
	s.close()
	path, err := writeTrace(opt.out, w.name, traced.rec.spans)
	if err != nil {
		return nil, err
	}
	if traced.rec.work == 0 || plain.rec.work == 0 {
		return nil, fmt.Errorf("%s: no work completed in the traced pass: %v", w.name, traced.rec.firstErr)
	}

	suite, err := runSuite(e)
	if err != nil {
		return nil, err
	}
	suite.absorb(traced.rec)
	suite.absorb(plain.rec)
	t := suite.t
	t.set("serve.stale_responses", float64(suite.stale), "count")
	t.set("bench.trace_overhead_pct", (ratio(plain.rawWorkPerSec(), traced.rawWorkPerSec())-1)*100, "%")
	var ref refReadings
	for _, ph := range []*phase{traced, plain} {
		ref.chase = append(ref.chase, ph.ref.chase...)
		ref.sort = append(ref.sort, ph.ref.sort...)
	}
	t.set("host.speed_ratio", ref.slowdown(), "ratio")
	calibAfter := calibrate()
	t.set("host.nproc", float64(runtime.NumCPU()), "count")
	t.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	t.set("host.calib_ms_before", calibBefore, "ms")
	t.set("host.calib_ms_after", calibAfter, "ms")

	fmt.Fprintf(stderr, "== %s seed=%d traced rounds=%d: %d spans -> %s\n", w.name, opt.seed, rounds, len(traced.rec.spans), path)
	printSpanTable(stderr, traced)
	fmt.Fprintf(stderr, "== layers (suite ops: %d attempted, %d failed)\n", suite.attempted, suite.failed)
	if suite.firstErr != nil {
		fmt.Fprintf(stderr, "   first failure: %v\n", suite.firstErr)
	}
	printMetrics(stderr, t, perLayerNames)
	fmt.Fprintf(stderr, "   host %s%s\n", cpuModel(), driftNote(calibBefore, calibAfter))
	for _, n := range perLayerNames {
		if _, ok := t[n]; !ok {
			return nil, fmt.Errorf("layer suite did not produce %s", n)
		}
	}
	if len(t) != len(perLayerNames) {
		return nil, fmt.Errorf("layer suite produced %d metrics, perLayerNames lists %d", len(t), len(perLayerNames))
	}
	return &result{Correct: suite.failed == 0, Attempted: suite.attempted, Failed: suite.failed, Metrics: t}, nil
}

// printSpanTable is the traced workload's own table: per span name, how
// many there were, their summed time and its share of the timed phase, and
// the median. A round's self time is its span minus the rows below it.
func printSpanTable(w io.Writer, ph *phase) {
	by := map[string][]time.Duration{}
	for _, sp := range ph.rec.spans {
		by[sp.Name] = append(by[sp.Name], sp.dur())
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   %-24s %8s %12s %7s %12s\n", "span", "count", "total_ms", "share", "p50_us")
	for _, n := range names {
		var total time.Duration
		for _, d := range by[n] {
			total += d
		}
		fmt.Fprintf(w, "   %-24s %8d %12.2f %6.1f%% %12.1f\n", n, len(by[n]), ms(total),
			100*total.Seconds()/ph.wall.Seconds(), us(median(by[n])))
	}
}

// perLayerNames is the per-layer table, in print order; BENCHMARK.json's
// per_layer list names exactly these (metrics_test.go holds them equal).
var perLayerNames = []string{
	"ops5.parse_ms",
	"rete.compile_ms", "rete.two_input_nodes", "rete.productions",
	"rete.comparisons_per_task", "rete.tokens_per_task", "rete.null_act_share", "rete.null_suppressed_share",
	"rete.const_tests_per_delta", "rete.alpha_hit_share", "rete.line_lock_spins_per_acquire", "rete.mem_entries",
	"rete.tombstones_after_round",
	"prun.tasks_per_cycle", "prun.ns_per_task", "prun.cycle_us_p50.strips", "prun.cycle_us_p50.eight",
	"prun.cycle_us_p50.cypress", "prun.speedup_vs_serial", "prun.mq_over_ws", "prun.failed_pops_per_task",
	"prun.steals_per_task", "prun.term_probes_per_cycle", "prun.queue_lock_spins_per_acquire", "prun.workers_avg",
	"wme.apply_us_per_delta",
	"conflict.select_us", "conflict.size", "conflict.stale_insts", "serve.stale_responses",
	"engine.match_share", "engine.apply_match_us_per_batch.b1", "engine.apply_match_us_per_batch.b8",
	"engine.add_compile_ms_per_chunk", "engine.update_tasks_per_chunk", "engine.new_from_image_ms",
	"engine.image_cache_hit_share",
	"soar.nonmatch_ms_per_decision", "soar.elab_cycles_per_decision", "soar.decisions_per_solve",
	"chunk.built_per_solve", "chunk.ces_avg", "soar.diverged_solves",
	"serve.run_ms_p99.b1", "serve.run_ms_p99.b8", "serve.overhead_us_per_request.b1",
	"serve.overhead_us_per_request.b8", "serve.decode_us", "serve.encode_us", "serve.allocs_per_request.b1",
	"serve.allocs_per_request.b8", "serve.create_warm_ms_p50", "serve.create_cold_ms", "serve.delete_ms_p50",
	"serve.rejected_429", "serve.heap_growth_kb_per_request",
	"serve.wal_fsync_ms_mean", "serve.wal_bytes_per_delta", "serve.wal_appends_per_request",
	"serve.wal_cost_us_per_request",
	"snapshot.save_ms_p50", "snapshot.bytes", "snapshot.encode_ms", "snapshot.decode_ms",
	"snapshot.restore_warm_ms", "serve.restore_ms_p50", "serve.restore_replayed",
	"matchprof.overhead_pct", "obs.overhead_pct",
	"host.nproc", "host.gomaxprocs", "host.calib_ms_before", "host.calib_ms_after", "host.speed_ratio",
	"bench.trace_overhead_pct",
}
