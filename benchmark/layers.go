package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"soarpsme/internal/engine"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/obs"
	"soarpsme/internal/ops5"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/serve"
	"soarpsme/internal/snapshot"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// This file is the layer suite of a traced run: the isolation passes that
// drive each layer's public functions on the same seeded inputs the
// workloads use, one layer down from where the workloads enter, so that a
// layer's own cost is its span minus the layer below on identical input.
// The suite is the same whichever workload is being traced; every traced
// run therefore reports the whole per-layer table. README.md maps each
// metric to the end-to-end metric and workload it should move.

// layerTable is the per-layer result of a traced run.
type layerTable map[string]metric

func (t layerTable) set(name string, v float64, unit string) { t[name] = metric{Value: v, Unit: unit} }

// suite carries the table and the op accounting of every pass.
type suite struct {
	e *env
	t layerTable
	// reps is the number of interleaved rounds behind every A-versus-B
	// ratio and every median.
	reps int
	// rejected sums the servers' 429 counters over every pass.
	rejected float64
	// stale sums the served fingerprints that held a stale instantiation.
	stale     int
	attempted int
	failed    int
	firstErr  error
}

func (s *suite) absorb(rec *recorder) {
	s.attempted += rec.attempted
	s.failed += rec.failed
	s.stale += rec.stale
	if s.firstErr == nil {
		s.firstErr = rec.firstErr
	}
}

// check counts one suite-level oracle.
func (s *suite) check(err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
}

func runSuite(e *env) (*suite, error) {
	s := &suite{e: e, t: layerTable{}, reps: 6}
	if e.quick {
		s.reps = 2
	}
	for _, pass := range []struct {
		name string
		fn   func() error
	}{
		{"build", s.passBuild},
		{"replay", s.passReplay},
		{"soar", s.passSoar},
		{"ingest", s.passIngest},
		{"failover", s.passFailover},
		{"snapshot", s.passSnapshot},
	} {
		if err := pass.fn(); err != nil {
			return nil, fmt.Errorf("layer pass %s: %w", pass.name, err)
		}
	}
	return s, nil
}

// medianOf runs fn reps times and returns the median of the times it
// reports.
func medianOf(reps int, fn func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

// timed adapts a function that is timed whole to medianOf.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- ops5 and rete (build) ----

// passBuild parses and compiles every program the workloads load: the two
// Soar task sources of match-replay, the failover session's cypress
// program and the ingest program. Compile time is engine.CompileProgram
// minus the parse it contains.
func (s *suite) passBuild() error {
	srcs := []string{
		strips.Default().Source,
		eightpuzzle.Task(eightpuzzle.Instances()[4]).Source,
		cypress.Generate(failoverCypress(s.e.seed, 0)).Source,
		serve.IngestProgram,
	}
	var parse, compile time.Duration
	nodes, prods := 0, 0
	for _, src := range srcs {
		p, err := medianOf(5, timed(func() error {
			_, err := ops5.Parse(src, value.NewTable())
			return err
		}))
		if err != nil {
			return err
		}
		var img *engine.ProgramImage
		c, err := medianOf(5, timed(func() error {
			var err error
			img, err = engine.CompileProgram(src, rete.DefaultOptions())
			return err
		}))
		if err != nil {
			return err
		}
		parse += p
		if c > p {
			compile += c - p
		}
		nodes += img.Top.TwoInputNodes()
		prods += img.Productions()
	}
	s.t.set("ops5.parse_ms", ms(parse), "ms")
	s.t.set("rete.compile_ms", ms(compile), "ms")
	s.t.set("rete.two_input_nodes", float64(nodes), "count")
	s.t.set("rete.productions", float64(prods), "count")
	return nil
}

// ---- rete (exec), prun, conflict, matchprof, obs ----

// Indices into a reading of the network's exported work counters.
const (
	rcConstTests = iota
	rcActs
	rcComps
	rcTokens
	rcNullActs
	rcNullSupp
	rcAlphaHit
	rcAlphaMiss
	rcLineSpins
	rcLineAcqs
	rcN
)

func readRete(nw *rete.Network) (c [rcN]float64) {
	st := &nw.Stats
	spins, acqs := nw.Mem.LockStats()
	for i, v := range [rcN]int64{
		rcConstTests: st.ConstTests.Load(), rcActs: st.Activations.Load(), rcComps: st.Comparisons.Load(),
		rcTokens: st.TokensEmitted.Load(), rcNullActs: st.NullActs.Load(), rcNullSupp: st.NullSuppressed.Load(),
		rcAlphaHit: st.AlphaHits.Load(), rcAlphaMiss: st.AlphaMisses.Load(),
		rcLineSpins: int64(spins), rcLineAcqs: int64(acqs),
	} {
		c[i] = float64(v)
	}
	return c
}

// cycleSums totals prun.CycleStats over replayed cycles.
type cycleSums struct {
	cycles, tasks, workers, failedPops, steals, termProbes, fails float64
	time                                                          time.Duration
	perCycle                                                      []time.Duration
}

func (sum *cycleSums) add(cs prun.CycleStats, d time.Duration) {
	sum.cycles++
	sum.tasks += float64(cs.Tasks)
	sum.workers += float64(cs.Workers)
	sum.failedPops += float64(cs.FailedPops)
	sum.steals += float64(cs.Steals)
	sum.termProbes += float64(cs.TermProbes)
	sum.time += d
	sum.perCycle = append(sum.perCycle, d)
	if cs.Failed {
		sum.fails++
	}
}

// replay drives one inverse+forward pass of a trajectory through rt and
// returns its wall time. each, when set, runs after every cycle inside the
// timed region.
func replay(t *trajectory, rt *prun.Runtime, each func(cs prun.CycleStats, d time.Duration)) time.Duration {
	t0 := time.Now()
	for _, pass := range [][][]wme.Delta{t.inv, t.fwd} {
		for _, batch := range pass {
			c0 := time.Now()
			cs := rt.RunCycle(batch)
			if each != nil {
				each(cs, time.Since(c0))
			}
		}
	}
	return time.Since(t0)
}

// passReplay is match-replay one layer down and sideways: the same three
// trajectories at two workers under work-stealing with the network's
// counters read around each round, and — on strips, rounds interleaved —
// the same trajectory at one worker, under multi-queue, with the match
// profiler installed and with obs hooks attached.
func (s *suite) passReplay() error {
	trajs, err := captureAll(engine.DefaultConfig(), s.e.seed)
	if err != nil {
		return err
	}
	profCfg := engine.DefaultConfig()
	profCfg.Prof = &matchprof.Options{SampleEvery: 64, FlightCycles: 16}
	profiled, err := captureSoar("strips", profCfg, strips.Default)
	if err != nil {
		return err
	}
	ws := func(nw *rete.Network, procs int, pol prun.Policy, capture bool) *prun.Runtime {
		return prun.New(nw, prun.Config{Processes: procs, Policy: pol, CaptureTrace: capture})
	}

	// All three trajectories at the match-replay configuration.
	var rc [rcN]float64
	var all cycleSums
	changes, stale, tombs, entries := 0, 0, 0, 0
	for _, t := range trajs {
		rt := ws(t.eng.NW, matchWorkers, prun.WorkStealing, false)
		l, r := t.eng.NW.Mem.Entries()
		entries += l + r
		first := len(all.perCycle)
		before := readRete(t.eng.NW)
		for rep := 0; rep < s.reps; rep++ {
			replay(t, rt, all.add)
			changes += t.changes
			s.check(t.check())
			stale += t.stale
			tombs += t.eng.NW.Mem.Tombstones()
		}
		for i, v := range readRete(t.eng.NW) {
			rc[i] += v - before[i]
		}
		s.t.set("prun.cycle_us_p50."+t.name, us(median(all.perCycle[first:])), "us")
	}
	if all.fails > 0 {
		s.check(fmt.Errorf("%.0f replay cycles failed", all.fails))
	}
	s.t.set("rete.comparisons_per_task", ratio(rc[rcComps], all.tasks), "count")
	s.t.set("rete.tokens_per_task", ratio(rc[rcTokens], all.tasks), "count")
	s.t.set("rete.null_act_share", ratio(rc[rcNullActs], rc[rcActs]), "share")
	s.t.set("rete.null_suppressed_share", ratio(rc[rcNullSupp], rc[rcActs]+rc[rcNullSupp]), "share")
	s.t.set("rete.const_tests_per_delta", ratio(rc[rcConstTests], float64(changes)), "count")
	s.t.set("rete.alpha_hit_share", ratio(rc[rcAlphaHit], rc[rcAlphaHit]+rc[rcAlphaMiss]), "share")
	s.t.set("rete.line_lock_spins_per_acquire", ratio(rc[rcLineSpins], rc[rcLineAcqs]), "count")
	s.t.set("rete.mem_entries", float64(entries), "count")
	s.t.set("rete.tombstones_after_round", float64(tombs), "count")
	s.t.set("conflict.stale_insts", float64(stale), "count")
	s.t.set("prun.tasks_per_cycle", ratio(all.tasks, all.cycles), "count")
	s.t.set("prun.ns_per_task", ratio(float64(all.time.Nanoseconds()), all.tasks), "ns")
	s.t.set("prun.failed_pops_per_task", ratio(all.failedPops, all.tasks), "count")
	s.t.set("prun.steals_per_task", ratio(all.steals, all.tasks), "count")
	s.t.set("prun.term_probes_per_cycle", ratio(all.termProbes, all.cycles), "count")
	s.t.set("prun.workers_avg", ratio(all.workers, all.cycles), "count")

	// Strips, five ways, rounds interleaved so host drift hits all alike.
	st := trajs[0]
	base := ws(st.eng.NW, matchWorkers, prun.WorkStealing, false)
	serial := ws(st.eng.NW, 1, prun.WorkStealing, false)
	mq := ws(st.eng.NW, matchWorkers, prun.MultiQueue, false)
	observed := ws(st.eng.NW, matchWorkers, prun.WorkStealing, false)
	observed.SetObserver(obs.New().MatchHooks(0))
	// The engine turns trace capture on whenever the flight recorder is,
	// and hands every finished cycle to the profiler.
	prof := ws(profiled.eng.NW, matchWorkers, prun.WorkStealing, true)
	cycle := int64(0)
	endProf := func(cs prun.CycleStats, d time.Duration) {
		profiled.eng.Prof.EndCycle(matchprof.CycleEvent{Cycle: cycle, Dur: d, Stats: cs})
		cycle++
	}
	// Each ratio is the median over the rounds of that round's ratio, so one
	// disturbed replay moves one sample, not the sum.
	var speedup, mqOverWS, obsOver, profOver []float64
	for rep := 0; rep < 2*s.reps; rep++ {
		tBase := replay(st, base, nil).Seconds()
		speedup = append(speedup, replay(st, serial, nil).Seconds()/tBase)
		mqOverWS = append(mqOverWS, tBase/replay(st, mq, nil).Seconds())
		obsOver = append(obsOver, replay(st, observed, nil).Seconds()/tBase)
		profOver = append(profOver, replay(profiled, prof, endProf).Seconds()/tBase)
	}
	s.check(st.check())
	s.check(profiled.check())
	s.t.set("prun.speedup_vs_serial", medianFloat(speedup), "ratio")
	s.t.set("prun.mq_over_ws", medianFloat(mqOverWS), "ratio")
	spins, acqs := mq.QueueLockStats()
	s.t.set("prun.queue_lock_spins_per_acquire", ratio(float64(spins), float64(acqs)), "count")
	s.t.set("obs.overhead_pct", (medianFloat(obsOver)-1)*100, "%")
	s.t.set("matchprof.overhead_pct", (medianFloat(profOver)-1)*100, "%")

	// Conflict resolution on the set the strips solve ends with. Each
	// Select marks its winner fired, so successive calls walk down the set.
	cs := st.eng.CS
	s.t.set("conflict.size", float64(cs.Len()), "count")
	var sel []time.Duration
	for i := 0; i < cs.Len(); i++ {
		t0 := time.Now()
		in := cs.Select(st.eng.Strategy())
		sel = append(sel, time.Since(t0))
		if in == nil {
			break
		}
	}
	s.t.set("conflict.select_us", us(median(sel)), "us")
	return nil
}

// ---- soar, chunk, engine (learning path) ----

// passSoar solves the seven soar-learn tasks once at the workload's
// configuration with the engine's public OnApply/AfterCycle hooks timing
// every match, and once at one process as the reference the decision
// counts are compared with.
func (s *suite) passSoar() error {
	cfg := soarConfig(matchWorkers, prun.MultiQueue)
	ref := soarConfig(1, prun.MultiQueue)
	var solveT, matchT, compileT time.Duration
	decisions, elabs, chunks, ces, solves, diverged, updateTasks, additions := 0, 0, 0, 0, 0, 0, 0, 0
	for _, t := range soarTasks() {
		a, err := soarAgentHooked(cfg, t, &matchT)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := a.Run()
		solveT += time.Since(t0)
		if err == nil && !res.Halted {
			err = errUnsolved
		}
		s.check(err)
		if err != nil {
			continue
		}
		_, want, err := solve(ref, t)
		if err != nil {
			return fmt.Errorf("serial reference for %s: %w", t.name, err)
		}
		if res.Halted != want.Halted || res.Decisions != want.Decisions || res.ElabCycles != want.ElabCycles {
			diverged++
		}
		solves++
		decisions += res.Decisions
		elabs += res.ElabCycles
		chunks += res.ChunksBuilt
		for _, n := range res.ChunkCEs {
			ces += n
		}
		for _, add := range a.Eng.Additions {
			compileT += add.CompileTime
			updateTasks += add.Update.Tasks
			additions++
		}
	}
	s.t.set("engine.match_share", ratio(matchT.Seconds(), solveT.Seconds()), "share")
	s.t.set("engine.add_compile_ms_per_chunk", ratio(ms(compileT), float64(additions)), "ms")
	s.t.set("engine.update_tasks_per_chunk", ratio(float64(updateTasks), float64(additions)), "count")
	s.t.set("soar.nonmatch_ms_per_decision", ratio(ms(solveT-matchT), float64(decisions)), "ms")
	s.t.set("soar.elab_cycles_per_decision", ratio(float64(elabs), float64(decisions)), "count")
	s.t.set("soar.decisions_per_solve", ratio(float64(decisions), float64(solves)), "count")
	s.t.set("chunk.built_per_solve", ratio(float64(chunks), float64(solves)), "count")
	s.t.set("chunk.ces_avg", ratio(float64(ces), float64(chunks)), "count")
	s.t.set("soar.diverged_solves", float64(diverged), "count")
	return nil
}

// ---- wme, engine (ingest path), serve, WAL ----

// serverEngineConfig is the engine configuration serve builds for a
// session under psmedConfig, so the direct pass below runs the layer under
// the handler exactly as the handler runs it.
func serverEngineConfig() engine.Config {
	ecfg := engine.DefaultConfig()
	ecfg.Processes = 4
	ecfg.Policy = prun.WorkStealing
	ecfg.Budget = prun.NewBudget(matchWorkers)
	ecfg.Obs = obs.New()
	ecfg.Prof = &matchprof.Options{SampleEvery: 64, FlightCycles: 16}
	return ecfg
}

// ingestDeltas resolves one batch of the stream against a working memory,
// as serve.IngestBaseline does: adds make new wmes (appended to *added),
// removes name the AddIdx-th add.
func ingestDeltas(ops []serve.IngestOp, mem *wme.Memory, class func(string) value.Sym, added *[]*wme.WME) []wme.Delta {
	ds := make([]wme.Delta, 0, len(ops))
	for _, op := range ops {
		if op.Remove {
			ds = append(ds, wme.Delta{Op: wme.Remove, WME: (*added)[op.AddIdx]})
			continue
		}
		fields := make([]value.Value, len(op.Fields))
		for j, f := range op.Fields {
			fields[j] = value.IntVal(int64(f))
		}
		w := mem.Make(class(op.Class), fields)
		*added = append(*added, w)
		ds = append(ds, wme.Delta{Op: wme.Add, WME: w})
	}
	return ds
}

// ingestDirect pushes the chopped stream through engine.ApplyAndMatch the
// way a session does, and returns the per-batch latencies and how many
// batches left a stale instantiation behind (fingerprintSurplus).
func ingestDirect(batches [][]serve.IngestOp, baseline []string) (lat []time.Duration, stale int, err error) {
	e := engine.New(serverEngineConfig())
	if err := e.LoadProgram(serve.IngestProgram); err != nil {
		return nil, 0, err
	}
	var added []*wme.WME
	for i, ops := range batches {
		ds := ingestDeltas(ops, e.WM, e.Tab.Intern, &added)
		t0 := time.Now()
		cs := e.ApplyAndMatch(ds)
		lat = append(lat, time.Since(t0))
		surplus, ok := fingerprintSurplus(serve.Fingerprint(e), baseline[i])
		if cs.Failed || !ok {
			return nil, 0, fmt.Errorf("direct ingest batch %d: failed=%v or fingerprint differs from the serial reference", i, cs.Failed)
		}
		if surplus > 0 {
			stale++
		}
	}
	return lat, stale, nil
}

// wmeApply times working memory alone on the stream: Insert and Delete
// against a fresh wme.Memory, no match. The wmes are made beforehand.
func wmeApply(stream []serve.IngestOp) (time.Duration, error) {
	tab := value.NewTable()
	return medianOf(5, func() (time.Duration, error) {
		mem := wme.NewMemory()
		var added []*wme.WME
		ds := ingestDeltas(stream, mem, tab.Intern, &added)
		t0 := time.Now()
		for _, d := range ds {
			if d.Op == wme.Add {
				if err := mem.Insert(d.WME); err != nil {
					return 0, err
				}
			} else if !mem.Delete(d.WME) {
				return 0, fmt.Errorf("wme: remove of wme %d found nothing", d.WME.ID)
			}
		}
		return time.Since(t0), nil
	})
}

// spanDurations pulls the durations of one span name out of a trace.
func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp.dur())
		}
	}
	return out
}

func counter(o *obs.Observer, name string) float64 { return float64(o.Counter(name).Value()) }

// ingestRounds runs rounds of a single-client ingest script with spans on
// and returns its /run latencies, mallocs per request and requests issued.
func (s *suite) ingestRounds(sc *serveIngest, rounds int) (lat []time.Duration, allocsPerReq float64, requests int) {
	var m0, m1 runtime.MemStats
	rec := newRecorder(true)
	runtime.ReadMemStats(&m0)
	sc.run(rounds, rec)
	runtime.ReadMemStats(&m1)
	s.absorb(rec)
	return spanDurations(rec.spans, "run"), ratio(float64(m1.Mallocs-m0.Mallocs), float64(rec.attempted)), rec.attempted
}

func (s *suite) passIngest() error {
	b1 := shapeB1
	b8 := ingestShape{clients: 1, deltas: shapeB8.deltas, batch: shapeB8.batch}
	b8wal := b8
	b8wal.durable, b8wal.snapshot = true, shapeB8.snapshot

	stream := ingestStream(s.e.seed, b1.deltas)
	apply, err := wmeApply(stream)
	if err != nil {
		return err
	}
	s.t.set("wme.apply_us_per_delta", ratio(us(apply), float64(len(stream))), "us")

	type variant struct {
		tag   string
		shape ingestShape
		sc    *serveIngest
		lat   []time.Duration
	}
	vs := []*variant{{tag: "b1", shape: b1}, {tag: "b8", shape: b8}, {tag: "wal", shape: b8wal}}
	for _, v := range vs {
		if v.sc, err = newServeIngest(s.e, v.shape); err != nil {
			return err
		}
		defer v.sc.close()
		warm := newRecorder(false)
		v.sc.run(1, warm)
		s.absorb(warm)
	}

	// The handler passes: b1 alone (it also feeds the heap-growth and JSON
	// numbers), then b8 with and without the WAL, rounds interleaved.
	vb1, vb8, vwal := vs[0], vs[1], vs[2]
	var heap0, heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)
	lat, allocs, reqs := s.ingestRounds(vb1.sc, s.reps)
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	vb1.lat = lat
	s.t.set("serve.allocs_per_request.b1", allocs, "count")
	s.t.set("serve.heap_growth_kb_per_request", ratio((float64(heap1.HeapInuse)-float64(heap0.HeapInuse))/1024, float64(reqs)), "KB")
	var allocs8 float64
	for rep := 0; rep < s.reps; rep++ {
		l, a, _ := s.ingestRounds(vb8.sc, 1)
		vb8.lat = append(vb8.lat, l...)
		allocs8 += a
		l, _, _ = s.ingestRounds(vwal.sc, 1)
		vwal.lat = append(vwal.lat, l...)
	}
	s.t.set("serve.allocs_per_request.b8", allocs8/float64(s.reps), "count")
	// One more b1 round keeps its bodies for the codec pass below; it runs
	// after the heap readings so the kept bytes do not count as growth.
	vb1.sc.capture = &ioCapture{}
	s.ingestRounds(vb1.sc, 1)

	// One layer down: the same batches through engine.ApplyAndMatch.
	for _, v := range []*variant{vb1, vb8} {
		var direct []time.Duration
		for rep := 0; rep < s.reps; rep++ {
			d, stale, err := ingestDirect(v.sc.batches, v.sc.baseline)
			s.check(err)
			s.stale += stale
			direct = append(direct, d...)
		}
		eng := median(direct)
		req := sortedCopy(v.lat)
		s.t.set("engine.apply_match_us_per_batch."+v.tag, us(eng), "us")
		s.t.set("serve.run_ms_p99."+v.tag, ms(percentile(req, 99)), "ms")
		s.t.set("serve.overhead_us_per_request."+v.tag, us(percentile(req, 50)-eng), "us")
	}
	s.t.set("serve.wal_cost_us_per_request",
		us(median(vwal.lat)-median(vb8.lat)), "us")
	o := vwal.sc.obs
	fsync := o.Histogram("serve_wal_fsync_seconds")
	appends := counter(o, "serve_wal_appends_total")
	s.t.set("serve.wal_fsync_ms_mean", ratio(fsync.Sum()*1000, float64(fsync.Count())), "ms")
	s.t.set("serve.wal_bytes_per_delta", ratio(counter(o, "serve_wal_bytes_total"), appends*float64(b8.batch)), "B")
	s.t.set("serve.wal_appends_per_request", ratio(appends, float64(len(vwal.lat))+float64(len(vwal.sc.batches))), "count")
	s.rejected += counter(vb1.sc.obs, rejectedCounter) + counter(vb8.sc.obs, rejectedCounter) + counter(o, rejectedCounter)

	// The codec alone, on the exact b1 bodies: encoding/json into and out
	// of the public wire types.
	var dec, enc []time.Duration
	for i, body := range vb1.sc.capture.requests {
		var req serve.RunRequest
		t0 := time.Now()
		err := json.Unmarshal(body, &req)
		dec = append(dec, time.Since(t0))
		if err != nil {
			return err
		}
		var res serve.RunResult
		if err := json.Unmarshal(vb1.sc.capture.responses[i], &res); err != nil {
			return err
		}
		t0 = time.Now()
		_, err = json.Marshal(&res)
		enc = append(enc, time.Since(t0))
		if err != nil {
			return err
		}
	}
	s.t.set("serve.decode_us", us(median(dec)), "us")
	s.t.set("serve.encode_us", us(median(enc)), "us")
	return nil
}

const rejectedCounter = "serve_backpressure_rejections_total"

// ---- serve (lifecycle), snapshot, engine (images) ----

// passFailover runs the failover round on two fresh servers with spans on,
// all sessions on one program, and reads the lifecycle numbers out of the
// trace: the first create pays the compile (image-cache miss), the rest do
// not.
func (s *suite) passFailover() error {
	sc, err := newServeFailover(s.e, 1)
	if err != nil {
		return err
	}
	defer sc.close()
	rec := newRecorder(true)
	sc.run(2*s.reps, rec)
	s.absorb(rec)
	p50 := func(names ...string) float64 {
		var ds []time.Duration
		for _, n := range names {
			ds = append(ds, spanDurations(rec.spans, n)...)
		}
		return ms(median(ds))
	}
	creates := spanDurations(rec.spans, "create")
	if len(creates) < 2 {
		return fmt.Errorf("failover pass recorded %d creates", len(creates))
	}
	s.t.set("serve.create_cold_ms", ms(creates[0]), "ms")
	s.t.set("serve.create_warm_ms_p50", ms(median(creates[1:])), "ms")
	s.t.set("serve.delete_ms_p50", p50("delete-a", "delete-b"), "ms")
	s.t.set("snapshot.save_ms_p50", p50("snapshot"), "ms")
	s.t.set("snapshot.bytes", float64(sc.snapBytes), "B")
	s.t.set("serve.restore_ms_p50", p50("restore"), "ms")
	s.t.set("serve.restore_replayed", ratio(counter(sc.ob, "serve_wal_records_replayed_total"), counter(sc.ob, "serve_sessions_restored_total")), "count")
	ca, cb := sc.a.ImageCacheStats(), sc.b.ImageCacheStats()
	s.t.set("engine.image_cache_hit_share", ratio(float64(ca.Hits+cb.Hits), float64(ca.Hits+cb.Hits+ca.Misses+cb.Misses)), "share")
	s.rejected += counter(sc.oa, rejectedCounter) + counter(sc.ob, rejectedCounter)
	s.t.set("serve.rejected_429", s.rejected, "count")
	return nil
}

// passSnapshot is the snapshot layer without serve around it: an
// image-backed cypress engine driven to the failover round's snapshot
// point, then exported, encoded, decoded and restored through a warm image
// cache; plus the cost of stamping a session out of a compiled image.
func (s *suite) passSnapshot() error {
	ecfg := serverEngineConfig()
	sys := cypress.Generate(failoverCypress(s.e.seed, 0))
	cache := engine.NewImageCache()
	img, _, err := cache.Get(sys.Source, ecfg.Rete)
	if err != nil {
		return err
	}
	var e *engine.Engine
	stamp, err := medianOf(5, timed(func() error {
		e = engine.NewFromImage(img, ecfg)
		return e.RunStartup()
	}))
	if err != nil {
		return err
	}
	s.t.set("engine.new_from_image_ms", ms(stamp), "ms")

	if err := driveCypress(e, sys, failoverPre); err != nil {
		return err
	}
	want := serve.Fingerprint(e)
	var data []byte
	encode, err := medianOf(5, timed(func() error {
		var err error
		data, err = snapshot.Export(e).Encode()
		return err
	}))
	if err != nil {
		return err
	}
	var im *snapshot.Image
	decode, err := medianOf(5, timed(func() error {
		var err error
		im, err = snapshot.Decode(data)
		return err
	}))
	if err != nil {
		return err
	}
	restore, err := medianOf(5, timed(func() error {
		back, hit, err := snapshot.RestoreWithCache(im, ecfg, cache)
		if err != nil {
			return err
		}
		if !hit || serve.Fingerprint(back) != want {
			return fmt.Errorf("restore: cache hit %v, fingerprint equal %v", hit, serve.Fingerprint(back) == want)
		}
		return nil
	}))
	s.check(err)
	s.t.set("snapshot.encode_ms", ms(encode), "ms")
	s.t.set("snapshot.decode_ms", ms(decode), "ms")
	s.t.set("snapshot.restore_warm_ms", ms(restore), "ms")
	return nil
}
