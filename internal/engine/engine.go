// Package engine assembles the match network, the parallel runtime and the
// conflict set into a production-system engine. It supports the OPS5
// match/select/fire loop (PSM-E's native mode) and exposes the primitives
// Soar's Decide module drives: batched wme changes, match-to-quiescence,
// fire-all instantiation draining, and run-time production addition with
// the state-update cycle (paper §5).
package engine

import (
	"fmt"
	"io"
	"sync"
	"time"

	"soarpsme/internal/conflict"
	"soarpsme/internal/fault"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/obs"
	"soarpsme/internal/ops5"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/spin"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// Config configures an engine.
type Config struct {
	Processes int
	Policy    prun.Policy
	Rete      rete.Options
	// CaptureTrace keeps every match cycle's stats, its task records
	// included, on Engine.CycleStats: the experiments' capture.
	CaptureTrace bool
	// MaxCycles bounds the OPS5 recognize-act loop (0 = 10000).
	MaxCycles int
	// Output receives (write ...) action output; nil discards it.
	Output io.Writer
	// Watch prints a run trace to Output: 1 = production firings,
	// 2 = firings plus working-memory changes (OPS5's watch levels).
	Watch int
	// Obs, when non-nil, enables the observability layer: per-cycle and
	// per-task metrics flow into its registry and spans into its tracer.
	// Nil (the default) makes every hook a no-op.
	Obs *obs.Observer
	// Fault, when non-nil, injects scheduled faults into the match workers
	// (the -fault-seed flag); failed cycles are recovered by the serial
	// fallback, so results are unchanged.
	Fault *fault.Injector
	// Deadline bounds each parallel match cycle's wall-clock time (the
	// -deadline flag); an expired cycle is poisoned and retried serially.
	// Zero disables the watchdog.
	Deadline time.Duration
	// Prof, when non-nil, enables match profiling: per-production cost
	// attribution, chain-depth/granularity histograms, and (unless the
	// options disable it) the anomaly flight recorder, whose ring retains
	// each cycle's task records. Per-cycle traces are only kept on
	// Engine.CycleStats when CaptureTrace is set.
	Prof *matchprof.Options
	// Budget, when non-nil, is a worker budget shared with other engines in
	// the same process: each match cycle acquires up to Processes slots from
	// it (at least one, so no engine starves) instead of unconditionally
	// spawning Processes workers. The serving layer hands every session the
	// same budget so S sessions share one pool rather than running
	// S×Processes workers.
	Budget *prun.Budget
}

// DefaultConfig returns a single-process, multi-queue, shared-network
// configuration.
func DefaultConfig() Config {
	return Config{Processes: 1, Policy: prun.MultiQueue, Rete: rete.DefaultOptions(), MaxCycles: 10000}
}

// Engine is a production-system engine instance.
type Engine struct {
	Tab *value.Table
	Reg *wme.Registry
	WM  *wme.Memory
	NW  *rete.Network
	RT  *prun.Runtime
	CS  *conflict.Set

	cfg      Config
	strategy conflict.Strategy
	halted   bool
	gensym   int64

	// Prof is the engine's match profiler (nil when cfg.Prof is nil). The
	// serving layer snapshots it for /debug/match and labels it with the
	// session ID.
	Prof *matchprof.Profile

	// CycleStats is the experiments' per-match-cycle log: one entry per
	// ApplyAndMatch, kept only under Config.CaptureTrace.
	CycleStats []prun.CycleStats
	// Totals sums every ApplyAndMatch cycle the engine has run.
	Totals Totals
	// Additions records every run-time production addition, with its
	// state-update cycle.
	Additions []*AddResult
	// Fired counts production firings.
	Fired int
	// BadDeltas counts wme deltas rejected by ApplyAndMatch (duplicate
	// inserts and removals of unknown wmes); the serving layer reports it
	// per session so clients see their own bad deltas, not just the
	// process-wide wm_bad_deltas_total metric.
	BadDeltas int
	// AfterCycle, when set, runs at the end of every ApplyAndMatch (the
	// experiment harness harvests per-cycle hash-line access counts here).
	// cs points at an engine-owned slot that the next cycle overwrites.
	AfterCycle func(cs *prun.CycleStats)
	last       prun.CycleStats
	// OnApply, when set, receives each cycle's applied wme deltas just
	// before the match runs (benchmarks capture replayable batches here).
	OnApply func(deltas []wme.Delta)
	// beforeUpdate, when set, sees each addition's AddInfo just before its
	// state update runs (a test seam: export_test.go).
	beforeUpdate func(info *rete.AddInfo)

	// pendingExcise holds (excise ...) actions deferred to quiescence.
	pendingExcise []string

	// img is the compiled image this engine runs against, never nil: the
	// empty program's for an engine made by New.
	img *ProgramImage

	// cycles counts ApplyAndMatch cycles run.
	cycles int64

	// Pre-resolved observability handles (all nil when cfg.Obs is nil).
	obs           *obs.Observer
	mCycles       *obs.Counter
	mWMEChanges   *obs.Counter
	mChunksAdded  *obs.Counter
	mQueueSpins   *obs.Counter
	mQueueAcqs    *obs.Counter
	mLineSpins    *obs.Counter
	mLineAcqs     *obs.Counter
	mBucketAccess *obs.Counter
	mCycleSecs    *obs.Histogram
	mSpliceSecs   *obs.Histogram
	mUpdateTasks  *obs.Histogram
	mCyclesFailed *obs.Counter
	mCyclesRecov  *obs.Counter
	mBadDeltas    *obs.Counter
	mNullSupp     *obs.Counter
	mAlphaHits    *obs.Counter
	mAlphaMisses  *obs.Counter

	// Counter harvest state (harvest): the totals already folded into the
	// registry. harvestMu orders the harvest, which a metrics scrape runs on
	// its own goroutine, against the engine goroutine swapping NW.Mem in
	// resetMatchState; stopHarvest unregisters the scrape hook (Close).
	harvestMu     sync.Mutex
	lastQueue     spin.Counts
	lastLine      spin.Counts
	lastAccess    uint64
	lastNullSupp  uint64
	lastAlphaHit  uint64
	lastAlphaMiss uint64
	stopHarvest   func()
}

// New creates an empty engine: a session over the image of the empty
// program. What LoadProgram and run-time additions compile goes to the
// network's own layer, as a served session's chunks do.
func New(cfg Config) *Engine { return NewWithTable(cfg, value.NewTable()) }

// NewWithTable is New with the engine's symbols numbered as in tab: the
// engine interns into a copy of tab and never writes tab itself, so a
// program parsed against tab can be compiled by LoadParsed, and tab may be
// shared by any number of engines.
func NewWithTable(cfg Config, tab *value.Table) *Engine {
	img, err := compileImage(tab, "", cfg.Rete)
	if err != nil {
		panic(err) // the empty program has nothing to reject
	}
	return NewFromImage(img, cfg)
}

// NewFromImage creates a session engine over a shared compiled image:
// fresh working memory, conflict set, token tables and counters — no
// compilation — with the runtime, profiler and observability wired around
// them. Structural rete options come from the image; cfg.Rete contributes
// only the session-level Unlink. Startup actions are NOT run — call
// RunStartup for a fresh session, or skip it when restoring a snapshot whose
// working memory is replayed explicitly.
func NewFromImage(img *ProgramImage, cfg Config) *Engine {
	cs := conflict.New()
	nw := rete.NewFromTopology(img.Top, cs, cfg.Rete)
	var prof *matchprof.Profile
	if cfg.Prof != nil {
		prof = matchprof.New(nw, *cfg.Prof, cfg.Obs)
	}
	rt := prun.New(nw, prun.Config{
		Processes:    cfg.Processes,
		Policy:       cfg.Policy,
		CaptureTrace: cfg.CaptureTrace,
		Fault:        cfg.Fault,
		Deadline:     cfg.Deadline,
		Budget:       cfg.Budget,
	})
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 10000
	}
	e := &Engine{Tab: nw.Tab, Reg: nw.Reg, WM: wme.NewMemory(), NW: nw, RT: rt, CS: cs,
		cfg: cfg, strategy: img.Strategy, Prof: prof, img: img}
	if o := cfg.Obs; o != nil {
		e.obs = o
		e.mCycles = o.Counter("match_cycles_total")
		e.mWMEChanges = o.Counter("wme_changes_total")
		e.mChunksAdded = o.Counter("chunks_added_total")
		e.mQueueSpins = o.Counter("queue_lock_spins_total")
		e.mQueueAcqs = o.Counter("queue_lock_acquires_total")
		e.mLineSpins = o.Counter("hash_line_lock_spins_total")
		e.mLineAcqs = o.Counter("hash_line_lock_acquires_total")
		e.mBucketAccess = o.Counter("hash_bucket_accesses_total")
		e.mCycleSecs = o.Histogram("match_cycle_seconds")
		e.mSpliceSecs = o.Histogram("rete_add_splice_seconds")
		e.mUpdateTasks = o.Histogram("state_update_tasks", obs.ExpBuckets(1, 4, 10)...)
		e.mCyclesFailed = o.Counter("match_cycles_failed_total")
		e.mCyclesRecov = o.Counter("match_cycles_recovered_total")
		e.mBadDeltas = o.Counter("wm_bad_deltas_total")
		e.mNullSupp = o.Counter("null_activations_suppressed_total")
		e.mAlphaHits = o.Counter("alpha_dispatch_hits_total")
		e.mAlphaMisses = o.Counter("alpha_dispatch_misses_total")
		// The match workers render on tid lanes 1..P of trace pid 0.
		o.Tracer().SetProcessName(0, "soarpsme match pipeline")
		o.Tracer().SetThreadName(0, 0, "control")
		for w := 1; w <= cfg.Processes; w++ {
			o.Tracer().SetThreadName(0, w, fmt.Sprintf("match-%d", w))
		}
		rt.SetObserver(o.MatchHooks(0))
		e.stopHarvest = o.Reg.OnCollect(e.harvest)
	}
	return e
}

// Obs returns the engine's observer (nil when observability is disabled);
// callers hand it to obs' nil-safe accessors.
func (e *Engine) Obs() *obs.Observer { return e.obs }

// harvest folds the engine's contention and filtering counters since the
// previous harvest into the registry: the paper's contention measures
// (queue-lock and hash-line lock counts, bucket accesses; Figures 6-2/6-3)
// and the null-suppressed and alpha-dispatch counts. Reading the line
// lock counts sweeps every line of the table, so no cycle pays for any of
// it: the harvest runs when the totals are looked at (the registry's
// OnCollect hook, for /metrics and the -metrics file), before the table is
// discarded (resetMatchState) and when the engine is released (Close). It
// may run concurrently with a match cycle and reads only atomics — never a
// line, which a lead running alone writes without its lock — so what it
// folds is exact as of the last finished cycle: the bucket accesses, the
// match-work counts and the lock acquisitions a lone lead skipped reach
// the shared counters when a cycle ends.
func (e *Engine) harvest() {
	e.harvestMu.Lock()
	defer e.harvestMu.Unlock()
	e.fold()
}

// fold is harvest with harvestMu held.
func (e *Engine) fold() {
	locks, al, ar := e.NW.Mem.Tallies()
	e.mLineSpins.Add(locks.Spins - e.lastLine.Spins)
	e.mLineAcqs.Add(locks.Acquires - e.lastLine.Acquires)
	e.lastLine = locks
	e.mBucketAccess.Add(al + ar - e.lastAccess)
	e.lastAccess = al + ar

	qs, qa := e.RT.QueueLockStats()
	e.mQueueSpins.Add(qs - e.lastQueue.Spins)
	e.mQueueAcqs.Add(qa - e.lastQueue.Acquires)
	e.lastQueue = spin.Counts{Spins: qs, Acquires: qa}
	ns := uint64(e.NW.Stats.NullSuppressed.Load())
	e.mNullSupp.Add(ns - e.lastNullSupp)
	e.lastNullSupp = ns
	ah := uint64(e.NW.Stats.AlphaHits.Load())
	e.mAlphaHits.Add(ah - e.lastAlphaHit)
	e.lastAlphaHit = ah
	am := uint64(e.NW.Stats.AlphaMisses.Load())
	e.mAlphaMisses.Add(am - e.lastAlphaMiss)
	e.lastAlphaMiss = am
}

// resetMatchState discards the network's match state for a serial rebuild.
// The hash table is replaced wholesale, so its tallies are harvested first
// and the line baselines restart at zero with the fresh table; the runtime
// and network counters live on.
func (e *Engine) resetMatchState() {
	e.harvestMu.Lock()
	defer e.harvestMu.Unlock()
	if e.obs != nil {
		e.fold()
	}
	e.NW.ResetMatchState()
	e.lastLine, e.lastAccess = spin.Counts{}, 0
}

// Close releases the engine's hold on its observer: its counters are
// harvested one last time and the scrape hook is unregistered, so the
// registry's totals keep what this engine contributed and no longer keep
// the engine reachable. Call it once, at quiescence, when the engine is
// done; an engine without an observer needs no Close. A process that exits
// after flushing its metrics may skip it.
func (e *Engine) Close() {
	if e.obs == nil {
		return
	}
	e.stopHarvest()
	e.harvest()
}

// Cycles returns the number of ApplyAndMatch cycles the engine has run.
func (e *Engine) Cycles() int64 { return e.cycles }

// Halted reports whether a (halt) action has executed.
func (e *Engine) Halted() bool { return e.halted }

// Strategy returns the conflict-resolution strategy: the image's, unless
// LoadProgram or SetStrategy has replaced it.
func (e *Engine) Strategy() conflict.Strategy { return e.strategy }

// SetStrategy replaces the conflict-resolution strategy; snapshot restore
// uses it for an engine whose strategy was not its image's.
func (e *Engine) SetStrategy(s conflict.Strategy) { e.strategy = s }

// SetHalted forces the halt flag; snapshot restore uses it to reproduce a
// session that had executed (halt).
func (e *Engine) SetHalted(h bool) { e.halted = h }

// Gensym returns the (gensym) counter, for snapshot export.
func (e *Engine) Gensym() int64 { return e.gensym }

// SetGensym restores the (gensym) counter so a restored engine keeps
// generating fresh symbols.
func (e *Engine) SetGensym(n int64) { e.gensym = n }

// RebuildMatchState re-derives all match state — token memories, conflict
// set, unlink counters — from the current working memory by a serial
// replay through the network (the paper's run-time state-update machinery
// used as a migration primitive). Intended for a freshly loaded engine
// whose conflict set is empty; the journal is cleared afterwards so the
// rebuilt matches are not re-reported as fresh adds, and refraction is
// left for the caller to restore.
func (e *Engine) RebuildMatchState() prun.CycleStats {
	e.resetMatchState()
	cs := e.RT.ReplaySerial(e.WM.All())
	e.CS.ResetJournal()
	return cs
}

// LoadProgram parses and compiles an OPS5 source file: literalize
// declarations, productions (built into the network before any wme
// exists, so no state update is needed) and startup actions, which are
// applied and matched.
func (e *Engine) LoadProgram(src string) error {
	prog, err := ops5.Parse(src, e.Tab)
	if err != nil {
		return err
	}
	return e.LoadParsed(prog)
}

// LoadParsed is LoadProgram for a program already parsed against the
// engine's symbol table, or against a table it was cloned from with the
// same symbols; prog is only read, so one parse may load many engines.
func (e *Engine) LoadParsed(prog *ops5.Program) error {
	if err := compileInto(e.NW, prog); err != nil {
		return err
	}
	e.strategy = conflict.ParseStrategy(prog.Strategy)
	return e.runStartup(prog.Startup)
}

// runStartup executes a program's startup actions, if it has any, as one
// match cycle.
func (e *Engine) runStartup(acts []*ops5.Action) error {
	if len(acts) == 0 {
		return nil
	}
	deltas, err := e.execActions(acts, nil, nil)
	if err != nil {
		return err
	}
	e.ApplyAndMatch(deltas)
	return nil
}

// ApplyAndMatch applies a batch of wme changes to working memory and runs
// one parallel match cycle over them (match begins only after all changes
// are applied — the paper's measurement methodology, §6).
func (e *Engine) ApplyAndMatch(deltas []wme.Delta) prun.CycleStats {
	applied := deltas[:0:0]
	var badDelta error
	for _, d := range deltas {
		switch d.Op {
		case wme.Add:
			if err := e.WM.Insert(d.WME); err != nil {
				// A rejected delta (duplicate insert) is dropped from the
				// batch and surfaced as a cycle failure below: the serial
				// fallback re-derives match state from the WM that actually
				// resulted, so the engine degrades instead of crashing.
				if badDelta == nil {
					badDelta = err
				}
				e.BadDeltas++
				e.mBadDeltas.Inc()
				continue
			}
			applied = append(applied, d)
		case wme.Remove:
			if !e.WM.Delete(d.WME) {
				// Symmetric with the duplicate-insert path: removing a wme
				// that is not in working memory is a bad delta, not a no-op —
				// silently ignoring it would let a confused client's view of
				// WM drift from the engine's.
				if badDelta == nil {
					badDelta = fmt.Errorf("wme: remove of unknown wme %d", d.WME.ID)
				}
				e.BadDeltas++
				e.mBadDeltas.Inc()
				continue
			}
			applied = append(applied, d)
		}
	}
	if e.cfg.Watch >= 2 && e.cfg.Output != nil {
		for _, d := range applied {
			mark := "=>WM:"
			if d.Op == wme.Remove {
				mark = "<=WM:"
			}
			fmt.Fprintf(e.cfg.Output, ";; %s %d %s\n", mark, d.WME.TimeTag, d.WME.Format(e.Tab, e.Reg))
		}
	}
	if e.OnApply != nil {
		e.OnApply(applied)
	}
	var start time.Time
	if e.obs != nil || e.Prof != nil {
		start = time.Now()
	}
	mark := e.CS.Mark()
	cs := e.RT.RunCycle(applied)
	if badDelta != nil && !cs.Failed {
		cs.Failed = true
		cs.Reason = "wme delta rejected: " + badDelta.Error()
	}
	if cs.Failed {
		cs = e.recoverCycle(mark, cs)
	}
	if e.obs != nil {
		d := time.Since(start)
		e.mCycles.Inc()
		e.mWMEChanges.Add(uint64(len(applied)))
		e.mCycleSecs.Observe(d.Seconds())
		// Only a -trace run has a tracer; a served cycle builds no span args.
		if trc := e.obs.Tracer(); trc != nil {
			trc.Complete(0, 0, "match-cycle", "cycle", start, d, map[string]any{
				"tasks": cs.Tasks, "wme-changes": len(applied), "modeled-us": cs.TotalCost,
				"failed-pops": cs.FailedPops, "term-probes": cs.TermProbes, "steals": cs.Steals,
			})
		}
	}
	cs = e.endCycle(cs, start)
	e.cycles++
	e.Totals.add(&cs)
	if e.cfg.CaptureTrace {
		e.CycleStats = append(e.CycleStats, cs)
	}
	if e.AfterCycle != nil {
		e.last = cs
		e.AfterCycle(&e.last)
	}
	return cs
}

// Totals is the running sum of an engine's ApplyAndMatch cycles.
type Totals struct {
	Tasks      int
	Cost       int64 // modeled task cost (µs)
	FailedPops int64
	Steals     int64
	TermProbes int64
	// Failed counts cycles that did not run to quiescence; Recovered, those
	// the serial fallback replayed.
	Failed    int
	Recovered int
}

func (t *Totals) add(cs *prun.CycleStats) {
	t.Tasks += cs.Tasks
	t.Cost += cs.TotalCost
	t.FailedPops += cs.FailedPops
	t.Steals += cs.Steals
	t.TermProbes += cs.TermProbes
	if cs.Failed {
		t.Failed++
	}
	if cs.Recovered {
		t.Recovered++
	}
}

// endCycle hands a finished cycle to the match profiler. The runtime keeps
// the cycle's task records on cs.Trace whenever anything is attached; the
// flight ring and the tracer hold on to that slice themselves, so unless
// the caller asked for traces on CycleStats the engine's own reference is
// dropped and long-running sessions don't accumulate every cycle's task
// DAG.
func (e *Engine) endCycle(cs prun.CycleStats, start time.Time) prun.CycleStats {
	if e.Prof != nil {
		e.Prof.EndCycle(matchprof.CycleEvent{
			Cycle: e.cycles,
			Dur:   time.Since(start),
			Stats: cs,
		})
	}
	if !e.cfg.CaptureTrace {
		cs.Trace = nil
	}
	return cs
}

// recoverCycle is the degradation path: a poisoned parallel cycle's partial
// match state is discarded wholesale (fresh hash tables), the conflict set
// is rolled back to its pre-cycle journal mark, and the whole of working
// memory — which already reflects the cycle's wme changes — is replayed
// serially. The replay re-derives exactly the match state a fault-free
// cycle would have produced; EndRecovery then reconciles the conflict set
// so the next Drain reports only the cycle's true effect. The returned
// stats describe the replay, tagged Recovered with the original failure's
// Reason and Panics preserved.
func (e *Engine) recoverCycle(mark conflict.Mark, failed prun.CycleStats) prun.CycleStats {
	e.mCyclesFailed.Inc()
	var start time.Time
	if e.obs != nil {
		start = time.Now()
	}
	e.resetMatchState()
	rec := e.CS.BeginRecovery(mark)
	cs := e.RT.ReplaySerial(e.WM.All())
	e.CS.EndRecovery(rec)
	e.mCyclesRecov.Inc()
	if e.obs != nil {
		e.obs.Tracer().Complete(0, 0, "serial-fallback", "recover", start, time.Since(start),
			map[string]any{"reason": failed.Reason, "tasks": cs.Tasks})
	}
	cs.Failed = true
	cs.Reason = failed.Reason
	cs.Panics = failed.Panics
	return cs
}

// AuditInvariants runs the full Rete invariant audit: no outstanding
// tombstones, the network's memory-vs-WM cross-check
// (rete.Audit), and the P-node-tokens-vs-conflict-set size comparison.
// It must be called at quiescence; tests and the fault matrix run it after
// recovered cycles to prove the fallback restored a consistent state.
func (e *Engine) AuditInvariants() error {
	if n := e.NW.Mem.Tombstones(); n != 0 {
		return fmt.Errorf("engine: %d outstanding tombstones at quiescence", n)
	}
	if errs := e.NW.Audit(e.WM); len(errs) > 0 {
		return fmt.Errorf("engine: audit found %d violation(s), first: %w", len(errs), errs[0])
	}
	if live, cs := e.NW.LivePTokens(), e.CS.Len(); live != cs {
		return fmt.Errorf("engine: %d live P-node tokens != %d conflict-set instantiations", live, cs)
	}
	return nil
}

// Step runs one recognize-act cycle: select a dominant instantiation, fire
// it, apply+match its wme changes, and run every excise it deferred. It
// reports whether a production fired — false means quiescence (empty
// conflict set) or a previously executed (halt). An excise that fails is
// reported, as the first error, after the cycle has run, and is not retried
// by the next Step. The conflict set's journal is left for the caller: the
// serving layer uses Step to run bounded cycle batches between checkpoints
// and drains the journal into its fingerprint.
func (e *Engine) Step() (bool, error) {
	if e.halted {
		return false, nil
	}
	inst := e.CS.Select(e.strategy)
	if inst == nil {
		return false, nil
	}
	deltas, err := e.FireInstantiation(inst)
	if err != nil {
		return false, err
	}
	e.ApplyAndMatch(deltas)
	for _, name := range e.pendingExcise {
		if xerr := e.NW.RemoveProduction(name); xerr != nil && err == nil {
			err = xerr
		}
	}
	e.pendingExcise = e.pendingExcise[:0]
	return true, err
}

// RunOPS5 executes the recognize-act cycle until quiescence, halt, or the
// cycle bound. It returns the number of firings.
func (e *Engine) RunOPS5() (int, error) {
	fired := 0
	for i := 0; i < e.cfg.MaxCycles; i++ {
		ok, err := e.Step()
		// Select reads the live set, so nothing here reads the journal, which
		// would otherwise pin every instantiation the run ever made.
		e.CS.ResetJournal()
		if ok {
			fired++
		}
		if err != nil {
			return fired, err
		}
		if !ok {
			break
		}
	}
	return fired, nil
}

// FireInstantiation evaluates an instantiation's RHS, returning the wme
// changes it produces (and performing write/halt/bind side effects).
func (e *Engine) FireInstantiation(inst *conflict.Instantiation) ([]wme.Delta, error) {
	e.Fired++
	if e.cfg.Watch >= 1 && e.cfg.Output != nil {
		tags := make([]uint64, len(inst.WMEs))
		for i, w := range inst.WMEs {
			tags[i] = w.TimeTag
		}
		fmt.Fprintf(e.cfg.Output, ";; FIRE %s %v\n", inst.Prod.Name, tags)
	}
	return e.execActions(inst.Prod.AST.RHS, inst.Prod, inst.Tok)
}

// locals carries (bind ...) variables during one RHS evaluation.
type locals map[value.Sym]value.Value

// execActions evaluates a list of RHS actions. prod/tok are nil for
// startup actions.
func (e *Engine) execActions(acts []*ops5.Action, prod *rete.Production, tok *rete.Token) ([]wme.Delta, error) {
	var deltas []wme.Delta
	env := locals{}
	removed := map[uint64]bool{}
	for _, a := range acts {
		switch a.Kind {
		case ops5.ActMake:
			w, err := e.makeWME(a, prod, tok, env)
			if err != nil {
				return nil, err
			}
			deltas = append(deltas, wme.Delta{Op: wme.Add, WME: w})
		case ops5.ActRemove:
			w, err := e.actionTarget(a, prod, tok)
			if err != nil {
				return nil, err
			}
			if !removed[w.ID] {
				removed[w.ID] = true
				deltas = append(deltas, wme.Delta{Op: wme.Remove, WME: w})
			}
		case ops5.ActModify:
			old, err := e.actionTarget(a, prod, tok)
			if err != nil {
				return nil, err
			}
			fields := make([]value.Value, len(old.Fields))
			copy(fields, old.Fields)
			for _, set := range a.Sets {
				idx, ok := e.Reg.FieldIndex(old.Class, set.Attr, true)
				if !ok {
					return nil, fmt.Errorf("engine: modify: bad attribute")
				}
				for idx >= len(fields) {
					fields = append(fields, value.Nil)
				}
				v, err := e.evalExpr(set.Expr, prod, tok, env)
				if err != nil {
					return nil, err
				}
				fields[idx] = v
			}
			if !removed[old.ID] {
				removed[old.ID] = true
				deltas = append(deltas, wme.Delta{Op: wme.Remove, WME: old})
			}
			deltas = append(deltas, wme.Delta{Op: wme.Add, WME: e.WM.Make(old.Class, fields)})
		case ops5.ActWrite:
			if e.cfg.Output != nil {
				for i, arg := range a.Args {
					v, err := e.evalExpr(arg, prod, tok, env)
					if err != nil {
						return nil, err
					}
					if i > 0 {
						fmt.Fprint(e.cfg.Output, " ")
					}
					fmt.Fprint(e.cfg.Output, e.Tab.Format(v))
				}
				fmt.Fprintln(e.cfg.Output)
			}
		case ops5.ActHalt:
			e.halted = true
		case ops5.ActBind:
			v, err := e.evalExpr(a.Expr, prod, tok, env)
			if err != nil {
				return nil, err
			}
			env[a.Var] = v
		case ops5.ActExcise:
			// Network surgery must wait for quiescence; the excise runs
			// after this firing's match cycle completes.
			e.pendingExcise = append(e.pendingExcise, a.Name)
		}
	}
	return deltas, nil
}

// makeWME builds the wme for a make action.
func (e *Engine) makeWME(a *ops5.Action, prod *rete.Production, tok *rete.Token, env locals) (*wme.WME, error) {
	schema := e.Reg.Get(a.Class, true)
	fields := make([]value.Value, schema.Width())
	for _, set := range a.Sets {
		idx, ok := e.Reg.FieldIndex(a.Class, set.Attr, true)
		if !ok {
			return nil, fmt.Errorf("engine: make: bad attribute")
		}
		for idx >= len(fields) {
			fields = append(fields, value.Nil)
		}
		v, err := e.evalExpr(set.Expr, prod, tok, env)
		if err != nil {
			return nil, err
		}
		fields[idx] = v
	}
	return e.WM.Make(a.Class, fields), nil
}

// actionTarget resolves the wme a remove/modify refers to: a 1-based CE
// position or an element variable.
func (e *Engine) actionTarget(a *ops5.Action, prod *rete.Production, tok *rete.Token) (*wme.WME, error) {
	if prod == nil || tok == nil {
		return nil, fmt.Errorf("engine: remove/modify outside a firing")
	}
	var tag int
	if a.Elem != 0 {
		t, ok := prod.ElemCE[a.Elem]
		if !ok {
			return nil, fmt.Errorf("engine: %s: unbound element variable", prod.Name)
		}
		tag = t
	} else {
		tag = prod.ActionCE[a.CE-1]
	}
	w := tok.WMEAt(tag)
	if w == nil {
		return nil, fmt.Errorf("engine: %s: action target has no wme", prod.Name)
	}
	return w, nil
}

// evalExpr evaluates an RHS expression.
func (e *Engine) evalExpr(x *ops5.Expr, prod *rete.Production, tok *rete.Token, env locals) (value.Value, error) {
	switch x.Kind {
	case ops5.ExprConst:
		return x.Val, nil
	case ops5.ExprVar:
		if v, ok := env[x.Var]; ok {
			return v, nil
		}
		if prod != nil && tok != nil {
			if bd, ok := prod.Bindings[x.Var]; ok {
				w := tok.WMEAt(bd.CE)
				if w == nil {
					return value.Nil, fmt.Errorf("engine: unbound CE %d", bd.CE)
				}
				return w.Field(bd.Field), nil
			}
		}
		return value.Nil, fmt.Errorf("engine: unbound variable <%s>", e.Tab.Name(x.Var))
	case ops5.ExprGensym:
		e.gensym++
		return e.Tab.SymV(fmt.Sprintf("g%d", e.gensym)), nil
	case ops5.ExprCompute:
		l, err := e.evalExpr(x.L, prod, tok, env)
		if err != nil {
			return value.Nil, err
		}
		r, err := e.evalExpr(x.R, prod, tok, env)
		if err != nil {
			return value.Nil, err
		}
		return compute(x.Op, l, r)
	}
	return value.Nil, fmt.Errorf("engine: bad expression")
}

func compute(op byte, l, r value.Value) (value.Value, error) {
	if !l.Numeric() || !r.Numeric() {
		return value.Nil, fmt.Errorf("engine: compute on non-numeric values")
	}
	if l.Kind == value.KindInt && r.Kind == value.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case '+':
			return value.IntVal(a + b), nil
		case '-':
			return value.IntVal(a - b), nil
		case '*':
			return value.IntVal(a * b), nil
		case '/':
			if b == 0 {
				return value.Nil, fmt.Errorf("engine: division by zero")
			}
			return value.IntVal(a / b), nil
		case '%':
			if b == 0 {
				return value.Nil, fmt.Errorf("engine: modulo by zero")
			}
			return value.IntVal(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case '+':
		return value.FloatVal(a + b), nil
	case '-':
		return value.FloatVal(a - b), nil
	case '*':
		return value.FloatVal(a * b), nil
	case '/':
		if b == 0 {
			return value.Nil, fmt.Errorf("engine: division by zero")
		}
		return value.FloatVal(a / b), nil
	case '%':
		return value.Nil, fmt.Errorf("engine: modulo on floats")
	}
	return value.Nil, fmt.Errorf("engine: bad operator %q", op)
}

// AddResult reports a run-time production addition (paper §5).
type AddResult struct {
	Prod *rete.Production
	Info *rete.AddInfo
	// CompileTime is the wall-clock code-generation/integration time.
	CompileTime time.Duration
	// Update is the state-update cycle's statistics (zero when WM empty).
	Update prun.CycleStats
}

// AddProductionRuntime adds a production while the system is running
// (chunking): it compiles the production into the shared network and then
// runs the §5.2 state-update cycle — running WM through the alpha paths that
// feed the new nodes, and seeding the first new nodes from the last shared
// node's stored state — so the chunk is immediately available.
// The caller must be at quiescence.
func (e *Engine) AddProductionRuntime(ast *ops5.Production) (*AddResult, error) {
	start := time.Now()
	prod, info, err := e.NW.AddProduction(ast)
	if err != nil {
		return nil, err
	}
	res := &AddResult{Prod: prod, Info: info, CompileTime: time.Since(start)}
	if e.obs != nil {
		e.mChunksAdded.Inc()
		e.mSpliceSecs.Observe(info.SpliceTime.Seconds())
		e.obs.Tracer().Complete(0, 0, "add-production:"+prod.Name, "add", start, res.CompileTime,
			map[string]any{"new-nodes": len(info.NewBeta), "shared-2in": info.SharedTwoInput,
				"splice-us": float64(info.SpliceTime) / float64(time.Microsecond)})
	}
	if e.WM.Len() > 0 && len(info.NewBeta) > 0 {
		seeds := e.NW.SeedUpdateTasks(info)
		var ustart time.Time
		if e.obs != nil || e.Prof != nil {
			ustart = time.Now()
		}
		mark := e.CS.Mark()
		if e.beforeUpdate != nil {
			e.beforeUpdate(info)
		}
		res.Update = e.RT.RunSeeded(info, seeds, e.WM.All())
		if res.Update.Failed {
			// A poisoned state-update cycle: rebuild everything — old and
			// new productions alike — serially.
			res.Update = e.recoverCycle(mark, res.Update)
		}
		if e.obs != nil {
			e.mUpdateTasks.Observe(float64(res.Update.Tasks))
			e.obs.Tracer().Complete(0, 0, "state-update:"+prod.Name, "update", ustart, time.Since(ustart),
				map[string]any{"tasks": res.Update.Tasks, "seeds": len(seeds), "modeled-us": res.Update.TotalCost})
		}
		res.Update = e.endCycle(res.Update, ustart)
	}
	e.Additions = append(e.Additions, res)
	return res, nil
}
