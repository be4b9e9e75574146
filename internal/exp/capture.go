// Package exp regenerates every table and figure of the paper's evaluation
// (§5-§6). Each experiment has one driver function returning a stats.Table
// or stats.Figure; the Lab captures each workload's task-dependency traces
// once (sequentially, for determinism) and the drivers replay them on the
// simulated multiprocessor (internal/sim) — see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results.
package exp

import (
	"fmt"
	"strings"

	"soarpsme/internal/chunk"
	"soarpsme/internal/engine"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/obs"
	"soarpsme/internal/ops5"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/strips"
)

// queueOp is the simulated task-queue lock service time (µs).
const queueOp = 60

// capture is one instrumented run of a workload.
type capture struct {
	name string
	// traces holds one task-DAG per match cycle (normal cycles only).
	traces [][]prun.TaskRec
	// updateTraces holds the state-update cycles of run-time additions.
	updateTraces [][]prun.TaskRec
	// tasksPerCycle mirrors traces (tasks executed per cycle).
	tasksPerCycle []int
	tasks         int
	totalCost     int64
	// failedPops/termProbes/steals are the live runtime's queue diagnostics
	// summed over all cycles (§6.1; surfaced by -exp diagnose). failedPops
	// excludes quiescence-detection probes, which land in termProbes.
	failedPops int64
	termProbes int64
	steals     int64
	// bucketAccesses holds per-line left-token access counts per cycle
	// (Figure 6-2's contention measure).
	bucketAccesses []int
	// Chunks built/added during the run.
	chunkCEs    []int
	chunkBytes  []int
	chunkNew2In []int
	// sharedTwoInput counts join nodes reused by run-time additions.
	sharedTwoInput int
	// nullSuppressed / alphaHits / alphaMisses are the engine's match-time
	// filtering counters at the end of the run (unlinking and hashed alpha
	// dispatch — the abl-unlink experiment).
	nullSuppressed int64
	alphaHits      int64
	alphaMisses    int64
	halted         bool
	decisions      int
	moves          int // operator decisions in the top goal
	// prof is the engine's match-cost attribution snapshot at the end of
	// the run: per-production activation/null counters, chain depths, and
	// the depth/granularity histograms (diagnose sources its null-rate and
	// chain-depth columns here instead of recomputing from traces).
	prof *matchprof.Snapshot
	// taskProdCEs is the CE count of each task (non-chunk) production.
	taskProdCEs []int
	// Agent/engine are retained for follow-up queries (chunk transfer).
	agent *soar.Agent
	eng   *engine.Engine
	// measuredFrom is the first addition whose state update is part of the
	// measured run: additions that seed or preload the engine come before it.
	measuredFrom int
}

func (c *capture) harvest(e *engine.Engine) {
	for _, cs := range e.CycleStats {
		if len(cs.Trace) > 0 {
			c.traces = append(c.traces, cs.Trace)
		}
		c.tasksPerCycle = append(c.tasksPerCycle, cs.Tasks)
		c.tasks += cs.Tasks
		c.totalCost += cs.TotalCost
		c.failedPops += cs.FailedPops
		c.termProbes += cs.TermProbes
		c.steals += cs.Steals
	}
	for _, add := range e.Additions[c.measuredFrom:] {
		cs := &add.Update
		if len(cs.Trace) > 0 {
			c.updateTraces = append(c.updateTraces, cs.Trace)
		}
		c.tasks += cs.Tasks
		c.totalCost += cs.TotalCost
		c.failedPops += cs.FailedPops
		c.termProbes += cs.TermProbes
		c.steals += cs.Steals
	}
	for _, add := range e.Additions {
		c.chunkCEs = append(c.chunkCEs, countCEs(add.Prod.AST))
		bytes, twoInput := codeSize(add.Info)
		c.chunkBytes = append(c.chunkBytes, bytes)
		c.chunkNew2In = append(c.chunkNew2In, twoInput)
		c.sharedTwoInput += add.Info.SharedTwoInput
	}
	for _, p := range e.NW.Productions() {
		if !isChunkName(p.Name) {
			c.taskProdCEs = append(c.taskProdCEs, countCEs(p.AST))
		}
	}
	c.nullSuppressed = e.NW.Stats.NullSuppressed.Load()
	c.alphaHits = e.NW.Stats.AlphaHits.Load()
	c.alphaMisses = e.NW.Stats.AlphaMisses.Load()
	if e.Prof != nil {
		c.prof = e.Prof.Snapshot()
	}
}

func countCEs(p *ops5.Production) int {
	n := 0
	for _, ci := range p.LHS {
		switch ci.Kind {
		case ops5.CondPos, ops5.CondNeg:
			n++
		case ops5.CondNCC:
			n += len(ci.Sub)
		}
	}
	return n
}

// mode selects a run variant.
type mode int

// The three run modes of §3.
const (
	noChunk mode = iota
	duringChunk
	afterChunk
)

func (m mode) String() string {
	switch m {
	case noChunk:
		return "without-chunking"
	case duringChunk:
		return "during-chunking"
	}
	return "after-chunking"
}

// Lab lazily captures and caches workload runs.
type Lab struct {
	cache map[string]*capture
	opts  rete.Options
	obs   *obs.Observer
}

// NewLab returns an empty lab with default network options — except that
// left/right unlinking is off: the paper's engine scheduled every null
// activation as a task, and the reproduced tables and figures measure that
// task volume. AblationUnlink re-runs with the filter on.
func NewLab() *Lab {
	opts := rete.DefaultOptions()
	opts.Unlink = false
	return &Lab{cache: map[string]*capture{}, opts: opts}
}

// SetUnlink toggles left/right unlinking on every engine the lab creates
// from now on (the abl-unlink experiment; NewLab defaults to off for
// paper fidelity).
func (l *Lab) SetUnlink(on bool) { l.opts.Unlink = on }

// SetObserver attaches an observability handle to every engine the lab
// creates from now on (live /metrics while experiments run).
func (l *Lab) SetObserver(o *obs.Observer) { l.obs = o }

func (l *Lab) engCfg() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Processes = 1 // sequential capture: deterministic traces
	cfg.CaptureTrace = true
	cfg.Rete = l.opts
	cfg.Obs = l.obs
	// Attribution profiling without the flight recorder: diagnose reads
	// per-production null rates and chain depths from the snapshot.
	cfg.Prof = &matchprof.Options{FlightCycles: -1}
	return cfg
}

// soarTask captures a Soar task run in the given mode. For afterChunk, the
// chunks learned in a duringChunk run of the same task are transferred
// into a fresh agent before the run.
func (l *Lab) soarTask(name string, task *soar.Task, mode mode) (*capture, error) {
	key := fmt.Sprintf("%s/%v/org%d/u%v", name, mode, l.opts.Organization, l.opts.Unlink)
	if c, ok := l.cache[key]; ok {
		return c, nil
	}
	cfg := soar.Config{
		Engine:       l.engCfg(),
		Chunking:     mode != noChunk,
		MaxDecisions: 400,
	}
	a, err := soar.New(cfg, task)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", name, err)
	}
	cap := &capture{name: key, agent: a, eng: a.Eng}
	a.Eng.AfterCycle = func(*prun.CycleStats) {
		cap.bucketAccesses = append(cap.bucketAccesses, a.Eng.NW.Mem.HarvestAccessCounts()...)
	}
	if mode == afterChunk {
		during, err := l.soarTask(name, task, duringChunk)
		if err != nil {
			return nil, err
		}
		if _, err := a.AdoptChunks(during.agent); err != nil {
			return nil, fmt.Errorf("exp: %s transfer: %w", name, err)
		}
		// Transfer-time additions are not part of the measured run.
		a.Eng.Additions = nil
	}
	res, err := a.Run()
	if err != nil {
		return nil, fmt.Errorf("exp: %s run: %w", name, err)
	}
	cap.halted = res.Halted
	cap.decisions = res.Decisions
	cap.harvest(a.Eng)
	l.cache[key] = cap
	return cap, nil
}

// soarTaskSeeded runs a during-chunking capture seeded with every chunk
// (including transferred ones) present in a previous capture's network —
// the long-run learning regime of §7.
func (l *Lab) soarTaskSeeded(name string, task *soar.Task, prev *capture) (*capture, error) {
	key := fmt.Sprintf("%s/seeded", name)
	if c, ok := l.cache[key]; ok {
		return c, nil
	}
	cfg := soar.Config{
		Engine:       l.engCfg(),
		Chunking:     true,
		MaxDecisions: 150, // fixed-budget episodes for the long-run study
	}
	a, err := soar.New(cfg, task)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", name, err)
	}
	cap := &capture{name: key, agent: a, eng: a.Eng}
	if prev != nil {
		n := 0
		for _, p := range prev.eng.NW.Productions() {
			if strings.HasPrefix(p.Name, chunk.Prefix) || strings.HasPrefix(p.Name, "xfer-") {
				n++
				clone := *p.AST
				// Rename so the new agent's own chunk counter can't collide.
				clone.Name = fmt.Sprintf("xfer-%d-%s", n, name)
				if _, err := a.Eng.AddProductionRuntime(&clone); err != nil {
					return nil, fmt.Errorf("exp: %s seed %s: %w", name, clone.Name, err)
				}
			}
		}
		cap.measuredFrom = len(a.Eng.Additions)
	}
	res, err := a.Run()
	if err != nil {
		return nil, fmt.Errorf("exp: %s run: %w", name, err)
	}
	cap.halted = res.Halted
	cap.decisions = res.Decisions
	cap.moves = res.OperatorDecisions
	cap.harvest(a.Eng)
	l.cache[key] = cap
	return cap, nil
}

// eightPuzzle captures the Eight-Puzzle-Soar run.
func (l *Lab) eightPuzzle(mode mode) (*capture, error) {
	return l.soarTask("eight-puzzle", eightpuzzle.Default(), mode)
}

// strips captures the Strips-Soar run.
func (l *Lab) strips(mode mode) (*capture, error) {
	return l.soarTask("strips", strips.Default(), mode)
}

// cypress captures the synthetic Cypress run. noChunk runs the driver with
// only the task productions; duringChunk adds the 26 chunks at their
// scripted points; afterChunk preloads all chunks before driving.
func (l *Lab) cypress(mode mode) (*capture, error) {
	key := fmt.Sprintf("cypress/%v/org%d/u%v", mode, l.opts.Organization, l.opts.Unlink)
	if c, ok := l.cache[key]; ok {
		return c, nil
	}
	sys := cypress.Generate(cypress.DefaultParams())
	e := engine.New(l.engCfg())
	if err := e.LoadProgram(sys.Source); err != nil {
		return nil, fmt.Errorf("exp: cypress load: %w", err)
	}
	cap := &capture{name: key, eng: e}
	e.AfterCycle = func(*prun.CycleStats) {
		cap.bucketAccesses = append(cap.bucketAccesses, e.NW.Mem.HarvestAccessCounts()...)
	}
	if mode == afterChunk {
		for i := range sys.ChunkSrcs {
			ast, err := sys.ParseChunk(i, e.Tab)
			if err != nil {
				return nil, fmt.Errorf("exp: cypress chunk %d: %w", i, err)
			}
			if _, err := e.AddProductionRuntime(ast); err != nil {
				return nil, fmt.Errorf("exp: cypress chunk %d: %w", i, err)
			}
		}
		cap.measuredFrom = len(e.Additions) // preload is not part of the measured run
	}
	drv := cypress.NewDriver(sys, e.Tab, e.WM)
	next := 0
	for cyc := 0; cyc < sys.Params.Cycles; cyc++ {
		if _, err := drv.Step(e, cyc, &next, mode == duringChunk); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
	}
	cap.halted = true
	cap.decisions = sys.Params.Cycles
	cap.harvest(e)
	l.cache[key] = cap
	return cap, nil
}

// workloads returns the three paper tasks in the given mode.
func (l *Lab) workloads(mode mode) ([]*capture, error) {
	ep, err := l.eightPuzzle(mode)
	if err != nil {
		return nil, err
	}
	st, err := l.strips(mode)
	if err != nil {
		return nil, err
	}
	cy, err := l.cypress(mode)
	if err != nil {
		return nil, err
	}
	return []*capture{ep, st, cy}, nil
}

// taskNames are the display names, in the paper's order.
var taskNames = []string{"Eight-puzzle", "Strips", "Cypress"}
