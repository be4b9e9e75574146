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

// QueueOp is the simulated task-queue lock service time (µs).
const QueueOp = 60

// Capture is one instrumented run of a workload.
type Capture struct {
	Name string
	// Traces holds one task-DAG per match cycle (normal cycles only).
	Traces [][]prun.TaskRec
	// UpdateTraces holds the state-update cycles of run-time additions.
	UpdateTraces [][]prun.TaskRec
	// TasksPerCycle mirrors Traces (tasks executed per cycle).
	TasksPerCycle []int
	Tasks         int
	TotalCost     int64
	// FailedPops/TermProbes/Steals are the live runtime's queue diagnostics
	// summed over all cycles (§6.1; surfaced by -exp diagnose). FailedPops
	// excludes quiescence-detection probes, which land in TermProbes.
	FailedPops int64
	TermProbes int64
	Steals     int64
	// BucketAccesses holds per-line left-token access counts per cycle
	// (Figure 6-2's contention measure).
	BucketAccesses []int
	// Chunks built/added during the run.
	ChunkCEs    []int
	ChunkBytes  []int
	ChunkNew2In []int
	// SharedTwoInput counts join nodes reused by run-time additions.
	SharedTwoInput int
	// NullSuppressed / AlphaHits / AlphaMisses are the engine's match-time
	// filtering counters at the end of the run (unlinking and hashed alpha
	// dispatch — the abl-unlink experiment).
	NullSuppressed int64
	AlphaHits      int64
	AlphaMisses    int64
	Halted         bool
	Decisions      int
	Moves          int // operator decisions in the top goal
	// Prof is the engine's match-cost attribution snapshot at the end of
	// the run: per-production activation/null counters, chain depths, and
	// the depth/granularity histograms (diagnose sources its null-rate and
	// chain-depth columns here instead of recomputing from traces).
	Prof *matchprof.Snapshot
	// TaskProdCEs is the CE count of each task (non-chunk) production.
	TaskProdCEs []int
	// Agent/engine are retained for follow-up queries (chunk transfer).
	agent *soar.Agent
	eng   *engine.Engine
	// measuredFrom is the first addition whose state update is part of the
	// measured run: additions that seed or preload the engine come before it.
	measuredFrom int
}

func (c *Capture) harvest(e *engine.Engine) {
	for _, cs := range e.CycleStats {
		if len(cs.Trace) > 0 {
			c.Traces = append(c.Traces, cs.Trace)
		}
		c.TasksPerCycle = append(c.TasksPerCycle, cs.Tasks)
		c.Tasks += cs.Tasks
		c.TotalCost += cs.TotalCost
		c.FailedPops += cs.FailedPops
		c.TermProbes += cs.TermProbes
		c.Steals += cs.Steals
	}
	for _, add := range e.Additions[c.measuredFrom:] {
		cs := &add.Update
		if len(cs.Trace) > 0 {
			c.UpdateTraces = append(c.UpdateTraces, cs.Trace)
		}
		c.Tasks += cs.Tasks
		c.TotalCost += cs.TotalCost
		c.FailedPops += cs.FailedPops
		c.TermProbes += cs.TermProbes
		c.Steals += cs.Steals
	}
	for _, add := range e.Additions {
		c.ChunkCEs = append(c.ChunkCEs, countCEs(add.Prod.AST))
		bytes, twoInput := codeSize(add.Info)
		c.ChunkBytes = append(c.ChunkBytes, bytes)
		c.ChunkNew2In = append(c.ChunkNew2In, twoInput)
		c.SharedTwoInput += add.Info.SharedTwoInput
	}
	for _, p := range e.NW.Productions() {
		if !isChunkName(p.Name) {
			c.TaskProdCEs = append(c.TaskProdCEs, countCEs(p.AST))
		}
	}
	c.NullSuppressed = e.NW.Stats.NullSuppressed.Load()
	c.AlphaHits = e.NW.Stats.AlphaHits.Load()
	c.AlphaMisses = e.NW.Stats.AlphaMisses.Load()
	if e.Prof != nil {
		c.Prof = e.Prof.Snapshot()
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

// Mode selects a run variant.
type Mode int

// The three run modes of §3.
const (
	NoChunk Mode = iota
	DuringChunk
	AfterChunk
)

func (m Mode) String() string {
	switch m {
	case NoChunk:
		return "without-chunking"
	case DuringChunk:
		return "during-chunking"
	}
	return "after-chunking"
}

// Lab lazily captures and caches workload runs.
type Lab struct {
	cache map[string]*Capture
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
	return &Lab{cache: map[string]*Capture{}, opts: opts}
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

// SoarTask captures a Soar task run in the given mode. For AfterChunk, the
// chunks learned in a DuringChunk run of the same task are transferred
// into a fresh agent before the run.
func (l *Lab) SoarTask(name string, task *soar.Task, mode Mode) (*Capture, error) {
	key := fmt.Sprintf("%s/%v/org%d/u%v", name, mode, l.opts.Organization, l.opts.Unlink)
	if c, ok := l.cache[key]; ok {
		return c, nil
	}
	cfg := soar.Config{
		Engine:       l.engCfg(),
		Chunking:     mode != NoChunk,
		MaxDecisions: 400,
	}
	a, err := soar.New(cfg, task)
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", name, err)
	}
	cap := &Capture{Name: key, agent: a, eng: a.Eng}
	a.Eng.AfterCycle = func(*prun.CycleStats) {
		cap.BucketAccesses = append(cap.BucketAccesses, a.Eng.NW.Mem.HarvestAccessCounts()...)
	}
	if mode == AfterChunk {
		during, err := l.SoarTask(name, task, DuringChunk)
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
	cap.Halted = res.Halted
	cap.Decisions = res.Decisions
	cap.harvest(a.Eng)
	l.cache[key] = cap
	return cap, nil
}

// soarTaskSeeded runs a during-chunking capture seeded with every chunk
// (including transferred ones) present in a previous capture's network —
// the long-run learning regime of §7.
func (l *Lab) soarTaskSeeded(name string, task *soar.Task, prev *Capture) (*Capture, error) {
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
	cap := &Capture{Name: key, agent: a, eng: a.Eng}
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
	cap.Halted = res.Halted
	cap.Decisions = res.Decisions
	cap.Moves = res.OperatorDecisions
	cap.harvest(a.Eng)
	l.cache[key] = cap
	return cap, nil
}

// EightPuzzle captures the Eight-Puzzle-Soar run.
func (l *Lab) EightPuzzle(mode Mode) (*Capture, error) {
	return l.SoarTask("eight-puzzle", eightpuzzle.Default(), mode)
}

// Strips captures the Strips-Soar run.
func (l *Lab) Strips(mode Mode) (*Capture, error) {
	return l.SoarTask("strips", strips.Default(), mode)
}

// Cypress captures the synthetic Cypress run. NoChunk runs the driver with
// only the task productions; DuringChunk adds the 26 chunks at their
// scripted points; AfterChunk preloads all chunks before driving.
func (l *Lab) Cypress(mode Mode) (*Capture, error) {
	key := fmt.Sprintf("cypress/%v/org%d/u%v", mode, l.opts.Organization, l.opts.Unlink)
	if c, ok := l.cache[key]; ok {
		return c, nil
	}
	sys := cypress.Generate(cypress.DefaultParams())
	e := engine.New(l.engCfg())
	if err := e.LoadProgram(sys.Source); err != nil {
		return nil, fmt.Errorf("exp: cypress load: %w", err)
	}
	cap := &Capture{Name: key, eng: e}
	e.AfterCycle = func(*prun.CycleStats) {
		cap.BucketAccesses = append(cap.BucketAccesses, e.NW.Mem.HarvestAccessCounts()...)
	}
	if mode == AfterChunk {
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
		if _, err := drv.Step(e, cyc, &next, mode == DuringChunk); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
	}
	cap.Halted = true
	cap.Decisions = sys.Params.Cycles
	cap.harvest(e)
	l.cache[key] = cap
	return cap, nil
}

// Workloads returns the three paper tasks in the given mode.
func (l *Lab) Workloads(mode Mode) ([]*Capture, error) {
	ep, err := l.EightPuzzle(mode)
	if err != nil {
		return nil, err
	}
	st, err := l.Strips(mode)
	if err != nil {
		return nil, err
	}
	cy, err := l.Cypress(mode)
	if err != nil {
		return nil, err
	}
	return []*Capture{ep, st, cy}, nil
}

// TaskNames are the display names, in the paper's order.
var TaskNames = []string{"Eight-puzzle", "Strips", "Cypress"}
