// Package exp regenerates every table and figure of the paper's evaluation
// (§5-§6) and checks its claims. Report renders one section per experiment
// driver; the Lab captures each workload's task-dependency traces once
// (sequentially, for determinism) and the drivers replay them on the
// simulated multiprocessor (internal/sim). The scorecard evaluates every
// claim (claims.go) on the drivers' results. See DESIGN.md §4.
package exp

import (
	"fmt"

	"soarpsme/internal/engine"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/obs"
	"soarpsme/internal/ops5"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/sim"
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
	// cycles holds the task DAG of each normal match cycle that ran tasks,
	// indexed for replay, and chains each one's longest dependent chain.
	cycles []sim.Cycle
	chains []chain
	// updates holds the state-update cycles of the measured run-time
	// additions.
	updates []sim.Cycle
	// tasksPerCycle is every normal cycle's task count, zero included.
	tasksPerCycle []int
	tasks         int
	// failedPops/termProbes/steals are the live runtime's queue diagnostics
	// summed over all cycles (§6.1; surfaced by -exp diagnose). failedPops
	// excludes quiescence-detection probes, which land in termProbes.
	failedPops int64
	termProbes int64
	steals     int64
	// bucketAccesses holds per-line left-token access counts per cycle
	// (Figure 6-2's contention measure).
	bucketAccesses []int
	// Chunks built or added during the measured run.
	chunkCEs    []int
	chunkBytes  []int
	chunkNew2In []int
	// sharedTwoInput counts join nodes reused by run-time additions.
	sharedTwoInput int
	halted         bool
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

// chain is a cycle's longest dependent-activation chain (Figure 6-8's
// critical path): its length and the node of the first task that deep
// (where diagnose finds the production it ends in).
type chain struct {
	depth int32
	tail  rete.NodeID
}

// harvest indexes the engine's cycle traces for replay, keeps the counters
// and chunk statistics the drivers read, and then drops the task records:
// nothing reads them after this.
func (c *capture) harvest() {
	e := c.eng
	for i := range e.CycleStats {
		cs := &e.CycleStats[i]
		if len(cs.Trace) > 0 {
			cyc, ch := index(cs.Trace)
			c.cycles, c.chains = append(c.cycles, cyc), append(c.chains, ch)
		}
		c.tasksPerCycle = append(c.tasksPerCycle, cs.Tasks)
		c.tasks += cs.Tasks
		c.failedPops += cs.FailedPops
		c.termProbes += cs.TermProbes
		c.steals += cs.Steals
	}
	for _, add := range e.Additions[c.measuredFrom:] {
		cs := &add.Update
		if len(cs.Trace) > 0 {
			cyc, _ := index(cs.Trace)
			c.updates = append(c.updates, cyc)
		}
		c.tasks += cs.Tasks
		c.failedPops += cs.FailedPops
		c.termProbes += cs.TermProbes
		c.steals += cs.Steals
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
	if e.Prof != nil {
		c.prof = e.Prof.Snapshot()
	}
	for i := range e.CycleStats {
		e.CycleStats[i].Trace = nil
	}
	for _, add := range e.Additions {
		add.Update.Trace = nil
	}
}

// index links a cycle's task records for replay and finds its longest
// chain.
func index(tr []prun.TaskRec) (sim.Cycle, chain) {
	var ch chain
	for _, r := range tr {
		if r.Depth > ch.depth {
			ch = chain{r.Depth, r.Node}
		}
	}
	return sim.Index(len(tr), func(i int) (seq, parent, cost int64) {
		return tr[i].Seq, tr[i].Parent, tr[i].Cost
	}), ch
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

// replay runs cycles back to back on procs simulated processes sharing
// queues task queues (0: one per process, with cycle-stealing).
func replay(cycles []sim.Cycle, procs, queues int) *sim.Result {
	return sim.Run(cycles, sim.Config{Processes: procs, Queues: queues, QueueOp: queueOp})
}

// uniproc replays a run's cycles on one process: Table 6-1's match time
// and task granularity, and the base of every speedup.
func uniproc(cycles []sim.Cycle) *sim.Result { return replay(cycles, 1, 1) }

// speedup is makespan(1)/makespan(P) of the uniprocessor replay one and the
// parallel replay par; a parallel replay that took no time counts as 1.
func speedup(one, par *sim.Result) float64 {
	if par.Makespan == 0 {
		return 1
	}
	return float64(one.Makespan) / float64(par.Makespan)
}

// bytesPer2In is the code the run's additions emitted per new two-input
// node (Table 5-1); 0 if they built none.
func (c *capture) bytesPer2In() float64 {
	bytes, n := 0, 0
	for i := range c.chunkBytes {
		bytes += c.chunkBytes[i]
		n += c.chunkNew2In[i]
	}
	if n == 0 {
		return 0
	}
	return float64(bytes) / float64(n)
}

// pctCyclesAtLeast is the percentage of the run's match cycles that
// executed at least n tasks (Figures 6-11/12).
func (c *capture) pctCyclesAtLeast(n int) float64 {
	if len(c.tasksPerCycle) == 0 {
		return 0
	}
	k := 0
	for _, t := range c.tasksPerCycle {
		if t >= n {
			k++
		}
	}
	return 100 * float64(k) / float64(len(c.tasksPerCycle))
}

// accessShares maps each per-cycle access count a bucket line reached to
// the percentage of all left-token accesses made in lines that reached it
// (Figure 6-2's contention measure; the 1-access share is the uncontended
// one).
func (c *capture) accessShares() map[int]float64 {
	byCount, total := map[int]int{}, 0
	for _, n := range c.bucketAccesses {
		byCount[n] += n
		total += n
	}
	shares := make(map[int]float64, len(byCount))
	for k, n := range byCount {
		shares[k] = 100 * float64(n) / float64(total)
	}
	return shares
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
	return [...]string{"without-chunking", "during-chunking", "after-chunking"}[m]
}

// Lab captures each workload run once, on first request, and caches it by
// everything that determines it (key). Every driver asks the lab it is
// given and states only the network options it changes; nothing else
// builds an engine, so the lab's observer sees every capture.
type Lab struct {
	cache map[key]*capture
	opts  rete.Options
	obs   *obs.Observer
}

// key is what a capture is a function of: the workload, the run mode, the
// whole network configuration and, in the long-run study, the trial.
type key struct {
	workload string
	mode     mode
	opts     rete.Options
	// trial numbers the long-run study's episodes from 1; 0 outside it.
	trial int
}

// NewLab returns an empty lab running the paper's engine: default network
// options with left/right unlinking off, because the paper's engine
// scheduled every null activation and the reproduced tables and figures
// measure that task volume. Only the ablations vary it (ablationUnlink,
// ablationBilinear), through their own options.
func NewLab() *Lab {
	opts := rete.DefaultOptions()
	opts.Unlink = false
	return &Lab{cache: map[key]*capture{}, opts: opts}
}

// SetObserver attaches an observability handle to every engine the lab
// creates from now on (live /metrics while experiments run).
func (l *Lab) SetObserver(o *obs.Observer) { l.obs = o }

// eightPuzzle captures the Eight-Puzzle-Soar run. Each vary changes the
// lab's network options for this capture only; so do strips', cypress'
// and longRun's.
func (l *Lab) eightPuzzle(m mode, vary ...func(*rete.Options)) (*capture, error) {
	return l.capture(key{workload: "eight-puzzle", mode: m}, vary)
}

// strips captures the Strips-Soar run.
func (l *Lab) strips(m mode, vary ...func(*rete.Options)) (*capture, error) {
	return l.capture(key{workload: "strips", mode: m}, vary)
}

// cypress captures the synthetic Cypress run. noChunk runs the driver with
// only the task productions; duringChunk adds the 26 chunks at their
// scripted points; afterChunk preloads all chunks before driving.
func (l *Lab) cypress(m mode, vary ...func(*rete.Options)) (*capture, error) {
	return l.capture(key{workload: "cypress", mode: m}, vary)
}

// longRun captures trial n (from 1) of the long-run learning regime of §7:
// a during-chunking, fixed-budget episode on the nth Eight-puzzle instance,
// seeded with every chunk in trial n-1's network.
func (l *Lab) longRun(n int, vary ...func(*rete.Options)) (*capture, error) {
	return l.capture(key{workload: "eight-puzzle", mode: duringChunk, trial: n}, vary)
}

// workloads returns the three paper tasks in the given mode.
func (l *Lab) workloads(m mode, vary ...func(*rete.Options)) ([]*capture, error) {
	var caps []*capture
	for _, w := range []string{"eight-puzzle", "strips", "cypress"} {
		c, err := l.capture(key{workload: w, mode: m}, vary)
		if err != nil {
			return nil, err
		}
		caps = append(caps, c)
	}
	return caps, nil
}

// taskNames are the display names, in the paper's order.
var taskNames = []string{"Eight-puzzle", "Strips", "Cypress"}

func (l *Lab) capture(k key, vary []func(*rete.Options)) (*capture, error) {
	k.opts = l.opts
	for _, f := range vary {
		f(&k.opts)
	}
	return l.get(k)
}

// get returns the capture for k, running it if the lab has not yet.
func (l *Lab) get(k key) (*capture, error) {
	if c, ok := l.cache[k]; ok {
		return c, nil
	}
	c := &capture{name: fmt.Sprintf("%s/%v", k.workload, k.mode)}
	run := l.runSoar
	if k.workload == "cypress" {
		run = l.runCypress
	}
	if err := run(k, c); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", c.name, err)
	}
	c.harvest()
	l.cache[k] = c
	return c, nil
}

func (l *Lab) engCfg(opts rete.Options) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Processes = 1 // sequential capture: deterministic traces
	cfg.CaptureTrace = true
	cfg.Rete = opts
	cfg.Obs = l.obs
	// Attribution profiling without the flight recorder: diagnose reads
	// per-production null rates and chain depths from the snapshot.
	cfg.Prof = &matchprof.Options{FlightCycles: -1}
	return cfg
}

// record points c at its engine and collects Figure 6-2's per-cycle bucket
// access counts from it.
func (c *capture) record(e *engine.Engine) {
	c.eng = e
	e.AfterCycle = func(*prun.CycleStats) {
		c.bucketAccesses = append(c.bucketAccesses, e.NW.Mem.HarvestAccessCounts()...)
	}
}

// runSoar runs a Soar task. An after-chunking run first adopts the chunks
// its during-chunking run learned, and a long-run trial every chunk in the
// previous trial's network; adopting them is not part of the measured run.
func (l *Lab) runSoar(k key, c *capture) error {
	var task *soar.Task
	decisions := 400
	switch {
	case k.trial > 0:
		task = eightpuzzle.Task(eightpuzzle.Instances()[k.trial-1])
		decisions = 150 // fixed-budget episodes for the long-run study
	case k.workload == "strips":
		task = strips.Default()
	default:
		task = eightpuzzle.Default()
	}
	a, err := soar.New(soar.Config{Engine: l.engCfg(k.opts), Chunking: k.mode != noChunk, MaxDecisions: decisions}, task)
	if err != nil {
		return err
	}
	c.agent = a
	c.record(a.Eng)
	seed := k
	switch {
	case k.mode == afterChunk:
		seed.mode = duringChunk
	case k.trial > 1:
		seed.trial--
	}
	if seed != k {
		from, err := l.get(seed)
		if err != nil {
			return err
		}
		if _, err := a.AdoptChunks(from.agent); err != nil {
			return err
		}
		c.measuredFrom = len(a.Eng.Additions)
	}
	res, err := a.Run()
	if err != nil {
		return err
	}
	c.halted, c.moves = res.Halted, res.OperatorDecisions
	return nil
}

// runCypress drives the synthetic Cypress workload for its scripted cycles.
func (l *Lab) runCypress(k key, c *capture) error {
	sys := cypress.Generate(cypress.DefaultParams())
	e := engine.New(l.engCfg(k.opts))
	if err := e.LoadProgram(sys.Source); err != nil {
		return err
	}
	c.record(e)
	if k.mode == afterChunk {
		for i := range sys.ChunkSrcs {
			ast, err := sys.ParseChunk(i, e.Tab)
			if err != nil {
				return fmt.Errorf("chunk %d: %w", i, err)
			}
			if _, err := e.AddProductionRuntime(ast); err != nil {
				return fmt.Errorf("chunk %d: %w", i, err)
			}
		}
		c.measuredFrom = len(e.Additions) // preload is not part of the measured run
	}
	drv := cypress.NewDriver(sys, e.Tab, e.WM)
	next := 0
	for cyc := 0; cyc < sys.Params.Cycles; cyc++ {
		if _, err := drv.Step(e, cyc, &next, k.mode == duringChunk); err != nil {
			return err
		}
	}
	c.halted = true
	return nil
}
