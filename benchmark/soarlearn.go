package main

import (
	"errors"
	"fmt"
	"time"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/wme"
)

// matchWorkers is the match-worker count every workload runs at, so the
// numbers keep their shape on hosts with more cores than the reference.
const matchWorkers = 2

// soarTask is one learning task of the soar-learn round.
type soarTask struct {
	name string // also the op's span name
	mk   func() *soar.Task
}

// soarTasks are the seven tasks of one soar-learn round. Hanoi is left
// out on purpose: at two match processes it fails to solve within the
// decision bound in about one run in six (README, "observations").
func soarTasks() []soarTask {
	var ts []soarTask
	for i, b := range eightpuzzle.Instances() {
		b := b
		ts = append(ts, soarTask{name: fmt.Sprintf("solve:eight-%d", i), mk: func() *soar.Task { return eightpuzzle.Task(b) }})
	}
	return append(ts, soarTask{"solve:strips", strips.Default}, soarTask{"solve:blocks", blocks.Default})
}

// soarConfig is cmd/soar's configuration for `-chunking -procs 2`.
func soarConfig(processes int, pol prun.Policy) soar.Config {
	cfg := soar.Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 400}
	cfg.Engine.Processes = processes
	cfg.Engine.Policy = pol
	return cfg
}

var errUnsolved = errors.New("task did not halt within the decision bound")

// soarLearn is the paper's during-chunking run: every op builds an agent
// and solves one task with learning on, so decide/elaborate, chunk.Build
// and run-time production addition are on the clock with match.
type soarLearn struct {
	tasks []soarTask
	cfg   soar.Config
	order *rng
}

func setupSoarLearn(e *env) (script, error) {
	return &soarLearn{tasks: soarTasks(), cfg: soarConfig(matchWorkers, prun.MultiQueue), order: newRNG(e.seed, "soar-order")}, nil
}

// solve is one op. A solve fails only when it does not halt: at two
// processes the decision count itself is order-dependent (README), which
// the traced run reports as soar.diverged_solves rather than as failures.
func solve(cfg soar.Config, t soarTask) (*soar.Agent, *soar.Result, error) {
	a, err := soar.New(cfg, t.mk())
	if err != nil {
		return nil, nil, err
	}
	res, err := a.Run()
	if err != nil {
		return a, nil, err
	}
	if !res.Halted {
		return a, res, errUnsolved
	}
	return a, res, nil
}

// soarAgentHooked builds an agent whose engine's public OnApply and
// AfterCycle hooks add the time of every match cycle to *match.
func soarAgentHooked(cfg soar.Config, t soarTask, match *time.Duration) (*soar.Agent, error) {
	a, err := soar.New(cfg, t.mk())
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	a.Eng.OnApply = func([]wme.Delta) { t0 = time.Now() }
	a.Eng.AfterCycle = func(*prun.CycleStats) { *match += time.Since(t0) }
	return a, nil
}

func (s *soarLearn) run(rounds int, rec *recorder) {
	c := rec.client(0)
	for r := 0; r < rounds; r++ {
		c.beginRound(r)
		for _, i := range s.order.perm(len(s.tasks)) {
			t := s.tasks[i]
			t0 := time.Now()
			_, res, err := solve(s.cfg, t)
			d := time.Since(t0)
			work := 0
			if res != nil {
				work = res.Decisions
			}
			c.op(t.name, t0, d, work, err)
		}
		c.endRound()
	}
}

func (s *soarLearn) close() {}
