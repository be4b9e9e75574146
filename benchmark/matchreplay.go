package main

import (
	"fmt"
	"strconv"
	"time"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/wme"
)

// trajectory is a workload solved once at one match process — so the
// captured batches are the same in every run — together with the engine
// left at the end state and that state's conflict set.
type trajectory struct {
	name string
	eng  *engine.Engine
	fwd  [][]wme.Delta
	inv  [][]wme.Delta
	// insts is the captured conflict set: instantiation (production and
	// time tags) -> multiplicity.
	insts map[string]int
	// cycleOp and checkOp name the trajectory's spans; built once so the
	// timed loop allocates nothing of its own.
	cycleOp, checkOp string
	// stale counts instantiations found in the conflict set after a round
	// that the captured state does not hold (see check).
	stale int
	// changes is the number of wme changes one inverse+forward replay
	// pushes through the network.
	changes int
}

// inverseBatches undoes captured batches: reverse order, Add<->Remove.
// Replaying inverse then forward returns the network to the captured
// state, because rete's add/remove cancellation is exact.
func inverseBatches(batches [][]wme.Delta) [][]wme.Delta {
	inv := make([][]wme.Delta, 0, len(batches))
	for i := len(batches) - 1; i >= 0; i-- {
		src := batches[i]
		out := make([]wme.Delta, 0, len(src))
		for j := len(src) - 1; j >= 0; j-- {
			op := wme.Add
			if src[j].Op == wme.Add {
				op = wme.Remove
			}
			out = append(out, wme.Delta{Op: op, WME: src[j].WME})
		}
		inv = append(inv, out)
	}
	return inv
}

func newTrajectory(name string, eng *engine.Engine, fwd [][]wme.Delta) *trajectory {
	t := &trajectory{name: name, eng: eng, fwd: fwd, inv: inverseBatches(fwd), insts: instantiations(eng),
		cycleOp: "cycle:" + name, checkOp: "check:" + name}
	for _, b := range fwd {
		t.changes += 2 * len(b)
	}
	return t
}

// captureSoar solves a Soar task with chunking on, serially, recording
// every applied batch; the learned chunks stay in the network, so the
// replay is the paper's after-chunking match.
func captureSoar(name string, ecfg engine.Config, mk func() *soar.Task) (*trajectory, error) {
	cfg := soar.Config{Engine: ecfg, Chunking: true, MaxDecisions: 400}
	a, err := soar.New(cfg, mk())
	if err != nil {
		return nil, err
	}
	var batches [][]wme.Delta
	a.Eng.OnApply = func(ds []wme.Delta) { batches = append(batches, append([]wme.Delta(nil), ds...)) }
	res, err := a.Run()
	a.Eng.OnApply = nil
	if err != nil {
		return nil, err
	}
	if !res.Halted {
		return nil, fmt.Errorf("capture %s: %w", name, errUnsolved)
	}
	return newTrajectory(name, a.Eng, batches), nil
}

// replayCypress is the cypress program match-replay drives: small cycles,
// long chains, every chunk added at its scripted point.
func replayCypress(seed uint64) cypress.Params {
	return cypress.Params{Productions: 100, Cycles: 50, Chunks: 26, Seed: seed}
}

// driveCypress runs the cypress workload on e for the given number of
// driver cycles the way a served session does, adding each chunk at its
// scripted cycle.
func driveCypress(e *engine.Engine, sys *cypress.System, cycles int) error {
	drv := cypress.NewDriver(sys, e.Tab, e.WM)
	next := 0
	for cyc := 0; cyc < cycles; cyc++ {
		if cs := e.ApplyAndMatch(drv.Batch()); cs.Failed {
			return fmt.Errorf("cypress cycle %d failed: %s", cyc, cs.Reason)
		}
		for next < len(drv.ChunkAt) && drv.ChunkAt[next] == cyc {
			ast, err := sys.ParseChunk(next, e.Tab)
			if err != nil {
				return err
			}
			if _, err := e.AddProductionRuntime(ast); err != nil {
				return err
			}
			next++
		}
	}
	return nil
}

// captureCypress drives the seeded cypress workload serially, recording
// every applied batch.
func captureCypress(ecfg engine.Config, p cypress.Params) (*trajectory, error) {
	sys := cypress.Generate(p)
	e := engine.New(ecfg)
	if err := e.LoadProgram(sys.Source); err != nil {
		return nil, err
	}
	var batches [][]wme.Delta
	e.OnApply = func(ds []wme.Delta) { batches = append(batches, append([]wme.Delta(nil), ds...)) }
	err := driveCypress(e, sys, sys.Params.Cycles)
	e.OnApply = nil
	if err != nil {
		return nil, err
	}
	return newTrajectory("cypress", e, batches), nil
}

// captureAll captures the three replay trajectories under one engine
// configuration: strips (join-heavy cycles of hundreds of tasks),
// eight-puzzle (tens) and cypress (a handful, dispatch-bound).
func captureAll(ecfg engine.Config, seed uint64) ([]*trajectory, error) {
	st, err := captureSoar("strips", ecfg, strips.Default)
	if err != nil {
		return nil, err
	}
	ep, err := captureSoar("eight", ecfg, func() *soar.Task { return eightpuzzle.Task(eightpuzzle.Instances()[4]) })
	if err != nil {
		return nil, err
	}
	cy, err := captureCypress(ecfg, replayCypress(seed))
	if err != nil {
		return nil, err
	}
	return []*trajectory{st, ep, cy}, nil
}

// instantiations renders an engine's conflict set as a multiset keyed the
// way serve.Fingerprint renders it: production name plus time tags.
func instantiations(e *engine.Engine) map[string]int {
	m := map[string]int{}
	var key []byte
	for _, in := range e.CS.All() {
		key = append(key[:0], in.Prod.Name...)
		for _, w := range in.WMEs {
			key = strconv.AppendUint(append(key, ','), w.TimeTag, 10)
		}
		m[string(key)]++
	}
	return m
}

// check verifies the replay oracles after a round, outside op timing: no
// tombstone is left and every captured instantiation is back. What it
// deliberately does not fail on is a surplus: at two workers a P-node
// activation pair (add then remove of one token in one cycle) can reach
// the conflict set as retract-then-insert, which leaves the instantiation
// behind for good. On this tree that happens on the strips trajectory in
// most rounds at either parallel policy and never at one worker (README,
// "observations"). A failing check here would put a fixed failure share
// into every later verdict, and dropping the comparison would hide the
// defect, so the surplus is counted and reported as conflict.stale_insts.
func (t *trajectory) check() error {
	if n := t.eng.NW.Mem.Tombstones(); n != 0 {
		return fmt.Errorf("%s: %d tombstones after replay", t.name, n)
	}
	now := instantiations(t.eng)
	for k, want := range t.insts {
		if now[k] < want {
			return fmt.Errorf("%s: instantiation %s of the captured conflict set is missing after replay", t.name, k)
		}
	}
	t.stale = 0
	for k, n := range now {
		t.stale += n - t.insts[k]
	}
	return nil
}

// matchReplay is the paper's after-chunking match in isolation: captured
// delta batches replayed through prun.Runtime.RunCycle only, at two
// workers under work-stealing (psmed's default policy). soar, serve and
// the WAL do no work here.
type matchReplay struct {
	trajs []*trajectory
	rts   []*prun.Runtime
}

func setupMatchReplay(e *env) (script, error) {
	trajs, err := captureAll(engine.DefaultConfig(), e.seed)
	if err != nil {
		return nil, err
	}
	m := &matchReplay{trajs: trajs}
	for _, t := range trajs {
		m.rts = append(m.rts, prun.New(t.eng.NW, prun.Config{Processes: matchWorkers, Policy: prun.WorkStealing}))
	}
	return m, nil
}

func (m *matchReplay) run(rounds int, rec *recorder) {
	c := rec.client(0)
	for r := 0; r < rounds; r++ {
		c.beginRound(r)
		for i, t := range m.trajs {
			rt := m.rts[i]
			for _, pass := range [][][]wme.Delta{t.inv, t.fwd} {
				for _, batch := range pass {
					t0 := time.Now()
					cs := rt.RunCycle(batch)
					d := time.Since(t0)
					var err error
					if cs.Failed {
						err = fmt.Errorf("%s cycle failed: %s", t.name, cs.Reason)
					}
					c.op(t.cycleOp, t0, d, len(batch), err)
				}
			}
			t0 := time.Now()
			err := t.check()
			c.aux(t.checkOp, t0, time.Since(t0), err)
		}
		c.endRound()
	}
}

func (m *matchReplay) close() {}
