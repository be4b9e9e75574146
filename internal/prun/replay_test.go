package prun_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/wme"
)

// instances is a conflict listener that keeps the live instantiations, by
// production name and wme IDs.
type instances struct {
	mu sync.Mutex
	m  map[string]int
}

func (c *instances) change(p *rete.Production, t *rete.Token, by int) {
	var ids []uint64
	for _, w := range t.WMEs() {
		ids = append(ids, w.ID)
	}
	k := p.Name + fmt.Sprint(ids)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[k] += by; c.m[k] == 0 {
		delete(c.m, k)
	}
}

func (c *instances) Insert(p *rete.Production, t *rete.Token)  { c.change(p, t, 1) }
func (c *instances) Retract(p *rete.Production, t *rete.Token) { c.change(p, t, -1) }

// replayCase is a compiled network whose working memory is all.
type replayCase struct {
	name string
	nw   *rete.Network
	all  []*wme.WME
}

// solved runs a Soar task with chunking on and returns the agent's network
// and final working memory (owned), and the same memory over a session
// whose base is the task's productions, frozen, and whose own layer is the
// chunks it learned, added in order (shared).
func solved(t *testing.T, name string, task *soar.Task) []replayCase {
	t.Helper()
	a, err := soar.New(soar.Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 400}, task)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	e := a.Eng
	if len(e.Additions) == 0 {
		t.Fatalf("%s: no chunk learned", name)
	}
	learned := map[*rete.Production]bool{}
	for _, add := range e.Additions {
		learned[add.Prod] = true
	}
	base := rete.NewNetwork(e.Tab, e.Reg, nil, e.NW.Opts)
	for _, p := range e.NW.Productions() {
		if !learned[p] {
			if _, _, err := base.AddProduction(p.AST); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared := rete.NewFromTopology(base.Freeze(), nil, e.NW.Opts)
	for _, add := range e.Additions {
		if _, _, err := shared.AddProduction(add.Prod.AST); err != nil {
			t.Fatal(err)
		}
	}
	all := e.WM.All()
	return []replayCase{{name + "/owned", e.NW, all}, {name + "/shared", shared, all}}
}

// driven runs cypress's driver with its chunk schedule on an owned engine
// and on a session over the program's shared image.
func driven(t *testing.T) []replayCase {
	t.Helper()
	sys := cypress.Generate(cypress.Params{Productions: 100, Chunks: 12, Cycles: 60, Seed: 41})
	var out []replayCase
	for _, shared := range []bool{false, true} {
		cfg := engine.DefaultConfig()
		e := engine.New(cfg)
		name := "cypress/owned"
		if shared {
			img, err := engine.CompileProgram(sys.Source, cfg.Rete)
			if err != nil {
				t.Fatal(err)
			}
			e, name = engine.NewFromImage(img, cfg), "cypress/shared"
			err = e.RunStartup()
			if err != nil {
				t.Fatal(err)
			}
		} else if err := e.LoadProgram(sys.Source); err != nil {
			t.Fatal(err)
		}
		drv := cypress.NewDriver(sys, e.Tab, e.WM)
		next := 0
		for cyc := range sys.Params.Cycles {
			if _, err := drv.Step(e, cyc, &next, true); err != nil {
				t.Fatal(err)
			}
		}
		if len(e.Additions) == 0 {
			t.Fatalf("%s: no chunk added", name)
		}
		out = append(out, replayCase{name, e.NW, e.WM.All()})
	}
	return out
}

// replayReading is what one rebuild of a network's match state leaves: the
// conflict set, the eight NetStats counters it moved and its batch tasks.
type replayReading struct {
	cs   string
	net  [8]int64
	supp int64
}

func netStats(nw *rete.Network) [8]int64 {
	s := &nw.Stats
	return [8]int64{s.ConstTests.Load(), s.Activations.Load(), s.Comparisons.Load(), s.TokensEmitted.Load(),
		s.NullActs.Load(), s.NullSuppressed.Load(), s.AlphaHits.Load(), s.AlphaMisses.Load()}
}

// rebuild resets nw's match state and rebuilds it with fn on a fresh
// one-process runtime; fn returns the batch tasks its cycles ran.
func rebuild(nw *rete.Network, fn func(rt *prun.Runtime) int64) replayReading {
	cs := &instances{m: map[string]int{}}
	nw.CS = cs
	nw.ResetMatchState()
	before := netStats(nw)
	r := replayReading{supp: fn(prun.New(nw, prun.Config{Processes: 1}))}
	after := netStats(nw)
	for i := range r.net {
		r.net[i] = after[i] - before[i]
	}
	keys := make([]string, 0, len(cs.m))
	for k, n := range cs.m {
		keys = append(keys, fmt.Sprintf("%s=%d", k, n))
	}
	slices.Sort(keys)
	r.cs = fmt.Sprint(keys)
	return r
}

// TestReplayIsOneWMECycles pins what a serial replay is: a run of one-wme
// cycles at one process. The final working memory of strips, the
// eight-puzzle and cypress, each on its owned network and over a shared
// base with the learned chunks spliced under it, is replayed on a reset
// network once by ReplaySerial and once by a fresh runtime that runs one
// RunCycle per wme, in the same order. The conflict sets (cypress's final
// one is empty), every NetStats counter and the suppressed batches must
// agree: the replay injects through the same injector, so its suppressed
// right activations ride batch tasks like any cycle's.
func TestReplayIsOneWMECycles(t *testing.T) {
	cases := slices.Concat(
		solved(t, "strips", strips.Default()),
		solved(t, "eight", eightpuzzle.Default()),
		driven(t))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			replay := rebuild(c.nw, func(rt *prun.Runtime) int64 {
				cs := rt.ReplaySerial(c.all)
				if !cs.Recovered || cs.Workers != 1 {
					t.Fatalf("replay stats %+v: want Recovered at one process", cs)
				}
				return cs.SuppBatches
			})
			cycles := rebuild(c.nw, func(rt *prun.Runtime) (supp int64) {
				for _, w := range c.all {
					cs := rt.RunCycle([]wme.Delta{{Op: wme.Add, WME: w}})
					if cs.Failed {
						t.Fatalf("cycle failed: %s", cs.Reason)
					}
					supp += cs.SuppBatches
				}
				return supp
			})
			if replay.net != cycles.net || replay.supp != cycles.supp {
				t.Fatalf("NetStats, batch tasks: replay %v %d, one-wme cycles %v %d", replay.net, replay.supp, cycles.net, cycles.supp)
			}
			if replay.cs != cycles.cs {
				t.Fatalf("conflict set after the replay:\n%s\nafter one-wme cycles:\n%s", replay.cs, cycles.cs)
			}
			if replay.supp == 0 || replay.net[3] == 0 {
				t.Fatalf("replay of %d wmes: %d batch tasks, %d tokens emitted; want some of each", len(c.all), replay.supp, replay.net[3])
			}
		})
	}
}
