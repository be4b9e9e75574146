package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/rete"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/hanoi"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/wme"
)

// activation is one right activation an alpha walk emits.
type activation struct {
	node *rete.BetaNode
	w    *wme.WME
	op   wme.Op
}

// walkCheck counts what checkUpdateWalks saw.
type walkCheck struct {
	additions, activations int
}

// checkUpdateWalks makes every state update of e first check its right
// replay: for each live wme, in working-memory order, the activations the
// pruned update walk (rete.InjectUpdate) emits must be, in order, those the
// whole alpha network (rete.Inject) emits for the addition's new nodes.
func checkUpdateWalks(t *testing.T, e *engine.Engine) *walkCheck {
	c := &walkCheck{}
	e.SetBeforeUpdate(func(info *rete.AddInfo) {
		c.additions++
		for _, w := range e.WM.All() {
			var want, got []activation
			e.NW.Inject(wme.Delta{Op: wme.Add, WME: w}, func(n *rete.BetaNode, x *wme.WME, op wme.Op) {
				if n.ID >= info.FirstNewID {
					want = append(want, activation{n, x, op})
				}
			})
			e.NW.InjectUpdate(info, w, func(n *rete.BetaNode, x *wme.WME, op wme.Op) {
				got = append(got, activation{n, x, op})
			})
			if !slices.Equal(got, want) {
				t.Errorf("addition of %s, wme %d: update walk %v, filtered alpha walk %v", info.Prod.Name, w.ID, got, want)
				return
			}
			c.activations += len(got)
		}
	})
	return c
}

// TestUpdateWalkEquivalence checks the update walk on every run-time
// addition of the soar-learn tasks, of cypress's chunk schedule, and of
// cypress on a session over a shared image, whose chunks splice test nodes
// under base test nodes and joins under base memories. (No cypress chunk
// hangs a memory at a base interior node; rete's TestUpdateWalkUnderSplices
// covers that splice.)
func TestUpdateWalkEquivalence(t *testing.T) {
	check := func(t *testing.T, c *walkCheck) {
		t.Helper()
		if c.additions == 0 || c.activations == 0 {
			t.Fatalf("%d additions checked, %d activations: nothing exercised", c.additions, c.activations)
		}
	}
	tasks := map[string]func() *soar.Task{"strips": strips.Default, "blocks": blocks.Default, "hanoi": hanoi.Default}
	for i, b := range eightpuzzle.Instances() {
		tasks[fmt.Sprintf("eight-%d", i)] = func() *soar.Task { return eightpuzzle.Task(b) }
	}
	for name, mk := range tasks {
		t.Run(name, func(t *testing.T) {
			a, err := soar.New(soar.Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 400}, mk())
			if err != nil {
				t.Fatal(err)
			}
			c := checkUpdateWalks(t, a.Eng)
			if _, err := a.Run(); err != nil {
				t.Fatal(err)
			}
			check(t, c)
		})
	}

	sys := cypress.Generate(cypress.DefaultParams())
	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("cypress/shared-image=%t", shared), func(t *testing.T) {
			cfg := engine.DefaultConfig()
			var e *engine.Engine
			if shared {
				img, err := engine.CompileProgram(sys.Source, cfg.Rete)
				if err != nil {
					t.Fatal(err)
				}
				e = engine.NewFromImage(img, cfg)
				if err := e.RunStartup(); err != nil {
					t.Fatal(err)
				}
			} else {
				e = engine.New(cfg)
				if err := e.LoadProgram(sys.Source); err != nil {
					t.Fatal(err)
				}
			}
			c := checkUpdateWalks(t, e)
			drv := cypress.NewDriver(sys, e.Tab, e.WM)
			next := 0
			for cyc := 0; cyc < sys.Params.Cycles; cyc++ {
				if _, err := drv.Step(e, cyc, &next, true); err != nil {
					t.Fatal(err)
				}
			}
			if c.additions != len(sys.ChunkSrcs) {
				t.Fatalf("%d of %d chunks checked", c.additions, len(sys.ChunkSrcs))
			}
			check(t, c)
		})
	}
}
