package strips_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"soarpsme/internal/conflict"
	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/serve"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/wme"
)

// TestParallelReplayLeavesNoStaleInstantiation is the regression test for
// the P-node ordering defect: strips cycles add and remove one token
// within a cycle often enough that, with the conflict set updated after
// the P-node's line lock was released, a replay round at two workers left
// one to three instantiations behind whose retract had overtaken their
// insert. The solved, chunked engine's captured delta batches are replayed
// inverse then forward — which returns the network to the captured state —
// and every round must end with exactly the captured conflict set.
func TestParallelReplayLeavesNoStaleInstantiation(t *testing.T) {
	a, inv, fwd := capture(t)
	want := serve.Fingerprint(a.Eng)

	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for _, procs := range []int{2, 4} {
		for _, policy := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
			t.Run(fmt.Sprintf("%v/p%d", policy, procs), func(t *testing.T) {
				rt := prun.New(a.Eng.NW, prun.Config{Processes: procs, Policy: policy})
				for r := 0; r < rounds; r++ {
					for _, pass := range [][][]wme.Delta{inv, fwd} {
						for _, batch := range pass {
							if cs := rt.RunCycle(batch); cs.Failed {
								t.Fatalf("round %d: cycle failed: %s", r, cs.Reason)
							}
						}
					}
					if n := a.Eng.NW.Mem.Tombstones(); n != 0 {
						t.Fatalf("round %d: %d tombstones", r, n)
					}
					if got := serve.Fingerprint(a.Eng); got != want {
						t.Fatalf("round %d: conflict set differs from the captured one:\n got %s\nwant %s", r, got, want)
					}
				}
			})
		}
	}
}

// capture solves strips with chunking on, serially, and returns the agent
// with the delta batches it applied (forward) and their inverse: reverse
// order, Add and Remove swapped. Replaying inverse then forward returns the
// network to the captured state.
func capture(t *testing.T) (a *soar.Agent, inv, fwd [][]wme.Delta) {
	t.Helper()
	a, err := soar.New(soar.Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 400}, strips.Default())
	if err != nil {
		t.Fatal(err)
	}
	a.Eng.OnApply = func(ds []wme.Delta) { fwd = append(fwd, append([]wme.Delta(nil), ds...)) }
	res, err := a.Run()
	a.Eng.OnApply = nil
	if err != nil || !res.Halted {
		t.Fatalf("capture: halted=%v err=%v", res != nil && res.Halted, err)
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		var out []wme.Delta
		for j := len(fwd[i]) - 1; j >= 0; j-- {
			op := wme.Add
			if fwd[i][j].Op == wme.Add {
				op = wme.Remove
			}
			out = append(out, wme.Delta{Op: op, WME: fwd[i][j].WME})
		}
		inv = append(inv, out)
	}
	return a, inv, fwd
}

// TestReplaySteadyStateAllocs pins what a steady-state parallel match
// allocates. After a warm-up round, a second inverse+forward replay at two
// workers allocates (a) no more than one object per emitted or suppressed
// token, three per conflict-set insert (the instantiation, its wme slice
// and its map bucket) and a small constant per cycle — so memory entries
// cost nothing, because lines hold them by value in arrays that a repeat of
// the same work does not outgrow — and (b) no more than the same round at
// one worker plus that constant — so tasks cost nothing either, because
// the free lists are dealt back out after every cycle with helpers. The
// constant covers the cycle's control block, a helper's start, a
// suppressed batch's slice, conflict-set inserts of transient pairs and
// the occasional hash line or conflict-set journal outgrowing its array.
func TestReplaySteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("solves strips")
	}
	a, inv, fwd := capture(t)
	nw := a.Eng.NW
	ins := &insertCounter{Set: a.Eng.CS}
	nw.CS = ins
	// round replays inverse then forward through rt and returns the objects
	// allocated, the tokens emitted or suppressed, the conflict-set inserts,
	// the cycles and the cycles that started a helper.
	round := func(rt *prun.Runtime) (allocs, emitted, inserts, cycles, helped int64) {
		var before, after runtime.MemStats
		emitted = -nw.Stats.TokensEmitted.Load() - nw.Stats.NullSuppressed.Load()
		inserts = -ins.n.Load()
		runtime.ReadMemStats(&before)
		for _, pass := range [][][]wme.Delta{inv, fwd} {
			for _, batch := range pass {
				cs := rt.RunCycle(batch)
				if cs.Failed {
					t.Fatalf("cycle failed: %s", cs.Reason)
				}
				cycles++
				if cs.Workers > 1 {
					helped++
				}
			}
		}
		runtime.ReadMemStats(&after)
		emitted += nw.Stats.TokensEmitted.Load() + nw.Stats.NullSuppressed.Load()
		inserts += ins.n.Load()
		if n := nw.Mem.Tombstones(); n != 0 {
			t.Fatalf("%d tombstones after a replay round", n)
		}
		return int64(after.Mallocs - before.Mallocs), emitted, inserts, cycles, helped
	}
	serial := prun.New(nw, prun.Config{Processes: 1, Policy: prun.WorkStealing})
	parallel := prun.New(nw, prun.Config{Processes: 2, Policy: prun.WorkStealing})
	round(serial)
	round(parallel)
	one, _, _, _, _ := round(serial)
	two, emitted, inserts, cycles, helped := round(parallel)

	const perCycle = 8
	t.Logf("steady-state round: %d objects at one worker, %d at two; %d tokens emitted or suppressed, %d conflict-set inserts, %d cycles (%d with helpers)",
		one, two, emitted, inserts, cycles, helped)
	if helped == 0 {
		t.Fatalf("no cycle started a helper: the replay does not exercise the free-list rebalance")
	}
	if bound := emitted + 3*inserts + perCycle*cycles; two > bound {
		t.Fatalf("a steady-state replay round allocates %d objects, want at most %d", two, bound)
	}
	if bound := one + perCycle*cycles; two > bound {
		t.Fatalf("a steady-state replay round allocates %d objects at two workers, want at most %d (%d at one worker)", two, bound, one)
	}
}

// insertCounter counts conflict-set inserts on their way to the set.
type insertCounter struct {
	*conflict.Set
	n atomic.Int64
}

func (c *insertCounter) Insert(p *rete.Production, tok *rete.Token) {
	c.n.Add(1)
	c.Set.Insert(p, tok)
}
