package strips_test

import (
	"fmt"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
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
	a, err := soar.New(soar.Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 400}, strips.Default())
	if err != nil {
		t.Fatal(err)
	}
	var fwd [][]wme.Delta
	a.Eng.OnApply = func(ds []wme.Delta) { fwd = append(fwd, append([]wme.Delta(nil), ds...)) }
	res, err := a.Run()
	a.Eng.OnApply = nil
	if err != nil || !res.Halted {
		t.Fatalf("capture: halted=%v err=%v", res != nil && res.Halted, err)
	}
	var inv [][]wme.Delta
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
