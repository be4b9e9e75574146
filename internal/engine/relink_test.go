// Relink stress: the unlink fast path takes lock-free suppression
// snapshots that are re-checked under the line lock, so the dangerous
// window is a join's opposite memory crossing the empty<->non-empty
// boundary while activations are in flight. This test hammers exactly
// that boundary — right memories emptied and refilled, a gate CE whose
// removal empties a downstream join's left memory — at 1/4/13 processes
// under both lock-queue and work-stealing scheduling, and demands:
//
//   - per-cycle conflict-set fingerprints byte-identical to the serial
//     unlink=off run (the filter is a pure scheduling optimization);
//   - the activation-conservation oracle: ordinary tasks (Tasks minus the
//     suppressed-batch carrier tasks) plus suppressed activations must
//     equal the unlink=off task count, so the suppressed counter can
//     never undercount — a suppressed activation that bypassed the
//     counter (or a lost batch entry) breaks the equation.
//
// Run under -race this doubles as the relink-race detector: the snapshot,
// the batched right activations, and the counter updates all execute
// concurrently with the boundary crossings.
package engine_test

import (
	"fmt"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

const relinkProg = `
(literalize gate g)
(literalize left k)
(literalize right k)
(literalize hit k)
(p pair (gate ^g 1) (left ^k <k>) (right ^k <k>) --> (make hit ^k <k>))
`

// relinkScript builds the per-cycle delta batches. Adds and removes never
// share a cycle, so no conjugate add/remove pair can annihilate through a
// tombstone and the total activation count is schedule-independent — the
// property the conservation oracle needs. Each round crosses both unlink
// boundaries: the right memory empties and refills (left activations run
// the emit-side suppression), and the gate removal empties the downstream
// join's left memory (right activations run the injection-side batches).
func relinkScript(e *engine.Engine) [][]wme.Delta {
	tab := e.Tab
	kSym := func(i int) []value.Value { return []value.Value{value.IntVal(int64(i % 7))} }
	mk := func(class string, i int) *wme.WME { return e.WM.Make(tab.Intern(class), kSym(i)) }

	var batches [][]wme.Delta
	adds := func(ws ...*wme.WME) {
		ds := make([]wme.Delta, len(ws))
		for i, w := range ws {
			ds[i] = wme.Delta{Op: wme.Add, WME: w}
		}
		batches = append(batches, ds)
	}
	removes := func(ws ...*wme.WME) {
		ds := make([]wme.Delta, len(ws))
		for i, w := range ws {
			ds[i] = wme.Delta{Op: wme.Remove, WME: w}
		}
		batches = append(batches, ds)
	}

	for round := 0; round < 4; round++ {
		n := 6 + 3*round
		gate := mk("gate", 1)
		adds(gate)
		// Right memory empty: these left activations are all suppressed
		// on the emit side (or scheduled normally with unlink off).
		lefts := make([]*wme.WME, n)
		for i := range lefts {
			lefts[i] = mk("left", i+round)
		}
		adds(lefts...)
		// Non-empty boundary: rights arrive, joins produce hits.
		rights := make([]*wme.WME, n)
		for i := range rights {
			rights[i] = mk("right", i+round)
		}
		adds(rights...)
		// Cross back to empty mid-stream, then refill.
		removes(rights...)
		rights2 := make([]*wme.WME, n)
		for i := range rights2 {
			rights2[i] = mk("right", i+round+1)
		}
		adds(rights2...)
		// Gate removal empties the second join's left memory, so the next
		// right adds ride the injection-side suppressed batches.
		removes(gate)
		rights3 := make([]*wme.WME, n)
		for i := range rights3 {
			rights3[i] = mk("right", i+round+2)
		}
		adds(rights3...)
		// Relink: the gate returns and every live pair must re-match.
		gate2 := mk("gate", 1)
		adds(gate2)
		// Tear the round down so WM stays bounded.
		removes(append(append(append([]*wme.WME{gate2}, lefts...), rights2...), rights3...)...)
	}
	return batches
}

// relinkRun is one execution: per-cycle fingerprints plus the counters the
// conservation oracle needs.
type relinkRun struct {
	fps         []string
	tasks       int64
	suppBatches int64
	suppressed  int64
	auditErr    error
}

func runRelink(t *testing.T, procs int, pol prun.Policy, unlink bool) relinkRun {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Processes = procs
	cfg.Policy = pol
	cfg.Rete.Unlink = unlink
	e := engine.New(cfg)
	if err := e.LoadProgram(relinkProg); err != nil {
		t.Fatalf("load: %v", err)
	}
	var r relinkRun
	for _, ds := range relinkScript(e) {
		cs := e.ApplyAndMatch(ds)
		if cs.Failed && !cs.Recovered {
			t.Fatalf("cycle failed without recovery: %+v", cs)
		}
		r.tasks += int64(cs.Tasks)
		r.suppBatches += cs.SuppBatches
		r.fps = append(r.fps, csFingerprint(e))
	}
	r.suppressed = e.NW.Stats.NullSuppressed.Load()
	r.auditErr = e.AuditInvariants()
	return r
}

func TestRelinkBoundaryStress(t *testing.T) {
	base := runRelink(t, 1, prun.MultiQueue, false)
	if base.suppressed != 0 || base.suppBatches != 0 {
		t.Fatalf("unlink=off run suppressed %d activations in %d batches, want 0",
			base.suppressed, base.suppBatches)
	}
	if base.auditErr != nil {
		t.Fatalf("baseline audit: %v", base.auditErr)
	}
	for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
		for _, procs := range []int{1, 4, 13} {
			pol, procs := pol, procs
			t.Run(fmt.Sprintf("%v/p%d", pol, procs), func(t *testing.T) {
				r := runRelink(t, procs, pol, true)
				if len(r.fps) != len(base.fps) {
					t.Fatalf("cycle count %d != baseline %d", len(r.fps), len(base.fps))
				}
				for c := range r.fps {
					if r.fps[c] != base.fps[c] {
						t.Fatalf("cycle %d diverged from serial unlink=off baseline:\n got  %s\n want %s",
							c, r.fps[c], base.fps[c])
					}
				}
				if r.auditErr != nil {
					t.Fatalf("audit: %v", r.auditErr)
				}
				if r.suppressed == 0 {
					t.Fatal("unlink=on suppressed no activations (boundary workload inert)")
				}
				// Conservation oracle: every activation either ran as an
				// ordinary task or was counted suppressed. An undercounting
				// suppressed counter (or a dropped batch entry) shows up as
				// ordinary+suppressed < baseline tasks.
				ordinary := r.tasks - r.suppBatches
				if got, want := ordinary+r.suppressed, base.tasks; got != want {
					t.Fatalf("activation conservation: ordinary %d + suppressed %d = %d, want %d (baseline tasks; suppBatches=%d)",
						ordinary, r.suppressed, got, want, r.suppBatches)
				}
			})
		}
	}
}
