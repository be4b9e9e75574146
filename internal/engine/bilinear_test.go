// Bilinear conformance: restructuring is a pure network-shape change, so
// the per-cycle conflict sets must be byte-identical across off/all/auto
// organizations, at every process count, with unlink default-on — and the
// same must hold for restructured chunks added at run time on a shared
// image's copy-on-write suffix. Runs under the CI -race leg.
package engine_test

import (
	"fmt"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/tasks/cypress"
)

// runCypressBilinear drives the cypress workload — chunks added at run time
// through the production-addition path — at the given process count and
// organization. Unlink stays at its default (on).
func runCypressBilinear(t *testing.T, procs int, org rete.Organization) unlinkRun {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Processes = procs
	cfg.Policy = prun.WorkStealing
	cfg.Rete.Organization = org
	e := engine.New(cfg)
	sys := cypress.Generate(cypress.Params{Productions: 40, Cycles: 15, Seed: 9})
	if err := e.LoadProgram(sys.Source); err != nil {
		t.Fatalf("load: %v", err)
	}
	drv := cypress.NewDriver(sys, e.Tab, e.WM)
	var r unlinkRun
	next := 0
	for c := 0; c < sys.Params.Cycles; c++ {
		if _, err := drv.Step(e, c, &next, true); err != nil {
			t.Fatal(err)
		}
		r.fps = append(r.fps, csFingerprint(e))
	}
	r.suppress = e.NW.Stats.NullSuppressed.Load()
	r.auditErr = e.AuditInvariants()
	// Selection sanity: auto must restructure the cypress long chains
	// (26-CE class productions and 51-CE chunks), all must restructure
	// everything eligible, off nothing.
	restructured := 0
	for _, p := range e.NW.Productions() {
		if p.Restructured {
			restructured++
		}
	}
	switch org {
	case rete.Linear:
		if restructured != 0 {
			t.Fatalf("off restructured %d productions", restructured)
		}
	default:
		if restructured == 0 {
			t.Fatalf("%v restructured nothing", org)
		}
	}
	return r
}

// TestBilinearConformance compares per-cycle conflict-set fingerprints of
// the bilinear organizations against the linear serial baseline across
// process counts 1/4/13 with unlink default-on.
func TestBilinearConformance(t *testing.T) {
	base := runCypressBilinear(t, 1, rete.Linear)
	if base.auditErr != nil {
		t.Fatalf("baseline audit: %v", base.auditErr)
	}
	for _, org := range []rete.Organization{rete.Bilinear, rete.BilinearAuto} {
		for _, procs := range []int{1, 4, 13} {
			if testing.Short() && procs == 13 {
				continue
			}
			org, procs := org, procs
			t.Run(fmt.Sprintf("%v/p%d", org, procs), func(t *testing.T) {
				r := runCypressBilinear(t, procs, org)
				if r.auditErr != nil {
					t.Fatalf("audit: %v", r.auditErr)
				}
				if len(r.fps) != len(base.fps) {
					t.Fatalf("cycle count %d != baseline %d", len(r.fps), len(base.fps))
				}
				for c := range r.fps {
					if r.fps[c] != base.fps[c] {
						t.Fatalf("cycle %d diverged from linear serial baseline:\n got  %s\n want %s",
							c, r.fps[c], base.fps[c])
					}
				}
			})
		}
	}
}

// TestBilinearImageCoWExcise: a session over a SHARED auto-bilinear image
// adds a restructured chunk on its private copy-on-write suffix, matches,
// then excises it — the suffix rebuild must leave the session byte-
// equivalent to one that never learned the chunk, and the shared prefix
// untouched (a second session on the same image keeps matching).
func TestBilinearImageCoWExcise(t *testing.T) {
	opts := engine.DefaultConfig().Rete
	opts.Organization = rete.BilinearAuto
	sys := cypress.Generate(cypress.Params{Productions: 40, Cycles: 15, Seed: 9})
	img, err := engine.CompileProgram(sys.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	mkSession := func(procs int) *engine.Engine {
		cfg := engine.DefaultConfig()
		cfg.Processes = procs
		cfg.Policy = prun.WorkStealing
		cfg.Rete.Organization = rete.BilinearAuto
		return engine.NewFromImage(img, cfg)
	}
	learner := mkSession(4)
	witness := mkSession(1)
	drvL := cypress.NewDriver(sys, learner.Tab, learner.WM)
	drvW := cypress.NewDriver(sys, witness.Tab, witness.WM)

	var witnessFPs []string
	var chunkName string
	for c := 0; c < sys.Params.Cycles; c++ {
		learner.ApplyAndMatch(drvL.Batch())
		witness.ApplyAndMatch(drvW.Batch())
		witnessFPs = append(witnessFPs, csFingerprint(witness))
		if c == 5 {
			ast, err := sys.ParseChunk(0, learner.Tab)
			if err != nil {
				t.Fatal(err)
			}
			res, err := learner.AddProductionRuntime(ast)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Prod.Restructured {
				t.Fatalf("51-CE chunk not restructured on the CoW suffix")
			}
			chunkName = res.Prod.Name
		}
		if c == 10 {
			if err := learner.ExciseProduction(chunkName); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := learner.AuditInvariants(); err != nil {
		t.Fatalf("learner audit: %v", err)
	}
	if err := witness.AuditInvariants(); err != nil {
		t.Fatalf("witness audit: %v", err)
	}
	// After excise the learner's conflict set must equal the witness's
	// (same trajectory, chunk gone).
	if got, want := csFingerprint(learner), witnessFPs[len(witnessFPs)-1]; got != want {
		t.Fatalf("post-excise learner diverges from never-learned witness:\n got  %s\n want %s", got, want)
	}
}
