package snapshot_test

import (
	"fmt"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	"soarpsme/internal/serve"
	"soarpsme/internal/snapshot"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// trajectory is a captured workload in wire form: the genesis snapshot of
// the loaded-but-unrun engine plus every working-memory delta batch the
// original run applied, so the whole run can be replayed into any engine
// configuration. For cypress, chunkAt[i] gives the batch index after which
// runtime chunk i was added.
type trajectory struct {
	genesis []byte
	batches [][]deltaRec
	sys     *cypress.System
	chunkAt []int
}

// deltaRec is one recorded working-memory change in a form independent of
// the recording engine's symbol table: an add keeps its wme's identity and
// time tag, so the replayed trajectory is tag-identical to the original; a
// remove is resolved against the target memory by id.
type deltaRec struct {
	op      wme.Op
	id, tag uint64
	class   string
	fields  []any // symbol name, int64, float64 or nil
}

func recordDeltas(tab *value.Table, ds []wme.Delta) []deltaRec {
	out := make([]deltaRec, len(ds))
	for i, d := range ds {
		w := d.WME
		fs := make([]any, len(w.Fields))
		for j, f := range w.Fields {
			switch f.Kind {
			case value.KindSym:
				fs[j] = tab.Name(f.Sym)
			case value.KindInt:
				fs[j] = f.Int()
			case value.KindFloat:
				fs[j] = f.Float()
			}
		}
		out[i] = deltaRec{op: d.Op, id: w.ID, tag: w.TimeTag, class: tab.Name(w.Class), fields: fs}
	}
	return out
}

// replayDeltas rebuilds a recorded batch against wm: adds become fresh wme
// objects with their recorded identities (raising wm's allocation counters
// past them), removes resolve to the live object in wm so Delete's
// pointer-based index update stays coherent.
func replayDeltas(tab *value.Table, wm *wme.Memory, recs []deltaRec) ([]wme.Delta, error) {
	out := make([]wme.Delta, len(recs))
	for i, r := range recs {
		if r.op == wme.Remove {
			w := wm.Get(r.id)
			if w == nil {
				return nil, fmt.Errorf("remove of unknown wme %d", r.id)
			}
			out[i] = wme.Delta{Op: wme.Remove, WME: w}
			continue
		}
		fs := make([]value.Value, len(r.fields))
		for j, f := range r.fields {
			switch f := f.(type) {
			case string:
				fs[j] = tab.SymV(f)
			case int64:
				fs[j] = value.IntVal(f)
			case float64:
				fs[j] = value.FloatVal(f)
			default:
				fs[j] = value.Nil
			}
		}
		id, tag := wm.Counters()
		wm.SetCounters(max(id, r.id), max(tag, r.tag))
		out[i] = wme.Delta{Op: wme.Add, WME: &wme.WME{ID: r.id, TimeTag: r.tag, Class: tab.Intern(r.class), Fields: fs}}
	}
	return out, nil
}

func captureSoarTrajectory(t *testing.T, mk func() *soar.Task) *trajectory {
	t.Helper()
	a, err := soar.New(soar.Config{Engine: engine.DefaultConfig(), MaxDecisions: 400}, mk())
	if err != nil {
		t.Fatal(err)
	}
	genesis, err := snapshot.Export(a.Eng).Encode()
	if err != nil {
		t.Fatal(err)
	}
	tr := &trajectory{genesis: genesis}
	a.Eng.OnApply = func(ds []wme.Delta) {
		tr.batches = append(tr.batches, recordDeltas(a.Eng.Tab, ds))
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("task did not solve")
	}
	return tr
}

func captureCypressTrajectory(t *testing.T) *trajectory {
	t.Helper()
	sys := cypress.Generate(cypress.Params{Productions: 80, Cycles: 40, Chunks: 16})
	e := engine.New(engine.DefaultConfig())
	if err := e.LoadProgram(sys.Source); err != nil {
		t.Fatal(err)
	}
	genesis, err := snapshot.Export(e).Encode()
	if err != nil {
		t.Fatal(err)
	}
	tr := &trajectory{genesis: genesis, sys: sys}
	drv := cypress.NewDriver(sys, e.Tab, e.WM)
	tr.chunkAt = drv.ChunkAt
	next := 0
	for cyc := 0; cyc < sys.Params.Cycles; cyc++ {
		ds := drv.Batch()
		tr.batches = append(tr.batches, recordDeltas(e.Tab, ds))
		e.ApplyAndMatch(ds)
		for next < len(drv.ChunkAt) && drv.ChunkAt[next] == cyc {
			ast, err := sys.ParseChunk(next, e.Tab)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddProductionRuntime(ast); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	return tr
}

// restoreGenesis decodes the genesis image into a fresh engine under cfg.
func (tr *trajectory) restoreGenesis(t *testing.T, cfg engine.Config) *engine.Engine {
	t.Helper()
	img, err := snapshot.Decode(tr.genesis)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := snapshot.RestoreWithCache(img, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// replay applies batches [from, to) to e, adding cypress chunks on
// schedule, and returns the fingerprint after each batch. Chunks scheduled
// before `from` are assumed already present (restored from the snapshot).
func (tr *trajectory) replay(t *testing.T, e *engine.Engine, from, to int) []string {
	t.Helper()
	next := 0
	for next < len(tr.chunkAt) && tr.chunkAt[next] < from {
		next++
	}
	fps := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		ds, err := replayDeltas(e.Tab, e.WM, tr.batches[i])
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		e.ApplyAndMatch(ds)
		for next < len(tr.chunkAt) && tr.chunkAt[next] == i {
			ast, err := tr.sys.ParseChunk(next, e.Tab)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddProductionRuntime(ast); err != nil {
				t.Fatalf("chunk %d after batch %d: %v", next, i, err)
			}
			next++
		}
		fps = append(fps, serve.Fingerprint(e))
	}
	if e.BadDeltas != 0 {
		t.Fatalf("replay [%d,%d) rejected %d deltas", from, to, e.BadDeltas)
	}
	return fps
}

func policyCfg(pol prun.Policy, procs int) engine.Config {
	ec := engine.DefaultConfig()
	ec.Policy = pol
	ec.Processes = procs
	return ec
}

// TestSnapshotRoundTripProperty is the durability conformance property:
// for each workload and each match configuration, replaying to cycle k,
// snapshotting through the wire form, restoring into a fresh engine, and
// replaying to completion must produce byte-identical per-cycle
// fingerprints to an unbroken replay — including runtime chunks added
// both before the snapshot (carried in the image) and after it.
func TestSnapshotRoundTripProperty(t *testing.T) {
	tasks := []struct {
		name    string
		capture func(t *testing.T) *trajectory
	}{
		{"eight-puzzle", func(t *testing.T) *trajectory {
			return captureSoarTrajectory(t, func() *soar.Task {
				return eightpuzzle.Task(eightpuzzle.Scramble(12, 18))
			})
		}},
		{"strips", func(t *testing.T) *trajectory {
			return captureSoarTrajectory(t, strips.Default)
		}},
		{"cypress", captureCypressTrajectory},
	}
	policies := []prun.Policy{prun.MultiQueue, prun.WorkStealing}
	procs := []int{1, 4, 13}
	if testing.Short() {
		procs = []int{4}
	}

	for _, task := range tasks {
		task := task
		t.Run(task.name, func(t *testing.T) {
			tr := task.capture(t)
			if len(tr.batches) < 4 {
				t.Fatalf("trajectory too short: %d batches", len(tr.batches))
			}
			ref := tr.restoreGenesis(t, policyCfg(prun.MultiQueue, 1))
			refFps := tr.replay(t, ref, 0, len(tr.batches))
			k := 3 * len(tr.batches) / 4

			for _, pol := range policies {
				for _, np := range procs {
					pol, np := pol, np
					t.Run(fmt.Sprintf("%s-p%d", pol, np), func(t *testing.T) {
						cfg := policyCfg(pol, np)
						e1 := tr.restoreGenesis(t, cfg)
						fps := tr.replay(t, e1, 0, k)

						data, err := snapshot.Export(e1).Encode()
						if err != nil {
							t.Fatal(err)
						}
						img, err := snapshot.Decode(data)
						if err != nil {
							t.Fatal(err)
						}
						e2, _, err := snapshot.RestoreWithCache(img, cfg, nil)
						if err != nil {
							t.Fatalf("restore at cycle %d: %v", k, err)
						}
						if got, want := serve.Fingerprint(e2), serve.Fingerprint(e1); got != want {
							t.Fatalf("restored fingerprint at cycle %d\n got %s\nwant %s", k, got, want)
						}
						if err := e2.AuditInvariants(); err != nil {
							t.Fatalf("restored engine audit: %v", err)
						}

						fps = append(fps, tr.replay(t, e2, k, len(tr.batches))...)
						if len(fps) != len(refFps) {
							t.Fatalf("replayed %d cycles, reference has %d", len(fps), len(refFps))
						}
						for i := range fps {
							if fps[i] != refFps[i] {
								t.Fatalf("cycle %d fingerprint diverged (snapshot at %d)\n got %s\nwant %s",
									i, k, fps[i], refFps[i])
							}
						}
					})
				}
			}
		})
	}
}
