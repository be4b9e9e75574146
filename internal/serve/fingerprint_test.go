package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"soarpsme/internal/fault"
	"soarpsme/internal/ops5"
	"soarpsme/internal/prun"
)

// fpProbe drives one session through its server's handler in-process and,
// after every request, checks the incremental fingerprint the session just
// served against the from-scratch rendering of its engine's conflict set.
type fpProbe struct {
	t    *testing.T
	srv  *Server
	h    http.Handler
	id   string
	base string
}

func call(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var rd bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&rd).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(method, path, &rd))
	if rw.Code >= 300 {
		t.Logf("%s %s: %d %s", method, path, rw.Code, bytes.TrimSpace(rw.Body.Bytes()))
	} else if out != nil {
		if err := json.Unmarshal(rw.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rw.Body.Bytes(), err)
		}
	}
	return rw.Code
}

func newProbe(t *testing.T, srv *Server, req CreateRequest) *fpProbe {
	t.Helper()
	p := &fpProbe{t: t, srv: srv, h: srv.Handler()}
	var created CreateResult
	if code := call(t, p.h, "POST", "/sessions", req, &created); code != http.StatusCreated {
		t.Fatalf("create %+v: %d", req, code)
	}
	p.attach(created.ID)
	return p
}

func (p *fpProbe) attach(id string) {
	p.id, p.base = id, "/sessions/"+id
	p.check("attach", p.served())
}

func (p *fpProbe) session() *session {
	p.srv.mu.Lock()
	defer p.srv.mu.Unlock()
	return p.srv.sessions[p.id]
}

// served is the session's own, incrementally maintained fingerprint.
func (p *fpProbe) served() string {
	p.t.Helper()
	var cs struct {
		Fingerprint string `json:"fingerprint"`
	}
	if code := call(p.t, p.h, "GET", p.base+"/conflict-set", nil, &cs); code != http.StatusOK {
		p.t.Fatalf("conflict-set: %d", code)
	}
	return cs.Fingerprint
}

// check compares a served fingerprint with the from-scratch one, on the
// session loop, and requires the conflict journal to have been consumed.
func (p *fpProbe) check(label, served string) {
	p.t.Helper()
	ss := p.session()
	_, err := ss.submit(nil, func() (any, error) {
		if want := Fingerprint(ss.eng); served != want {
			return nil, fmt.Errorf("incremental fingerprint diverged from the from-scratch one:\n got %s\nwant %s", served, want)
		}
		if a, r := ss.eng.CS.Drain(); len(a)+len(r) != 0 {
			return nil, fmt.Errorf("conflict journal not drained: %d added, %d retracted", len(a), len(r))
		}
		return nil, nil
	})
	if err != nil {
		p.t.Fatalf("%s: %v", label, err)
	}
}

// run posts one /run and checks the fingerprint of its last cycle (send one
// cycle per request to check every cycle).
func (p *fpProbe) run(label string, req RunRequest) *RunResult {
	p.t.Helper()
	var res RunResult
	if code := call(p.t, p.h, "POST", p.base+"/run", req, &res); code != http.StatusOK {
		p.t.Fatalf("%s: run: %d", label, code)
	}
	if n := len(res.Fingerprints); n > 0 {
		p.check(label, res.Fingerprints[n-1])
	}
	return &res
}

// ingest posts ds as an ingest-only /run and checks its one cycle.
func (p *fpProbe) ingest(label string, ds ...DeltaJSON) *RunResult {
	p.t.Helper()
	return p.run(label, RunRequest{Deltas: ds})
}

func (p *fpProbe) delete() {
	p.t.Helper()
	if code := call(p.t, p.h, "DELETE", p.base, nil, nil); code != http.StatusOK {
		p.t.Fatalf("delete: %d", code)
	}
}

// onLoop runs fn on the session loop, the way the session's own commands
// reach its engine.
func (p *fpProbe) onLoop(label string, fn func(ss *session) error) {
	p.t.Helper()
	ss := p.session()
	if _, err := ss.submit(nil, func() (any, error) { return nil, fn(ss) }); err != nil {
		p.t.Fatalf("%s: %v", label, err)
	}
}

// mixProgSrc changes a served conflict set through joins added and
// retracted by deltas and through firings (Step).
const mixProgSrc = `
(literalize fact v)
(literalize seen v)
(p note (fact ^v <v>) --> (make seen ^v <v>))
(p pair (fact ^v <v>) (seen ^v <v>) --> (make seen ^v done))
`

func addFact(v int) DeltaJSON { return DeltaJSON{Op: "add", Class: "fact", Fields: []any{v}} }

// mixFirstHalf and mixSecondHalf are one ingest + Step script,
// split so the restore scenario can put a snapshot and a failover between
// the halves. The first half returns the ids of the facts it added.
func mixFirstHalf(p *fpProbe) []uint64 {
	t := p.t
	added := p.ingest("add facts", addFact(1), addFact(2), addFact(3), addFact(4), addFact(5), addFact(6)).Added
	if len(added) != 6 {
		t.Fatalf("added %v", added)
	}
	p.run("step", RunRequest{Cycles: 1})
	p.run("step", RunRequest{Cycles: 1})
	p.ingest("remove fact", DeltaJSON{Op: "remove", ID: added[0]})
	// A remove of an unknown id is a bad delta: the cycle is poisoned and
	// recovered through BeginRecovery/EndRecovery.
	if res := p.ingest("bad remove", DeltaJSON{Op: "remove", ID: 1 << 40}, addFact(7)); res.Recovered != 1 || res.BadDeltas != 1 {
		t.Fatalf("bad remove not recovered: %+v", res)
	}
	p.run("ingest+step", RunRequest{Deltas: []DeltaJSON{addFact(8)}, Cycles: 1})
	p.run("step", RunRequest{Cycles: 1})
	return added
}

func mixSecondHalf(p *fpProbe, added []uint64) {
	t := p.t
	p.ingest("ingest", addFact(9), DeltaJSON{Op: "remove", ID: added[1]})
	// A production added at run time, then excised. A session's base
	// productions sit in a frozen shared image and cannot be excised, so
	// this is the excise a served session can see: a chunk's.
	base := p.session().fp.bytes
	p.onLoop("add production", func(ss *session) error {
		ast, err := ops5.ParseProduction(`(p extra (fact ^v <v>) --> (make seen ^v extra))`, ss.eng.Tab)
		if err != nil {
			return err
		}
		_, err = ss.eng.AddProductionRuntime(ast)
		return err
	})
	p.check("add production", p.served())
	if grown := p.session().fp.bytes; grown <= base {
		t.Fatalf("run-time production added nothing to the index (%d -> %d bytes)", base, grown)
	}
	p.onLoop("excise", func(ss *session) error { return ss.eng.NW.RemoveProduction("extra") })
	p.check("excise", p.served())
	if after := p.session().fp.bytes; after != base {
		t.Fatalf("excise left the index at %d bytes, want %d", after, base)
	}
	for i := 0; i < 40; i++ {
		if p.run("step to quiescence", RunRequest{Cycles: 1}).Quiesced {
			return
		}
	}
	t.Fatal("mix program did not quiesce")
}

// TestIncrementalFingerprintProperty is the incremental index's contract:
// after every served cycle the fingerprint maintained from the conflict
// journal equals the one rendered from scratch — and the serial reference
// where there is one — whatever changed the conflict set and however the
// cycle was matched.
func TestIncrementalFingerprintProperty(t *testing.T) {
	cyp := *cypressParams(40, 24, 4, 11)
	solo := soloFingerprints(t, cyp, cyp.Cycles, true)
	script := IngestScript(256)

	for _, procs := range []int{1, 4, 13} {
		for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
			t.Run(fmt.Sprintf("%v/p%d", pol, procs), func(t *testing.T) {
				srv := New(Config{Workers: procs, Processes: procs, Policy: pol, DataDir: t.TempDir()})
				defer srv.Close()

				for _, batch := range []int{1, 8, 64} {
					batches := ChopScript(script, batch)
					want, err := IngestBaseline(batches)
					if err != nil {
						t.Fatal(err)
					}
					p := newProbe(t, srv, CreateRequest{Program: IngestProgram})
					var ids []uint64
					for i, ops := range batches {
						ds, err := IngestBatchJSON(ops, ids)
						if err != nil {
							t.Fatal(err)
						}
						res := p.run(fmt.Sprintf("ingest b%d #%d", batch, i), RunRequest{Deltas: ds})
						ids = append(ids, res.Added...)
						if res.Fingerprints[0] != want[i] {
							t.Fatalf("ingest b%d #%d diverged from the serial reference:\n got %s\nwant %s", batch, i, res.Fingerprints[0], want[i])
						}
					}
					p.delete()
				}

				p := newProbe(t, srv, CreateRequest{Task: "cypress", Params: &cyp})
				for i := range solo {
					res := p.run(fmt.Sprintf("cypress #%d", i), RunRequest{Cycles: 1, Chunking: true})
					if res.Fingerprints[0] != solo[i] {
						t.Fatalf("cypress #%d diverged from the solo serial run:\n got %s\nwant %s", i, res.Fingerprints[0], solo[i])
					}
				}
				if p.session().chunks == 0 {
					t.Fatal("cypress run added no chunk at run time")
				}
				p.delete()

				p = newProbe(t, srv, CreateRequest{Program: mixProgSrc})
				mixSecondHalf(p, mixFirstHalf(p))
				p.delete()

				// On a server with a 1ns watchdog, whose every task stalls until
				// it fires, every cycle of the script that runs a task is
				// poisoned and recovered through the serial fallback.
				stall := fault.Seeded(1, fault.Rates{Stall: 1 << 16, StallFor: time.Minute})
				srvNs := New(Config{Workers: procs, Processes: procs, Policy: pol, Deadline: time.Nanosecond, Fault: stall})
				defer srvNs.Close()
				p = newProbe(t, srvNs, CreateRequest{Program: mixProgSrc})
				mixSecondHalf(p, mixFirstHalf(p))
				var info sessionInfo
				if code := call(t, p.h, "GET", p.base, nil, &info); code != http.StatusOK || info.Recovered < info.Cycles/2 {
					t.Fatalf("1ns server: %d of %d cycles recovered (stats %d), want most", info.Recovered, info.Cycles, code)
				}
				p.delete()

				// Snapshot mid-script, leave a WAL tail, fail over to a second
				// server: the restored session's index is rebuilt from the
				// replayed conflict set, brought forward by the WAL replay, and
				// then maintained incrementally again.
				p = newProbe(t, srv, CreateRequest{ID: "failover", Program: mixProgSrc})
				p.ingest("pre-snapshot", addFact(20), addFact(21))
				if code := call(t, p.h, "POST", p.base+"/snapshot", nil, nil); code != http.StatusOK {
					t.Fatalf("snapshot: %d", code)
				}
				added := mixFirstHalf(p)
				last := p.served()

				srvB := New(Config{Workers: procs, Processes: procs, Policy: pol, DataDir: srv.cfg.DataDir})
				defer srvB.Close()
				pb := &fpProbe{t: t, srv: srvB, h: srvB.Handler()}
				var rr RestoreResult
				if code := call(t, pb.h, "POST", "/sessions/failover/restore", nil, &rr); code != http.StatusOK || rr.Replayed == 0 {
					t.Fatalf("restore: %d %+v", code, rr)
				}
				pb.attach("failover")
				if got := pb.served(); got != last {
					t.Fatalf("restored fingerprint\n got %s\nwant %s", got, last)
				}
				mixSecondHalf(pb, added)
			})
		}
	}
}

// TestServedSessionStaysBounded pins that a served session keeps no
// per-cycle record: after N requests the conflict journal is empty, and the
// recovered count, read from the engine's totals, is still right.
func TestServedSessionStaysBounded(t *testing.T) {
	srv := New(Config{Workers: 2, Processes: 2})
	defer srv.Close()
	p := newProbe(t, srv, CreateRequest{Program: IngestProgram})
	var ids []uint64
	recovered := 0
	for i, ops := range ChopScript(IngestScript(400), 1) {
		ds, err := IngestBatchJSON(ops, ids)
		if err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			ds = append(ds, DeltaJSON{Op: "remove", ID: 1 << 40})
			recovered++
		}
		res := p.run(fmt.Sprintf("run %d", i), RunRequest{Deltas: ds})
		ids = append(ids, res.Added...)
	}
	ss := p.session()
	if got := ss.eng.Cycles(); got != 400 {
		t.Fatalf("engine cycle counter = %d, want 400", got)
	}
	if got := ss.eng.Totals.Recovered; got != recovered {
		t.Fatalf("engine totals: %d recovered cycles, want %d", got, recovered)
	}
	var info sessionInfo
	if code := call(t, p.h, "GET", p.base, nil, &info); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if info.Recovered != recovered || info.Cycles != 400 {
		t.Fatalf("stats %+v, want %d recovered of 400 cycles", info, recovered)
	}
}
