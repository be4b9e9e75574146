package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"soarpsme/internal/conflict"
	"soarpsme/internal/engine"
	"soarpsme/internal/fault"
	"soarpsme/internal/ops5"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/wme"
)

// csText renders e's match state as text: "wm=W cs=N " then every
// instantiation's line, sorted — what a fingerprint carried before it
// became a digest. Parent fixtures pin this form, and a digest mismatch
// prints it for both sides so the instantiation that differs shows.
func csText(e *engine.Engine) string {
	insts := e.CS.All()
	wire := make([]instJSON, len(insts))
	for i, in := range insts {
		wire[i].Production = in.Prod.Name
		for _, w := range in.WMEs {
			wire[i].TimeTags = append(wire[i].TimeTags, w.TimeTag)
		}
	}
	return textForm(fmt.Sprintf("wm=%d cs=%d ", e.WM.Len(), len(insts)), wire)
}

// textForm is header then each instantiation as "name(t1,t2,…)", sorted.
func textForm(header string, insts []instJSON) string {
	lines := make([]string, 0, len(insts))
	for _, in := range insts {
		b := append([]byte(in.Production), '(')
		for i, tag := range in.TimeTags {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, tag, 10)
		}
		lines = append(lines, string(append(b, ')')))
	}
	slices.Sort(lines)
	return header + strings.Join(lines, " ")
}

// csView is a session's conflict set as GET /conflict-set serves it: the
// fingerprint, and the instantiations rendered as csText does.
type csView struct {
	FP, Text string
}

func (v csView) String() string { return v.FP + "\n  " + v.Text }

// csResponse is the body of GET /sessions/{id}/conflict-set.
type csResponse struct {
	Instantiations []instJSON `json:"instantiations"`
	Fingerprint    string     `json:"fingerprint"`
}

func (r *csResponse) view() csView {
	header, _, _ := strings.Cut(r.Fingerprint, "d=")
	return csView{FP: r.Fingerprint, Text: textForm(header, r.Instantiations)}
}

// conflictSet reads a session's conflict set from its handler h.
func conflictSet(t *testing.T, h http.Handler, id string) csView {
	t.Helper()
	var cs csResponse
	if code := call(t, h, "GET", "/sessions/"+id+"/conflict-set", nil, &cs); code != http.StatusOK {
		t.Fatalf("conflict-set %s: %d", id, code)
	}
	return cs.view()
}

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
	return conflictSet(p.t, p.h, p.id).FP
}

// text renders the session's live conflict set, on the session loop.
func (p *fpProbe) text() string {
	p.t.Helper()
	var text string
	p.onLoop("text", func(ss *session) error { text = csText(ss.eng); return nil })
	return text
}

// check compares a served fingerprint with the from-scratch one, on the
// session loop, and requires the conflict journal to have been consumed.
func (p *fpProbe) check(label, served string) {
	p.t.Helper()
	ss := p.session()
	_, err := ss.submit(nil, func() (any, error) {
		if want := Fingerprint(ss.eng); served != want {
			return nil, fmt.Errorf("incremental digest diverged from the from-scratch one:\n got %s\nwant %s\n  of %s", served, want, csText(ss.eng))
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
	base := p.served()
	p.onLoop("add production", func(ss *session) error {
		ast, err := ops5.ParseProduction(`(p extra (fact ^v <v>) --> (make seen ^v extra))`, ss.eng.Tab)
		if err != nil {
			return err
		}
		_, err = ss.eng.AddProductionRuntime(ast)
		return err
	})
	grown := p.served()
	p.check("add production", grown)
	if grown == base {
		t.Fatalf("run-time production left the fingerprint at %s", base)
	}
	p.onLoop("excise", func(ss *session) error { return ss.eng.NW.RemoveProduction("extra") })
	after := p.served()
	p.check("excise", after)
	if after != base {
		t.Fatalf("excise left the fingerprint at %s, want %s", after, base)
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
	soloFps := soloFingerprints(t, cyp, cyp.Cycles, true)
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
							ref, _ := ingestBaseline(batches[:i+1], csText)
							t.Fatalf("ingest b%d #%d diverged from the serial reference:\n got %s\n  of %s\nwant %s\n  of %s",
								batch, i, res.Fingerprints[0], p.text(), want[i], ref[i])
						}
					}
					p.delete()
				}

				p := newProbe(t, srv, CreateRequest{Task: "cypress", Params: &cyp})
				for i := range soloFps {
					res := p.run(fmt.Sprintf("cypress #%d", i), RunRequest{Cycles: 1, Chunking: true})
					if res.Fingerprints[0] != soloFps[i] {
						ref, _ := solo(cyp, i+1, true, csText)
						t.Fatalf("cypress #%d diverged from the solo serial run:\n got %s\n  of %s\nwant %s\n  of %s",
							i, res.Fingerprints[0], p.text(), soloFps[i], ref[i])
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
				last := conflictSet(t, p.h, p.id)

				srvB := New(Config{Workers: procs, Processes: procs, Policy: pol, DataDir: srv.cfg.DataDir})
				defer srvB.Close()
				pb := &fpProbe{t: t, srv: srvB, h: srvB.Handler()}
				var rr RestoreResult
				if code := call(t, pb.h, "POST", "/sessions/failover/restore", nil, &rr); code != http.StatusOK || rr.Replayed == 0 {
					t.Fatalf("restore: %d %+v", code, rr)
				}
				pb.attach("failover")
				if got := conflictSet(t, pb.h, pb.id); got != last {
					t.Fatalf("restored conflict set\n got %s\nwant %s", got, last)
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

// TestAuditChecksDigest: /audit compares a session's running digest with
// one computed from its live conflict set. A digest that drifted — as a
// missed journal record would leave it — answers ok:false with both.
func TestAuditChecksDigest(t *testing.T) {
	srv := New(Config{Workers: 2, Processes: 2})
	defer srv.Close()
	p := newProbe(t, srv, CreateRequest{Program: mixProgSrc})
	p.ingest("add facts", addFact(1), addFact(2))
	type audit struct {
		OK                       bool
		Error, Fingerprint, Live string
	}
	var a audit
	if code := call(t, p.h, "GET", p.base+"/audit", nil, &a); code != http.StatusOK || !a.OK {
		t.Fatalf("audit of a healthy session: %d %+v", code, a)
	}
	var live string
	p.onLoop("drift", func(ss *session) error {
		ss.fp.sum[1]++
		live = Fingerprint(ss.eng)
		return nil
	})
	a = audit{}
	if code := call(t, p.h, "GET", p.base+"/audit", nil, &a); code != http.StatusOK || a.OK {
		t.Fatalf("audit of a drifted digest: %d %+v, want ok:false", code, a)
	}
	if a.Live != live || a.Fingerprint == live || a.Error == "" {
		t.Fatalf("drifted audit %+v, want the kept digest beside the live %s", a, live)
	}
}

// TestParentImageCachedResult restores testdata/parent-data/pol's image
// without its WAL. The session then stands after seq 1, whose cached
// result the parent wrote with text fingerprints. A retry of seq 1 returns
// those bytes unchanged, because an idempotent retry must get what was
// acknowledged; seq 2 then serves the solo serial run's digests.
func TestParentImageCachedResult(t *testing.T) {
	image, err := os.ReadFile(filepath.Join("testdata", "parent-data", "pol", "image.json"))
	if err != nil {
		t.Fatal(err)
	}
	var parent struct {
		Payload struct {
			LastResult RunResult `json:"lastResult"`
		} `json:"payload"`
	}
	if err := json.Unmarshal(image, &parent); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "pol"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pol", "image.json"), image, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	var rr RestoreResult
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/pol/restore", nil, &rr); code != http.StatusOK || rr.Replayed != 0 || rr.Cycles != 10 {
		t.Fatalf("restore: code=%d %+v, want cycle 10 and nothing replayed", code, rr)
	}

	p := *cypressParams(12, 30, 2, 5)
	texts, err := solo(p, 10, true, csText)
	if err != nil {
		t.Fatal(err)
	}
	var res RunResult
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/pol/run", RunRequest{Cycles: 10, Chunking: true, Seq: 1}, &res); code != http.StatusOK || !res.Cached {
		t.Fatalf("retry of seq 1: code=%d %+v, want the cached result", code, res)
	}
	if !slices.Equal(res.Fingerprints, parent.Payload.LastResult.Fingerprints) || !slices.Equal(res.Fingerprints, texts) {
		t.Fatalf("retry of seq 1\n got %q\nwant the parent's text %q", res.Fingerprints, texts)
	}

	want := soloFingerprints(t, p, 20, true)
	res = RunResult{}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/pol/run", RunRequest{Cycles: 10, Chunking: true, Seq: 2}, &res); code != http.StatusOK || res.Cached {
		t.Fatalf("seq 2: code=%d %+v", code, res)
	}
	if !slices.Equal(res.Fingerprints, want[10:]) {
		t.Fatalf("seq 2\n got %q\nwant %q", res.Fingerprints, want[10:])
	}
}

// TestFingerprintSizeIndependentOfState: over the ingest script at one
// delta per /run, the fingerprint of request 480 and of request 2,400
// differ in length only by the digits of W and N. The text form it
// replaced held the whole conflict set: about 3.9 KB and 79 KB.
func TestFingerprintSizeIndependentOfState(t *testing.T) {
	srv := New(Config{Workers: 1, Processes: 1})
	defer srv.Close()
	p := newProbe(t, srv, CreateRequest{Program: IngestProgram})
	var ids []uint64
	at := map[int]string{}
	for i, ops := range ChopScript(IngestScript(2400), 1) {
		ds, err := IngestBatchJSON(ops, ids)
		if err != nil {
			t.Fatal(err)
		}
		var res RunResult
		if code := call(t, p.h, "POST", p.base+"/run", RunRequest{Deltas: ds}, &res); code != http.StatusOK || len(res.Fingerprints) != 1 {
			t.Fatalf("run %d: %d %+v", i, code, res)
		}
		ids = append(ids, res.Added...)
		if i == 479 || i == 2399 {
			at[i+1] = res.Fingerprints[0]
		}
	}
	// rest is a fingerprint's length less the digits of W and N.
	rest := func(fp string) (int, int) {
		var w, n int
		var d string
		if _, err := fmt.Sscanf(fp, "wm=%d cs=%d %s", &w, &n, &d); err != nil || len(d) != len("d=")+32 {
			t.Fatalf("fingerprint %q is not wm=W cs=N d=<32 hex digits>", fp)
		}
		return len(fp) - len(strconv.Itoa(w)) - len(strconv.Itoa(n)), n
	}
	r480, n480 := rest(at[480])
	r2400, n2400 := rest(at[2400])
	if r480 != r2400 || n2400 <= n480 {
		t.Fatalf("request 480 %q, request 2400 %q: want the same length but for W and N, over a larger set", at[480], at[2400])
	}
	t.Logf("request 480: %s; request 2400: %s", at[480], at[2400])
}

// TestDigestSeparatesSwappedTags: the divergence a wrong join pairing
// leaves — served {p(a,x), p(b,y)} against the reference {p(a,y), p(b,x)},
// same W and N — must change the digest. x and y differ in one bit of
// their last digit, which is where a line hash without avalanche differs
// least. Every one of these pairs must digest differently, and a fixed
// pair of lines keeps a pinned digest.
func TestDigestSeparatesSwappedTags(t *testing.T) {
	inst := func(name string, tags ...uint64) *conflict.Instantiation {
		in := &conflict.Instantiation{Prod: &rete.Production{Name: name}}
		for _, tag := range tags {
			in.WMEs = append(in.WMEs, &wme.WME{TimeTag: tag})
		}
		return in
	}
	digestOf := func(insts ...*conflict.Instantiation) [2]uint64 {
		var d digest
		d.apply(insts, nil)
		return d.sum
	}
	// The digest is fixed across processes and builds: psmeload compares a
	// server's digests with its own, and a snapshot's cached result
	// outlives its process. A per-process seeded hash would fail this.
	var d digest
	d.apply([]*conflict.Instantiation{inst("p", 1, 2), inst("goal-test", 3)}, nil)
	if got, want := d.render(0, 2), "wm=0 cs=2 d=443ab3b80899a2ff04b509fc0d14eb25"; got != want {
		t.Fatalf("digest of p(1,2) goal-test(3) renders %q, want %q", got, want)
	}
	names := []string{"p", "q", "join", "goal-test", "eight-puzzle*apply*move", "chunk-17", "mix*first", "x1"}
	pairs, same := 0, 0
	for _, name := range names {
		for a := uint64(1); a <= 12; a++ {
			for b := a + 1; b <= 12; b++ {
				for base := uint64(10); base < 400; base += 10 {
					for bit := uint64(0); bit < 10; bit += 2 {
						x, y := base+bit, base+bit+1
						served := digestOf(inst(name, a, x), inst(name, b, y))
						ref := digestOf(inst(name, a, y), inst(name, b, x))
						pairs++
						if served == ref {
							same++
							if same <= 3 {
								t.Errorf("%s(%d,%d) %s(%d,%d) and %s(%d,%d) %s(%d,%d) digest alike: %x",
									name, a, x, name, b, y, name, a, y, name, b, x, served)
							}
						}
					}
				}
			}
		}
	}
	if same > 0 {
		t.Fatalf("%d of %d swapped-tag pairs share a digest", same, pairs)
	}
}
