package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/tasks/cypress"
)

// testServer boots a serve.Server behind httptest.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// liveSession reaches behind the API for a session the tests drive directly.
func liveSession(s *Server, id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

const serveProgSrc = `
(literalize fact v)
(literalize seen v)
(p note (fact ^v <v>) --> (make seen ^v <v>))
`

// ingest posts ds as an ingest-only /run (one match cycle, no steps) to the
// session at base and returns its result.
func ingest(t *testing.T, base string, ds ...DeltaJSON) RunResult {
	t.Helper()
	var res RunResult
	if code, _ := doJSON(t, "POST", base+"/run", RunRequest{Deltas: ds}, &res); code != http.StatusOK {
		t.Fatalf("ingest %+v: code=%d", ds, code)
	}
	return res
}

func TestProgramSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, Processes: 2})

	var created CreateResult
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	base := ts.URL + "/sessions/" + created.ID

	// Post two adds: one match cycle, two assigned ids.
	if dres := ingest(t, base,
		DeltaJSON{Op: "add", Class: "fact", Fields: []any{1}},
		DeltaJSON{Op: "add", Class: "fact", Fields: []any{2}},
	); len(dres.Added) != 2 || dres.Failed != 0 {
		t.Fatalf("deltas: %+v", dres)
	}

	// The two matches are in the conflict set.
	var cs struct {
		Instantiations []instJSON `json:"instantiations"`
		Fingerprint    string     `json:"fingerprint"`
	}
	if code, _ := doJSON(t, "GET", base+"/conflict-set", nil, &cs); code != http.StatusOK || len(cs.Instantiations) != 2 {
		t.Fatalf("conflict-set: code=%d %+v", code, cs)
	}

	// Run to quiescence: both instantiations fire.
	var rres RunResult
	if code, _ := doJSON(t, "POST", base+"/run", RunRequest{Cycles: 10}, &rres); code != http.StatusOK {
		t.Fatalf("run: %d", code)
	}
	if rres.Fired != 2 || !rres.Quiesced {
		t.Fatalf("run: %+v", rres)
	}

	var info sessionInfo
	if code, _ := doJSON(t, "GET", base, nil, &info); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if info.Fired != 2 || info.WM != 4 || info.BadDeltas != 0 {
		t.Fatalf("stats: %+v", info)
	}

	var audit struct {
		OK bool `json:"ok"`
	}
	if code, _ := doJSON(t, "GET", base+"/audit", nil, &audit); code != http.StatusOK || !audit.OK {
		t.Fatalf("audit: code=%d ok=%v", code, audit.OK)
	}

	if code, _ := doJSON(t, "DELETE", base, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doJSON(t, "GET", base, nil, nil); code != http.StatusNotFound {
		t.Fatalf("stats after delete: %d", code)
	}
}

// TestBadRemoveReportedNotDesynced pins the serve-visible half of the
// WM-delta symmetry fix: removing an unknown wme id is reported as a bad
// delta on a failed-but-recovered cycle, and the session stays consistent.
func TestBadRemoveReportedNotDesynced(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, Obs: obs.New()})
	var created CreateResult
	doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc}, &created)
	base := ts.URL + "/sessions/" + created.ID

	id := ingest(t, base, DeltaJSON{Op: "add", Class: "fact", Fields: []any{7}}).Added[0]

	// Remove it twice in one batch: second is a bad delta.
	dres := ingest(t, base, DeltaJSON{Op: "remove", ID: id}, DeltaJSON{Op: "remove", ID: id})
	if dres.Failed != 1 || dres.Recovered != 1 || dres.BadDeltas != 1 {
		t.Fatalf("double remove: %+v", dres)
	}
	// Remove of a never-allocated id likewise.
	if dres := ingest(t, base, DeltaJSON{Op: "remove", ID: 999999}); dres.Failed != 1 || dres.BadDeltas != 1 {
		t.Fatalf("unknown remove: %+v", dres)
	}

	var audit struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if code, _ := doJSON(t, "GET", base+"/audit", nil, &audit); code != http.StatusOK || !audit.OK {
		t.Fatalf("audit after bad deltas: code=%d %+v", code, audit)
	}
	var info sessionInfo
	doJSON(t, "GET", base, nil, &info)
	if info.BadDeltas != 2 || info.Recovered != 2 {
		t.Fatalf("stats after bad deltas: %+v", info)
	}
}

// stepProgSrc fires once per fact, and each firing's make retracts its own
// instantiation through the negated CE, so every recognize-act step runs
// match tasks.
const stepProgSrc = `
(literalize fact v)
(literalize seen v)
(p note (fact ^v <v>) -(seen ^v <v>) --> (make seen ^v <v>))
`

// TestProgramRunCountsStepCycles pins that a program session's /run counts
// the recognize-act cycles it steps as an ingest or a cypress /run counts
// its cycles: tasks equal to the sum over the engine's own per-cycle stats,
// and a step cycle poisoned by an injected panic in failed and recovered,
// which GET /sessions/{id} reports too.
func TestProgramRunCountsStepCycles(t *testing.T) {
	for _, c := range []struct {
		name  string
		fault *fault.Injector
	}{
		{"healthy", nil},
		{"every-cycle-panics", fault.Seeded(1, fault.Rates{Panic: 1 << 16})},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, ts := testServer(t, Config{Workers: 2, Processes: 2, Fault: c.fault})
			var created CreateResult
			if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: stepProgSrc}, &created); code != http.StatusCreated {
				t.Fatalf("create: %d", code)
			}
			base := ts.URL + "/sessions/" + created.ID
			ingested := ingest(t, base,
				DeltaJSON{Op: "add", Class: "fact", Fields: []any{1}},
				DeltaJSON{Op: "add", Class: "fact", Fields: []any{2}})

			// The engine's cycles are summed by its AfterCycle hook, which is
			// set and read under the session's turn, as a request runs.
			ss := liveSession(s, created.ID)
			underTurn := func(fn func()) {
				t.Helper()
				if _, err := ss.submit(nil, func() (any, error) { fn(); return nil, nil }); err != nil {
					t.Fatal(err)
				}
			}
			var sum RunResult
			underTurn(func() {
				ss.eng.AfterCycle = func(cs *prun.CycleStats) {
					sum.Tasks += cs.Tasks
					if cs.Failed {
						sum.Failed++
					}
					if cs.Recovered {
						sum.Recovered++
					}
				}
			})
			var res RunResult
			if code, _ := doJSON(t, "POST", base+"/run", RunRequest{Cycles: 2}, &res); code != http.StatusOK {
				t.Fatalf("run: %d", code)
			}
			var want RunResult
			underTurn(func() { want = sum })
			if res.Fired != 2 || want.Tasks == 0 {
				t.Fatalf("run fired %d with %d tasks summed over its cycles, want 2 firings that match", res.Fired, want.Tasks)
			}
			if res.Tasks != want.Tasks || res.Failed != want.Failed || res.Recovered != want.Recovered {
				t.Fatalf("run reported tasks=%d failed=%d recovered=%d, its cycles sum to tasks=%d failed=%d recovered=%d",
					res.Tasks, res.Failed, res.Recovered, want.Tasks, want.Failed, want.Recovered)
			}
			if c.fault != nil && (res.Failed != 2 || res.Recovered != 2) {
				t.Fatalf("every step cycle panics, run reported failed=%d recovered=%d", res.Failed, res.Recovered)
			}
			var info sessionInfo
			doJSON(t, "GET", base, nil, &info)
			if info.Recovered != ingested.Recovered+res.Recovered {
				t.Fatalf("recovered_cycles = %d, requests reported %d + %d", info.Recovered, ingested.Recovered, res.Recovered)
			}
		})
	}
}

// TestRunIngestsDeltaBatch pins the batched-ingest path: a /run body
// carrying a delta batch ingests it as ONE match cycle before the driver
// cycles, returns the assigned wme ids, and an ingest-only request (cycles
// 0) is valid.
func TestRunIngestsDeltaBatch(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, Processes: 2})
	var created CreateResult
	doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc}, &created)
	base := ts.URL + "/sessions/" + created.ID

	// Ingest-only: three adds land as one cycle, three ids come back.
	var rres RunResult
	code, _ := doJSON(t, "POST", base+"/run", RunRequest{Deltas: []DeltaJSON{
		{Op: "add", Class: "fact", Fields: []any{1}},
		{Op: "add", Class: "fact", Fields: []any{2}},
		{Op: "add", Class: "fact", Fields: []any{3}},
	}}, &rres)
	if code != http.StatusOK {
		t.Fatalf("ingest-only run: %d", code)
	}
	if rres.Cycles != 1 || len(rres.Added) != 3 || len(rres.Fingerprints) != 1 {
		t.Fatalf("ingest-only run: %+v", rres)
	}

	// Ingest + fire in one request: remove one fact, fire the remaining
	// pending instantiations to quiescence.
	code, _ = doJSON(t, "POST", base+"/run", RunRequest{
		Cycles: 10,
		Deltas: []DeltaJSON{{Op: "remove", ID: rres.Added[0]}},
	}, &rres)
	if code != http.StatusOK {
		t.Fatalf("ingest+run: %d", code)
	}
	if rres.Fired != 2 || !rres.Quiesced || rres.BadDeltas != 0 {
		t.Fatalf("ingest+run: %+v", rres)
	}
	// first cycle = the ingest, then the fired steps.
	if rres.Cycles != 1+rres.Fired {
		t.Fatalf("ingest+run cycles: %+v", rres)
	}

	var info sessionInfo
	doJSON(t, "GET", base, nil, &info)
	if info.WM != 4 { // 3 facts - 1 removed + 2 seen
		t.Fatalf("stats after ingest runs: %+v", info)
	}

	// Without a batch, cycles must still be >= 1.
	if code, _ := doJSON(t, "POST", base+"/run", RunRequest{Cycles: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("cycles=0 without deltas: %d", code)
	}
	// Driver-owned sessions reject batches.
	var cyp CreateResult
	doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Task: "cypress", Params: cypressParams(5, 4, 2, 3)}, &cyp)
	code, _ = doJSON(t, "POST", ts.URL+"/sessions/"+cyp.ID+"/run", RunRequest{
		Cycles: 1, Deltas: []DeltaJSON{{Op: "add", Class: "step"}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("deltas on cypress run: %d", code)
	}
}

// TestRetryAfterHint pins the 429 backoff derivation: 1s at idle scaling
// linearly to 8s at saturation on the worst load fraction, with ±20%
// jitter so synchronized rejections don't readmit as a thundering herd.
// The test bounds every sample to [round(0.8·base), round(1.2·base)]
// clamped within the global [1s, 8s] window, and checks the jitter
// actually spreads mid-range hints across more than one value.
func TestRetryAfterHint(t *testing.T) {
	for _, c := range []struct {
		fracs []float64
		base  float64 // unjittered hint: 1 + 7·load
	}{
		{[]float64{0, 0}, 1},
		{[]float64{0.5, 0}, 4.5}, // half-full queue, idle budget
		{[]float64{0.25, 1}, 8},  // saturated budget dominates
		{[]float64{1, 1}, 8},
		{[]float64{-1, 2}, 8}, // fractions clamp to [0, 1]
		{[]float64{0.1}, 1.7},
	} {
		lo := int(0.8*c.base + 0.5)
		hi := int(1.2*c.base + 0.5)
		if lo < 1 {
			lo = 1
		}
		if hi > 8 {
			hi = 8
		}
		seen := map[int]bool{}
		for i := 0; i < 200; i++ {
			got, err := strconv.Atoi(retryAfterHint(c.fracs...))
			if err != nil {
				t.Fatalf("retryAfterHint(%v): non-numeric %v", c.fracs, err)
			}
			if got < lo || got > hi {
				t.Fatalf("retryAfterHint(%v) = %d, want within [%d, %d]", c.fracs, got, lo, hi)
			}
			if got < 1 || got > 8 {
				t.Fatalf("retryAfterHint(%v) = %d escapes the [1, 8] second window", c.fracs, got)
			}
			seen[got] = true
		}
		if lo != hi && len(seen) < 2 {
			t.Errorf("retryAfterHint(%v): 200 samples all %v — jitter not spreading", c.fracs, seen)
		}
	}
}

func TestCreateValidation(t *testing.T) {
	s, ts := testServer(t, Config{MaxSessions: 1})
	for _, c := range []struct {
		req  CreateRequest
		want int
	}{
		{CreateRequest{}, http.StatusBadRequest},
		{CreateRequest{Task: "nope"}, http.StatusBadRequest},
		{CreateRequest{Program: "(p broken"}, http.StatusBadRequest},
	} {
		if code, _ := doJSON(t, "POST", ts.URL+"/sessions", c.req, nil); code != c.want {
			t.Fatalf("create %+v: code=%d want %d", c.req, code, c.want)
		}
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/nope/run", RunRequest{Cycles: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("run on missing session: %d", code)
	}

	// Cypress params the generator is not defined for, or that are a denial of
	// service on their own, are refused before anything is reserved or
	// generated: the limit's one place stays free throughout.
	for _, params := range []string{
		`{"Productions":-1}`, `{"AvgCEs":1}`, `{"Chunks":-3}`, `{"ChunkCEs":-1}`, `{"Alphabet":-2}`, `{"Cycles":-1}`,
		`{"Productions":100001}`, `{"Productions":50000,"AvgCEs":3}`, `{"Chunks":2000,"ChunkCEs":60}`,
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/sessions",
			strings.NewReader(`{"task":"cypress","params":`+params+`}`)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "cypress params") {
			t.Fatalf("create with params %s: code=%d body=%s, want 400 naming the params", params, rec.Code, rec.Body)
		}
	}
	// The smallest params that pass do generate and run.
	small := CreateRequest{ID: "small", Task: "cypress", Params: &cypress.Params{Productions: 1, AvgCEs: 2, Chunks: 1, ChunkCEs: 1, Alphabet: 1, Cycles: 1}}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", small, nil); code != http.StatusCreated {
		t.Fatalf("create with the smallest valid cypress params: code=%d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/small/run", RunRequest{Cycles: 3, Chunking: true}, nil); code != http.StatusOK {
		t.Fatalf("run on the smallest cypress session: code=%d", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/sessions/small", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: code=%d", code)
	}

	// Everything small the check admits, the generator is defined for.
	for seed := uint64(1); seed <= 20; seed++ {
		for avg := 2; avg <= 5; avg++ {
			for cce := 1; cce <= 3; cce++ {
				p := cypress.Params{Productions: 3, AvgCEs: avg, Chunks: 2, ChunkCEs: cce, Alphabet: 1, Cycles: 1, Seed: seed}
				if err := checkCypressParams(&CreateRequest{Task: "cypress", Params: &p}); err != nil {
					t.Fatalf("%+v refused: %v", p, err)
				}
				cypress.Generate(p)
			}
		}
	}

	// A create that panics after it has reserved its id (behind a listener
	// net/http recovers it) gives back the id and its place under the limit,
	// here the only one.
	s.testHookReserved = func() { panic("build failed past the reservation") }
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the reserved hook did not run between reserve and adopt")
			}
		}()
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/sessions",
			strings.NewReader(`{"id":"neg","program":"(p x (a) --> (halt))"}`)))
	}()
	s.testHookReserved = nil
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{ID: "neg", Program: serveProgSrc}, nil); code != http.StatusCreated {
		t.Fatalf("create after a create that panicked: code=%d, want 201 (reservation leaked)", code)
	}
}

// TestSessionLimit: a create the server is going to refuse — the id is taken,
// or the session table is full — is refused before it does any work. The
// refused requests carry a program no session has used, so a compile would
// show as an image-cache miss.
func TestSessionLimit(t *testing.T) {
	s, ts := testServer(t, Config{MaxSessions: 2, Obs: obs.New()})
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{ID: "taken", Program: serveProgSrc}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	compiles := func() [2]uint64 {
		return [2]uint64{s.ImageCacheStats().Misses, s.cfg.Obs.Counter("rete_image_cache_misses_total").Value()}
	}
	before := compiles()
	unseen := serveProgSrc + "\n(p unseen (fact ^v 1) --> (make seen ^v 1))"

	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{ID: "taken", Program: unseen}, nil); code != http.StatusConflict {
		t.Fatalf("create over a taken id: code=%d, want 409", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc}, nil); code != http.StatusCreated {
		t.Fatalf("second create: %d", code)
	}
	code, hdr := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: unseen}, nil)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("over-limit create: code=%d Retry-After=%q", code, hdr.Get("Retry-After"))
	}
	if after := compiles(); after != before {
		t.Fatalf("refused creates compiled their program: cache misses (stats, metric) %v -> %v", before, after)
	}
}

// TestSessionsOwnNoGoroutine: a session is an engine behind a lock, not a
// goroutine — a server holding 32 idle sessions runs what it ran with none.
// The handler is called directly so no connection goroutines come and go.
func TestSessionsOwnNoGoroutine(t *testing.T) {
	s := New(Config{Workers: 2, Processes: 2})
	defer s.Close()
	h := s.Handler()
	create := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/sessions", strings.NewReader(`{"program":`+strconv.Quote(serveProgSrc)+`}`)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
	}
	create() // compiles the image; the rest are warm
	before := runtime.NumGoroutine()
	for i := 0; i < 32; i++ {
		create()
	}
	// Match workers of a startup cycle exit on their own; give them a moment.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("32 idle sessions hold %d goroutines (%d -> %d)", after-before, before, after)
	}
}

// TestBackpressure429 takes every admission slot of a session and checks the
// next request is rejected fast with 429 + Retry-After instead of queueing —
// and that a waiter whose client goes away before its turn gives its slot
// back without having run.
func TestBackpressure429(t *testing.T) {
	s, ts := testServer(t, Config{QueueDepth: 1, Obs: obs.New()})
	var created CreateResult
	doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc}, &created)
	ss := liveSession(s, created.ID)

	// Hold the turn with a blocking request, then take the one waiting slot
	// with a run whose client can still cancel.
	started := make(chan struct{})
	release := make(chan struct{})
	go ss.submit(nil, func() (any, error) { close(started); <-release; return nil, nil })
	<-started
	cancel := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		_, err := ss.submit(cancel, func() (any, error) {
			return ss.runLogged(&RunRequest{Deltas: []DeltaJSON{{Op: "add", Class: "fact", Fields: []any{1}}}})
		})
		waiter <- err
	}()
	admitted := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); len(ss.admit) != n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d slots taken, want %d", len(ss.admit), n)
			}
		}
	}
	admitted(2)

	code, hdr := doJSON(t, "GET", ts.URL+"/sessions/"+created.ID, nil, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("full queue: code=%d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.cfg.Obs.Counter("serve_backpressure_rejections_total").Value(); got == 0 {
		t.Fatal("rejection not counted")
	}

	// The waiting client goes away: its request returns canceled without
	// waiting for the turn, and the freed slot admits the next request,
	// which waits for the turn in its place.
	close(cancel)
	if err := <-waiter; err != errCanceled {
		t.Fatalf("canceled waiter: err=%v, want %v", err, errCanceled)
	}
	admitted(1)
	next := make(chan int, 1)
	go func() {
		var info sessionInfo
		code, _ := doJSON(t, "GET", ts.URL+"/sessions/"+created.ID, nil, &info)
		if info.Cycles != 0 || info.WM != 0 {
			t.Errorf("canceled waiter ran: %+v", info)
		}
		next <- code
	}()
	admitted(2)
	close(release)
	if code := <-next; code != http.StatusOK {
		t.Fatalf("request admitted into the freed slot: code=%d", code)
	}
}

// TestDrainRejectsButFinishes checks drain semantics: new work is refused
// with 503 while admitted work completes and no cycles are lost, and a
// request that reaches a session after its shutdown is told 410, not 429.
func TestDrainRejectsButFinishes(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	var created CreateResult
	doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc}, &created)
	base := ts.URL + "/sessions/" + created.ID
	ingest(t, base, DeltaJSON{Op: "add", Class: "fact", Fields: []any{1}})

	// Enqueue a run, then drain immediately: the run must still finish.
	type result struct {
		code int
		res  RunResult
	}
	got := make(chan result, 1)
	go func() {
		var r RunResult
		code, _ := doJSON(t, "POST", base+"/run", RunRequest{Cycles: 5}, &r)
		got <- result{code, r}
	}()
	time.Sleep(10 * time.Millisecond)
	s.Drain()

	if code, _ := doJSON(t, "GET", base, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: code=%d, want 503", code)
	}
	// healthz stays reachable and reports draining.
	var hz struct {
		Draining bool `json:"draining"`
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, &hz); code != http.StatusOK || !hz.Draining {
		t.Fatalf("healthz during drain: code=%d draining=%v", code, hz.Draining)
	}

	r := <-got
	if r.code != http.StatusOK || r.res.Fired != 1 {
		t.Fatalf("in-flight run after drain: code=%d %+v", r.code, r.res)
	}
	ss := liveSession(s, created.ID)
	s.Close() // must not hang or drop the completed work

	// Close holds every admission slot for good; that must not read as busy.
	rec := httptest.NewRecorder()
	s.dispatch(rec, httptest.NewRequest("GET", "/sessions/"+created.ID, nil), ss, func() (any, error) {
		t.Error("request ran on a session that was shut down")
		return nil, nil
	})
	if rec.Code != http.StatusGone {
		t.Fatalf("request after shutdown: code=%d, want 410", rec.Code)
	}
}

func TestCypressSessionRuns(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	var created CreateResult
	req := CreateRequest{Task: "cypress", Params: cypressParams(20, 12, 2, 5)}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", req, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if created.Productions != 20 {
		t.Fatalf("productions = %d", created.Productions)
	}
	base := ts.URL + "/sessions/" + created.ID
	var rres RunResult
	if code, _ := doJSON(t, "POST", base+"/run", RunRequest{Cycles: 12, Chunking: true}, &rres); code != http.StatusOK {
		t.Fatalf("run: %d", code)
	}
	if rres.Cycles != 12 || len(rres.Fingerprints) != 12 {
		t.Fatalf("run: %+v", rres)
	}
	var info sessionInfo
	doJSON(t, "GET", base, nil, &info)
	if info.Cycles != 12 || info.Chunks == 0 {
		t.Fatalf("stats: %+v (want 12 cycles and chunks added)", info)
	}
	// Deltas are rejected on driver-owned sessions.
	if code, _ := doJSON(t, "POST", base+"/run", RunRequest{Deltas: []DeltaJSON{{Op: "add", Class: "step"}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("deltas on cypress session: %d", code)
	}
}

// TestChunkScheduleSurvivesChunkingOff pins a cypress session's chunk
// schedule across requests that toggle chunking. With these params chunks
// are due after cycles 20, 22, 25 and 27: a chunk whose cycle passes while
// chunking is off is skipped, and every later one is still added.
func TestChunkScheduleSurvivesChunkingOff(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, Processes: 2})
	for _, c := range []struct {
		runs []RunRequest
		want int
	}{
		{[]RunRequest{{Cycles: 40, Chunking: true}}, 4},
		{[]RunRequest{{Cycles: 21}, {Cycles: 19, Chunking: true}}, 3},
		{[]RunRequest{{Cycles: 23, Chunking: true}, {Cycles: 3}, {Cycles: 14, Chunking: true}}, 3},
	} {
		var created CreateResult
		req := CreateRequest{Task: "cypress", Params: cypressParams(40, 40, 4, 11)}
		if code, _ := doJSON(t, "POST", ts.URL+"/sessions", req, &created); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
		base := ts.URL + "/sessions/" + created.ID
		for _, run := range c.runs {
			if code, _ := doJSON(t, "POST", base+"/run", run, nil); code != http.StatusOK {
				t.Fatalf("%+v: run: %d", c.runs, code)
			}
		}
		var info sessionInfo
		doJSON(t, "GET", base, nil, &info)
		if info.Cycles != 40 || info.Chunks != c.want {
			t.Fatalf("%+v: %d cycles added %d chunks, want 40 and %d", c.runs, info.Cycles, info.Chunks, c.want)
		}
	}
}

// TestCreateCannotSizeSession pins that every session runs at the server's
// width and under its deadline, whatever the create body says: "processes"
// and "deadline", which older clients sent and older session images carry,
// are ignored. A width taken from the request would let one create allocate
// a worker and a queue per process it names; a 1ns deadline would push every
// cycle of its session into the serial replay, which runs outside the
// shared budget.
func TestCreateCannotSizeSession(t *testing.T) {
	s := New(Config{Workers: 2, Processes: 2})
	defer s.Close()
	h := s.Handler()
	create := func(fields string) (id string, allocated uint64) {
		t.Helper()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/sessions", strings.NewReader("{"+fields+"}")))
		runtime.ReadMemStats(&ms)
		var created CreateResult
		if err := json.Unmarshal(rec.Body.Bytes(), &created); rec.Code != http.StatusCreated || err != nil {
			t.Fatalf("create {%s}: %d %s", fields, rec.Code, rec.Body)
		}
		return created.ID, ms.TotalAlloc - before
	}
	prog, _ := json.Marshal(serveProgSrc)
	program := `"program":` + string(prog)
	create(program) // compiles the image every later create shares
	_, plain := create(program)
	_, wide := create(program + `,"processes":100000`)
	if wide > plain+1<<20 {
		t.Fatalf(`a create with "processes":100000 allocated %d bytes, one without it %d`, wide, plain)
	}

	params, _ := json.Marshal(cypressParams(40, 40, 4, 11))
	id, _ := create(`"task":"cypress","params":` + string(params) + `,"deadline":"1ns"`)
	var res RunResult
	if code := call(t, h, "POST", "/sessions/"+id+"/run", RunRequest{Cycles: 40, Chunking: true}, &res); code != http.StatusOK {
		t.Fatalf("run: %d", code)
	}
	if res.Cycles != 40 || res.Failed != 0 || res.Recovered != 0 {
		t.Fatalf(`a create with "deadline":"1ns" ran %d cycles, %d failed and %d recovered; want 40, none poisoned`,
			res.Cycles, res.Failed, res.Recovered)
	}
}

// lockedBuf is a log sink the handler goroutines and the test can share.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRequestID: one id names a request in psmed's response header, its
// error body and its log line. A well-formed client id is kept; with none,
// or a malformed or overlong one, psmed mints its own.
func TestRequestID(t *testing.T) {
	var logs lockedBuf
	_, ts := testServer(t, Config{Workers: 1, Processes: 1, Log: slog.New(slog.NewTextHandler(&logs, nil))})
	minted := regexp.MustCompile(`^r\d{6}$`)
	for _, c := range []struct {
		name, sent string
		kept       bool
	}{
		{"client id", "trace-7f.A_1", true},
		{"no id", "", false},
		{"malformed id", "bad id\twith=spaces", false},
		{"overlong id", strings.Repeat("x", 65), false},
	} {
		// A missing session: the 404 error body carries the id too.
		req, err := http.NewRequest("GET", ts.URL+"/sessions/nope", nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.sent != "" {
			req.Header.Set("X-Request-ID", c.sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			RequestID string `json:"request_id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, decode error %v", c.name, resp.StatusCode, err)
		}
		id := resp.Header.Get("X-Request-ID")
		if c.kept && id != c.sent {
			t.Fatalf("%s: sent %q, response carries %q", c.name, c.sent, id)
		}
		if !c.kept && !minted.MatchString(id) {
			t.Fatalf("%s: sent %q, response carries %q, want a minted id", c.name, c.sent, id)
		}
		if body.RequestID != id {
			t.Fatalf("%s: error body says %q, header says %q", c.name, body.RequestID, id)
		}
		if !strings.Contains(logs.String(), "req="+id+" ") {
			t.Fatalf("%s: log has no line for %q:\n%s", c.name, id, logs.String())
		}
	}
}

// TestOversizeBodyRefused: a create or run body over maxRequestBody gets
// 413 and changes nothing — no session is created, and the target session
// runs no cycle and takes no wme.
func TestOversizeBodyRefused(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, Processes: 2})
	seedSession(t, ts.URL, "b1")
	want, wantFp := sessionState(t, ts.URL, "b1")
	pad := strings.Repeat("a", maxRequestBody)
	if code := postRaw(t, ts.URL+"/sessions", `{"id":"b2","program":"`+pad+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize create: code=%d, want 413", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/sessions/b2", nil, nil); code != http.StatusNotFound {
		t.Fatalf("oversize create left session b2: code=%d", code)
	}
	if code := postRaw(t, ts.URL+"/sessions/b1/run", `{"cycles":1,"deltas":[{"op":"add","class":"fact","fields":["`+pad+`"]}]}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize run: code=%d, want 413", code)
	}
	got, gotFp := sessionState(t, ts.URL, "b1")
	if gotFp != wantFp || got.Cycles != want.Cycles || got.WM != want.WM {
		t.Fatalf("session after an oversize run %+v %s, want %+v %s", got, gotFp, want, wantFp)
	}
	if code := postRaw(t, ts.URL+"/sessions/b1/run", `{"cycles":`); code != http.StatusBadRequest {
		t.Fatalf("malformed run: code=%d, want 400", code)
	}
}
