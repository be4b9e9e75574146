package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"soarpsme/internal/matchprof"
	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/serve"
)

// psmedConfig is cmd/psmed's default configuration on the reference host:
// work-stealing, four processes asked per session from a budget of two
// workers, profiling and metrics always on, no request log. dataDir ""
// leaves sessions volatile. The observer is the harness's own, so its
// counters can be read after the run.
func psmedConfig(o *obs.Observer, dataDir string) serve.Config {
	return serve.Config{
		Workers:     matchWorkers,
		Processes:   4,
		Policy:      prun.WorkStealing,
		QueueDepth:  4,
		MaxSessions: 64,
		Obs:         o,
		DataDir:     dataDir,
		Prof:        &matchprof.Options{SampleEvery: 64, FlightCycles: 16},
	}
}

// call drives one request through the server's handler in-process: no
// listener, no TCP stack, no second scheduler-visible client. Only the
// handler is timed; building the request and copying the response out are
// the client's cost.
func call(h http.Handler, method, path string, body []byte) (start time.Time, d time.Duration, code int, resp []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rw := httptest.NewRecorder()
	start = time.Now()
	h.ServeHTTP(rw, req)
	d = time.Since(start)
	return start, d, rw.Code, rw.Body.Bytes()
}

// decode maps a response to its result type; any non-2xx status is an
// error carrying the server's message. A refused request (429) is a failed
// op like any other: the harness never retries.
func decode(code int, resp []byte, out any) error {
	if code < 200 || code > 299 {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(resp))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return fmt.Errorf("bad response JSON: %w", err)
	}
	return nil
}

// fingerprintSurplus compares a served fingerprint with its serial
// reference. ok is false when the working-memory sizes differ or an
// instantiation of the reference is missing from the served conflict set.
// surplus counts what the served set holds beyond the reference: at two
// match workers a token added and removed within one cycle can reach the
// conflict set as retract-then-insert and stay there (README,
// "observations"). That defect can only add instantiations, never lose
// one, so the oracle fails every other difference and counts this one
// instead of failing it: a known flaky failure share would otherwise sit
// in every later verdict.
func fingerprintSurplus(served, want string) (surplus int, ok bool) {
	if served == want {
		return 0, true
	}
	sf, wf := strings.Fields(served), strings.Fields(want)
	if len(sf) < 2 || len(wf) < 2 || sf[0] != wf[0] {
		return 0, false
	}
	have := make(map[string]int, len(sf))
	for _, in := range sf[2:] {
		have[in]++
	}
	for _, in := range wf[2:] {
		if have[in] == 0 {
			return 0, false
		}
		have[in]--
	}
	return len(sf) - len(wf), true
}

// ingestShape is what separates the two ingest workloads: the same seeded
// stream, chopped and served differently.
type ingestShape struct {
	clients  int
	deltas   int  // stream length per session
	batch    int  // deltas per /run request
	durable  bool // DataDir set, Seq on every request, one mid-stream snapshot
	snapshot int  // request index after which POST /snapshot runs (durable only)
}

var (
	shapeB1 = ingestShape{clients: 1, deltas: 480, batch: 1}
	shapeB8 = ingestShape{clients: 2, deltas: 960, batch: 8, durable: true, snapshot: 60}
)

// serveIngest replays the seeded delta stream into fresh program sessions
// through psmed's handler stack. One round is one session's whole life:
// create, every /run of the chopped stream, delete.
type serveIngest struct {
	shape    ingestShape
	srv      *serve.Server
	h        http.Handler
	obs      *obs.Observer
	dataDir  string
	batches  [][]serve.IngestOp
	baseline []string
	// capture, when set, keeps every /run body and response (the layer
	// suite replays them through encoding/json alone).
	capture *ioCapture
}

type ioCapture struct{ requests, responses [][]byte }

func newServeIngest(e *env, shape ingestShape) (*serveIngest, error) {
	s := &serveIngest{shape: shape, obs: obs.New()}
	s.batches = serve.ChopScript(ingestStream(e.seed, shape.deltas), shape.batch)
	var err error
	if s.baseline, err = serve.IngestBaseline(s.batches); err != nil {
		return nil, err
	}
	if shape.durable {
		if s.dataDir, err = os.MkdirTemp(e.out, "data-"); err != nil {
			return nil, err
		}
	}
	s.srv = serve.New(psmedConfig(s.obs, s.dataDir))
	s.h = s.srv.Handler()
	return s, nil
}

func setupServeIngestB1(e *env) (script, error)  { return newServeIngest(e, shapeB1) }
func setupServeDurableB8(e *env) (script, error) { return newServeIngest(e, shapeB8) }

func (s *serveIngest) run(rounds int, rec *recorder) {
	var wg sync.WaitGroup
	for id := 0; id < s.shape.clients; id++ {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c.beginRound(r)
				s.session(c)
				c.endRound()
			}
		}(rec.client(id))
	}
	wg.Wait()
}

// session is one round. After a failed create there is no session to run
// against, so the round's remaining requests are recorded as failed rather
// than silently skipped: attempted stays the script's length.
func (s *serveIngest) session(c *client) {
	body, _ := json.Marshal(serve.CreateRequest{Program: serve.IngestProgram})
	t0, d, code, resp := call(s.h, "POST", "/sessions", body)
	var created serve.CreateResult
	err := decode(code, resp, &created)
	c.aux("create", t0, d, err)
	if err != nil {
		for range s.batches {
			c.op("run", t0, 0, 0, fmt.Errorf("no session: %w", err))
		}
		return
	}
	base := "/sessions/" + created.ID
	var ids []uint64
	for i, ops := range s.batches {
		t0, d, err := s.request(c, base, i, ops, &ids)
		c.op("run", t0, d, len(ops), err)
		if s.shape.durable && i+1 == s.shape.snapshot {
			t0, d, code, resp = call(s.h, "POST", base+"/snapshot", nil)
			c.aux("snapshot", t0, d, decode(code, resp, nil))
		}
	}
	t0, d, code, resp = call(s.h, "DELETE", base, nil)
	c.aux("delete", t0, d, decode(code, resp, nil))
}

// request sends the i-th /run of a session and checks its answer; the ids
// the server assigned to the batch's adds are appended to *ids.
func (s *serveIngest) request(c *client, base string, i int, ops []serve.IngestOp, ids *[]uint64) (time.Time, time.Duration, error) {
	deltas, err := serve.IngestBatchJSON(ops, *ids)
	if err != nil {
		return time.Now(), 0, err
	}
	req := serve.RunRequest{Deltas: deltas}
	if s.shape.durable {
		req.Seq = int64(i + 1)
	}
	body, _ := json.Marshal(req)
	t0, d, code, resp := call(s.h, "POST", base+"/run", body)
	if s.capture != nil {
		s.capture.requests = append(s.capture.requests, body)
		s.capture.responses = append(s.capture.responses, resp)
	}
	var res serve.RunResult
	if err := decode(code, resp, &res); err != nil {
		return t0, d, err
	}
	*ids = append(*ids, res.Added...)
	return t0, d, s.verify(c, i, &res)
}

// verify is the correctness oracle of one /run: exactly one clean cycle
// whose conflict-set fingerprint matches the serial in-process reference.
func (s *serveIngest) verify(c *client, i int, res *serve.RunResult) error {
	if res.Cycles != 1 || res.BadDeltas != 0 || res.Failed != 0 || res.Cached || len(res.Fingerprints) != 1 {
		return fmt.Errorf("request %d: cycles=%d bad=%d failed=%d cached=%v fingerprints=%d",
			i, res.Cycles, res.BadDeltas, res.Failed, res.Cached, len(res.Fingerprints))
	}
	surplus, ok := fingerprintSurplus(res.Fingerprints[0], s.baseline[i])
	if !ok {
		return fmt.Errorf("request %d: fingerprint differs from the serial reference", i)
	}
	if surplus > 0 {
		c.noteStale()
	}
	return nil
}

func (s *serveIngest) close() {
	s.srv.Close()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}
