package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"soarpsme/internal/obs"
	"soarpsme/internal/serve"
)

const progSrc = `
(literalize fact v)
(literalize seen v)
(p note (fact ^v <v>) --> (make seen ^v <v>))
`

func doJSON(t *testing.T, method, url string, body any, out any) int {
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
	return resp.StatusCode
}

// retryJSON keeps retrying through the failover 503 window.
func retryJSON(t *testing.T, method, url string, body any, out any, wait time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		code := doJSON(t, method, url, body, out)
		if code != http.StatusServiceUnavailable || time.Now().After(deadline) {
			return code
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// cluster is two durable backends sharing a data dir behind one gateway.
type cluster struct {
	dir      string
	backends []*serve.Server
	tss      []*httptest.Server
	gw       *Gateway
	gwTS     *httptest.Server
	obs      *obs.Observer
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{dir: t.TempDir(), obs: obs.New()}
	var urls []string
	for i := 0; i < n; i++ {
		s := serve.New(serve.Config{Workers: 2, Processes: 2, DataDir: c.dir})
		ts := httptest.NewServer(s.Handler())
		c.backends = append(c.backends, s)
		c.tss = append(c.tss, ts)
		urls = append(urls, ts.URL)
	}
	gw, err := New(Config{
		Backends:       urls,
		HealthInterval: 25 * time.Millisecond,
		FailThreshold:  2,
		Obs:            c.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.gw = gw
	c.gwTS = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		c.gwTS.Close()
		gw.Close()
		for _, ts := range c.tss {
			ts.Close()
		}
	})
	return c
}

// crash kills backend i without draining: in-flight connections die, the
// listener closes, no snapshot is written.
func (c *cluster) crash(i int) {
	c.tss[i].CloseClientConnections()
	c.tss[i].Close()
}

// ownerOf finds which live backend hosts the session.
func (c *cluster) ownerOf(t *testing.T, id string) int {
	t.Helper()
	for i, ts := range c.tss {
		code := func() int {
			resp, err := http.Get(ts.URL + "/sessions/" + id)
			if err != nil {
				return 0
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode
		}()
		if code == http.StatusOK {
			return i
		}
	}
	return -1
}

func fingerprint(t *testing.T, base, id string) string {
	t.Helper()
	var cs struct {
		Fingerprint string `json:"fingerprint"`
	}
	if code := retryJSON(t, "GET", base+"/sessions/"+id+"/conflict-set", nil, &cs, 5*time.Second); code != http.StatusOK {
		t.Fatalf("conflict-set %s: %d", id, code)
	}
	return cs.Fingerprint
}

// TestFailover is the gateway's headline property: kill a backend with
// live sessions and every session keeps serving through the same gateway
// URL with identical state and zero lost cycles.
func TestFailover(t *testing.T) {
	c := newCluster(t, 2)
	gw := c.gwTS.URL

	// Create sessions until both backends host at least one (placement is
	// hash-based; a handful of ids covers both).
	owners := map[string]int{}
	seen := map[int]bool{}
	for i := 0; len(seen) < 2 && i < 16; i++ {
		var created serve.CreateResult
		if code := doJSON(t, "POST", gw+"/sessions", serve.CreateRequest{Program: progSrc}, &created); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
		o := c.ownerOf(t, created.ID)
		if o < 0 {
			t.Fatalf("session %s not found on any backend", created.ID)
		}
		owners[created.ID] = o
		seen[o] = true
	}
	if len(seen) < 2 {
		t.Fatalf("placement never used both backends: %v", owners)
	}

	// Push distinct state into every session (journalled in the WAL).
	fps := map[string]string{}
	seq := int64(0)
	for id := range owners {
		seq++
		var res serve.RunResult
		code := doJSON(t, "POST", gw+"/sessions/"+id+"/run", serve.RunRequest{
			Cycles: 5, Seq: seq,
			Deltas: []serve.DeltaJSON{{Op: "add", Class: "fact", Fields: []any{seq}}},
		}, &res)
		if code != http.StatusOK || res.Fired != 1 {
			t.Fatalf("run %s: code=%d %+v", id, code, res)
		}
		fps[id] = fingerprint(t, gw, id)
	}

	// Kill backend 0. The health loop (25ms x 2 fails) or the first
	// proxied request declares it dead and restores its sessions onto
	// backend 1 from the shared data dir.
	c.crash(0)

	for id, o := range owners {
		got := fingerprint(t, gw, id)
		if got != fps[id] {
			t.Fatalf("session %s (was on backend %d): fingerprint after failover\n got %s\nwant %s",
				id, o, got, fps[id])
		}
		// The session still serves mutations through the same URL.
		var res serve.RunResult
		if code := retryJSON(t, "POST", gw+"/sessions/"+id+"/run", serve.RunRequest{
			Cycles: 1, Seq: 100,
			Deltas: []serve.DeltaJSON{{Op: "add", Class: "fact", Fields: []any{"post"}}},
		}, &res, 5*time.Second); code != http.StatusOK || res.Fired != 1 {
			t.Fatalf("post-failover run %s: code=%d %+v", id, code, res)
		}
	}

	// Every victim session was restored exactly once, onto the survivor.
	victims := uint64(0)
	for _, o := range owners {
		if o == 0 {
			victims++
		}
	}
	if got := c.obs.Counter("gateway_sessions_restored_total").Value(); got != victims {
		t.Fatalf("gateway_sessions_restored_total = %d, want %d", got, victims)
	}
	if got := c.obs.Counter("gateway_failovers_total").Value(); got == 0 {
		t.Fatal("gateway_failovers_total = 0 after a backend death")
	}
	for id := range owners {
		if o := c.ownerOf(t, id); o != 1 {
			t.Fatalf("session %s not on survivor after failover (owner=%d)", id, o)
		}
	}
}

// TestSeqRetryAcrossFailover: a request retried with the same Seq after
// the backend died mid-window is answered exactly once — the cached
// result comes back from the restored session.
func TestSeqRetryAcrossFailover(t *testing.T) {
	c := newCluster(t, 2)
	gw := c.gwTS.URL

	var created serve.CreateResult
	if code := doJSON(t, "POST", gw+"/sessions", serve.CreateRequest{ID: "retry1", Program: progSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	owner := c.ownerOf(t, "retry1")
	req := serve.RunRequest{Cycles: 3, Seq: 9,
		Deltas: []serve.DeltaJSON{{Op: "add", Class: "fact", Fields: []any{1}}}}
	var first serve.RunResult
	if code := doJSON(t, "POST", gw+"/sessions/retry1/run", req, &first); code != http.StatusOK || first.Cached {
		t.Fatalf("first run: code=%d %+v", code, first)
	}

	c.crash(owner)

	var retry serve.RunResult
	if code := retryJSON(t, "POST", gw+"/sessions/retry1/run", req, &retry, 5*time.Second); code != http.StatusOK {
		t.Fatalf("retry after crash: %d", code)
	}
	if !retry.Cached || retry.Fired != first.Fired {
		t.Fatalf("retry not served from cache after failover: first=%+v retry=%+v", first, retry)
	}
}

// TestPlacementStability: killing one backend moves only its sessions;
// survivors' placements are untouched (the rendezvous property).
func TestPlacementStability(t *testing.T) {
	g := &Gateway{owner: map[string]*backend{}, restoring: map[string]chan struct{}{}}
	for _, u := range []string{"http://a", "http://b", "http://c"} {
		g.backends = append(g.backends, &backend{url: u, alive: true})
	}
	before := map[string]string{}
	for i := 0; i < 64; i++ {
		id := string(rune('a'+i%26)) + string(rune('0'+i/26))
		before[id] = g.place(id).url
	}
	g.backends[1].alive = false
	moved := 0
	for id, was := range before {
		now := g.place(id).url
		if was == "http://b" {
			if now == "http://b" {
				t.Fatalf("session %s still on dead backend", id)
			}
			moved++
		} else if now != was {
			t.Fatalf("session %s moved from %s to %s though its backend survived", id, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("no session was placed on backend b")
	}
}

// TestNoBackends: with the whole fleet down the gateway answers 503 with
// a retry hint instead of hanging.
func TestAllBackendsDown(t *testing.T) {
	c := newCluster(t, 2)
	gw := c.gwTS.URL
	var created serve.CreateResult
	if code := doJSON(t, "POST", gw+"/sessions", serve.CreateRequest{ID: "x", Program: progSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	c.crash(0)
	c.crash(1)
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(gw + "/sessions/x")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never noticed the fleet died (last status %d)", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// lockedBuf is a log sink the backend's handler goroutines and the test
// can share.
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

// TestRequestIDAcrossGateway: one id names a request at the gateway and at
// the backend. A well-formed client id is kept; with none, or a malformed
// one, the gateway mints the id — and in every case it is what the backend
// logs, what its error body carries and what the client reads back.
func TestRequestIDAcrossGateway(t *testing.T) {
	var logs lockedBuf
	backend := httptest.NewServer(serve.New(serve.Config{
		Workers: 1, Processes: 1,
		Log: slog.New(slog.NewTextHandler(&logs, nil)),
	}).Handler())
	defer backend.Close()
	g, err := New(Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Reached directly with no id, psmed still mints its own.
	resp, err := http.Get(backend.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); !regexp.MustCompile(`^r\d{6}$`).MatchString(id) {
		t.Fatalf("direct request with no id: response carries %q, want a backend-minted id", id)
	}

	minted := regexp.MustCompile(`^gw\d{6}$`)
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
		req, err := http.NewRequest("GET", gw.URL+"/sessions/nope", nil)
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
			t.Fatalf("%s: sent %q, response carries %q, want a gateway-minted id", c.name, c.sent, id)
		}
		if body.RequestID != id {
			t.Fatalf("%s: error body says %q, header says %q", c.name, body.RequestID, id)
		}
		if !strings.Contains(logs.String(), "req="+id+" ") {
			t.Fatalf("%s: backend log has no line for %q:\n%s", c.name, id, logs.String())
		}
	}
}
