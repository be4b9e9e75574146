package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestServerEndpoints checks what the diagnostics listener serves — the
// registry and the Go profiles — and that it serves no trace: a served
// process's only trace is each session's flight ring.
func TestServerEndpoints(t *testing.T) {
	o := New()
	o.Counter("match_tasks_total").Add(3)

	s, err := Serve("127.0.0.1:0", o.Reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "match_tasks_total 3") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	for _, path := range []string{"/trace/last-cycle", "/trace/full"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Fatalf("%s: code=%d, want 404", path, code)
		}
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") || strings.Contains(body, "/trace") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}
}

// TestCloseWaitsForInFlightRequests is the graceful-shutdown regression
// test: Close used to hard-close the listener, truncating a /metrics scrape
// or trace download mid-response. Now it must let a started request finish.
func TestCloseWaitsForInFlightRequests(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, err := serveHandler("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "slow-but-complete")
	}))
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- reply{body: string(b), err: err}
	}()

	<-started
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Close must block on the in-flight request, not truncate it.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a request was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := <-got
	if r.err != nil || r.body != "slow-but-complete" {
		t.Fatalf("in-flight request truncated by Close: body=%q err=%v", r.body, r.err)
	}
}

// TestCloseForceAfterTimeout pins the bound: a handler that never returns
// cannot wedge Close past its closeTimeout.
func TestCloseForceAfterTimeout(t *testing.T) {
	wedge := make(chan struct{})
	defer close(wedge)
	s, err := serveHandler("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-wedge
	}))
	if err != nil {
		t.Fatal(err)
	}
	s.closeTimeout = 100 * time.Millisecond
	go http.Get("http://" + s.Addr() + "/")
	// Give the request a moment to reach the handler.
	time.Sleep(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged past its timeout")
	}
}

func TestSetupDisabled(t *testing.T) {
	o, flush, err := Setup("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Fatal("disabled Setup returned an observer")
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSetupFiles checks the files a run's flush writes. The trace file
// starts with the lane metadata, one event per lane however often a lane
// is named (every engine of a run names the same match lanes), before the
// events and batches it holds.
func TestSetupFiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := dir + "/t.json"
	metricsPath := dir + "/m.txt"
	o, flush, err := Setup(tracePath, metricsPath, "")
	if err != nil {
		t.Fatal(err)
	}
	o.Counter("wme_changes_total").Inc()
	o.Trc.InstantTS(0, 0, "x", "", 1, nil)
	o.Trc.SetProcessName(0, "match pipeline")
	o.Trc.SetThreadName(0, 1, "match-1")
	o.Trc.SetThreadName(0, 1, "match-1")
	o.Trc.Batch(func(dst []Event) []Event {
		return append(dst, Event{Name: "t", Cat: "task", Ph: "X", Ts: 2, Dur: 1, Tid: 1})
	})
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	tb, err := io.ReadAll(mustOpen(t, tracePath))
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal(tb, &events); err != nil {
		t.Fatalf("trace file not JSON: %v", err)
	}
	var names []string
	for _, e := range events {
		names = append(names, e.Name)
	}
	if got, want := strings.Join(names, " "), "process_name thread_name x t"; got != want {
		t.Fatalf("trace events %q, want %q", got, want)
	}
	mb, err := io.ReadAll(mustOpen(t, metricsPath))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mb), "wme_changes_total 1") {
		t.Fatalf("metrics file missing counter:\n%s", mb)
	}
}
