package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildTestTrace emits a small deterministic trace: two worker lanes, a
// cycle span, a steal-flagged task and a chunk instant.
func buildTestTrace() *Tracer {
	trc := NewTracer()
	trc.SetProcessName(0, "match pipeline")
	trc.SetThreadName(0, 0, "control")
	trc.SetThreadName(0, 1, "match-1")
	trc.SetThreadName(0, 2, "match-2")
	trc.CompleteTS(0, 0, "match-cycle", "cycle", 0, 500, map[string]any{"tasks": 2})
	trc.CompleteTS(0, 1, "Join#3", "task", 10, 120, map[string]any{"seq": 1})
	trc.CompleteTS(0, 2, "Join#4", "task", 15, 200, map[string]any{"seq": 2, "stolen": true})
	trc.InstantTS(0, 0, "chunk-built:chunk-1", "chunk", 480, map[string]any{"ces": 7})
	return trc
}

func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace JSON differs from golden (re-run with -update to refresh):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestTraceValidChrome checks the structural contract that chrome://tracing
// requires: a JSON array of objects each carrying ph/ts/pid/tid.
func TestTraceValidChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTestTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) != 8 {
		t.Fatalf("got %d events, want 8", len(events))
	}
	for i, e := range events {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event %d missing %q: %v", i, k, e)
			}
		}
	}
}

func TestTraceLastCycleWindow(t *testing.T) {
	trc := NewTracer()
	trc.CompleteTS(0, 1, "old", "task", 0, 10, nil)
	trc.MarkCycle()
	trc.CompleteTS(0, 1, "new", "task", 20, 10, nil)
	var buf bytes.Buffer
	if err := trc.WriteLastCycle(&buf); err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "new" {
		t.Fatalf("last-cycle window = %+v, want just the post-mark event", events)
	}
	if trc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", trc.Len())
	}
}

// TestTracerLimit checks the bounded-buffer mode: the event count stays at
// or under the limit, the newest events survive, drops are counted, and
// the last-cycle window stays valid after compaction.
func TestTracerLimit(t *testing.T) {
	trc := NewTracer()
	trc.SetLimit(100)
	for i := 0; i < 1000; i++ {
		if i == 995 {
			trc.MarkCycle()
		}
		trc.InstantTS(0, 1, "e", "task", float64(i), map[string]any{"i": i})
	}
	if n := trc.Len(); n > 100 {
		t.Fatalf("Len = %d, want <= limit 100", n)
	}
	if trc.Dropped() == 0 {
		t.Fatal("no events dropped despite overflow")
	}
	var buf bytes.Buffer
	if err := trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if last := events[len(events)-1]; last.Ts != 999 {
		t.Fatalf("newest event ts = %g, want 999 (oldest must be dropped, not newest)", last.Ts)
	}
	buf.Reset()
	if err := trc.WriteLastCycle(&buf); err != nil {
		t.Fatal(err)
	}
	var cyc []Event
	if err := json.Unmarshal(buf.Bytes(), &cyc); err != nil {
		t.Fatal(err)
	}
	if len(cyc) != 5 || cyc[0].Ts != 995 {
		t.Fatalf("last-cycle window after compaction = %d events from ts %g, want 5 from 995", len(cyc), cyc[0].Ts)
	}
}

// TestSetupTracerGating checks that the tracer only exists when a trace
// sink is requested: -metrics alone must not accumulate events, and
// -listen without -trace gets a bounded buffer.
func TestSetupTracerGating(t *testing.T) {
	dir := t.TempDir()
	o, flush, err := Setup("", filepath.Join(dir, "m.txt"), "")
	if err != nil {
		t.Fatal(err)
	}
	if o.Trc != nil {
		t.Fatal("-metrics alone attached a tracer")
	}
	if h := o.MatchHooks(0); h == nil || h.Trc != nil {
		t.Fatalf("hooks = %+v, want non-nil hooks with nil Trc", h)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}

	o, flush, err = Setup("", "", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if o.Trc == nil || o.Trc.limit != liveTraceLimit {
		t.Fatalf("-listen tracer limit = %v, want bounded at %d", o.Trc, liveTraceLimit)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}

	o, flush, err = Setup(filepath.Join(dir, "t.json"), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if o.Trc == nil || o.Trc.limit != 0 {
		t.Fatalf("-trace tracer = %+v, want unbounded full-run buffer", o.Trc)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
}

func TestNilTracer(t *testing.T) {
	var trc *Tracer
	trc.Complete(0, 0, "x", "", time.Now(), time.Millisecond, nil)
	trc.Instant(0, 0, "x", "", time.Now(), nil)
	trc.SetProcessName(0, "p")
	trc.SetThreadName(0, 0, "t")
	trc.MarkCycle()
	if trc.Len() != 0 {
		t.Fatal("nil tracer has events")
	}
	var buf bytes.Buffer
	if err := trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("nil tracer JSON = %q", buf.String())
	}
}

// TestNewObserverTracerBounded pins the default observer's tracer to the
// live ring: obs.New attaches no sink, so a server holding one must not
// accumulate an event per task and per request for as long as it runs.
func TestNewObserverTracerBounded(t *testing.T) {
	o := New()
	for i := 0; i < 3*liveTraceLimit; i++ {
		o.Trc.InstantTS(0, 1, "e", "task", float64(i), nil)
	}
	if n := o.Trc.Len(); n > liveTraceLimit {
		t.Fatalf("Len = %d, want <= %d", n, liveTraceLimit)
	}
	if o.Trc.Dropped() == 0 {
		t.Fatal("no events dropped after 3x the limit")
	}
}
