package obs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

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
// Task-record batches and eager events share the one budget, the newest
// survive, and the lane names — held outside the ring — are still written
// after any number of compactions.
func TestNewObserverTracerBounded(t *testing.T) {
	o := New()
	o.Trc.SetProcessName(0, "match pipeline")
	o.Trc.SetThreadName(0, 1, "match-1")
	o.Trc.SetThreadName(0, 1, "match-1") // every engine names the same lanes
	const batch = 100
	last := 0.0
	for n := 0; n < 3*liveTraceLimit; n += batch + 1 {
		o.Trc.MarkCycle()
		base := float64(n)
		o.Trc.Batch(batch, func(dst []Event) []Event {
			for i := 0; i < batch; i++ {
				dst = append(dst, Event{Name: "t", Cat: "task", Ph: "X", Ts: base + float64(i), Dur: 1, Tid: 1})
			}
			return dst
		})
		last = base + batch
		o.Trc.InstantTS(0, 0, "match-cycle", "cycle", last, nil)
	}
	if n := o.Trc.Len(); n > liveTraceLimit || n < liveTraceLimit/2 {
		t.Fatalf("Len = %d, want in [%d, %d]", n, liveTraceLimit/2, liveTraceLimit)
	}
	if o.Trc.Dropped() == 0 {
		t.Fatal("no events dropped after 3x the limit")
	}
	if got := o.Trc.Len() + int(o.Trc.Dropped()); got < 3*liveTraceLimit {
		t.Fatalf("Len+Dropped = %d: batches are not counted by the events they stand for", got)
	}
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return o.Trc.WriteJSON(b) },
		func(b *bytes.Buffer) error { return o.Trc.WriteLastCycle(b) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		var events []Event
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatal(err)
		}
		if events[0].Name != "process_name" || events[1].Name != "thread_name" || events[2].Ph == "M" {
			t.Fatalf("want exactly one process_name and one thread_name first, got %+v", events[:3])
		}
		if got := events[len(events)-1]; got.Ts != last {
			t.Fatalf("newest event ts = %g, want %g", got.Ts, last)
		}
		if strings.Count(buf.String(), `"cat":"task"`) < batch {
			t.Fatalf("the last cycle's batch was not rendered")
		}
	}
}
