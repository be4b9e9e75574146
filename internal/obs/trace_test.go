package obs

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"
)

// TestSetupTracerGating checks that a tracer exists only for a -trace
// file, its one reader: -metrics alone, -listen alone and New() (what a
// server holds) collect no events.
func TestSetupTracerGating(t *testing.T) {
	dir := t.TempDir()
	if o := New(); o.Trc != nil {
		t.Fatal("New() attached a tracer")
	}
	for _, c := range []struct {
		name                   string
		trace, metrics, listen string
		wantTracer             bool
	}{
		{name: "-metrics", metrics: filepath.Join(dir, "m.txt")},
		{name: "-listen", listen: "127.0.0.1:0"},
		{name: "-trace", trace: filepath.Join(dir, "t.json"), wantTracer: true},
	} {
		o, flush, err := Setup(c.trace, c.metrics, c.listen)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.Trc != nil; got != c.wantTracer {
			t.Fatalf("%s alone: tracer attached = %v, want %v", c.name, got, c.wantTracer)
		}
		if h := o.MatchHooks(0); h == nil || h.Trc != o.Trc {
			t.Fatalf("%s: hooks = %+v, want non-nil hooks sharing the observer's tracer", c.name, h)
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNilTracer(t *testing.T) {
	var trc *Tracer
	trc.Complete(0, 0, "x", "", time.Now(), time.Millisecond, nil)
	trc.Instant(0, 0, "x", "", time.Now(), nil)
	trc.Batch(func(dst []Event) []Event { return append(dst, Event{Name: "x"}) })
	trc.SetProcessName(0, "p")
	trc.SetThreadName(0, 0, "t")
	var buf bytes.Buffer
	if err := trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("nil tracer JSON = %q", buf.String())
	}
}
