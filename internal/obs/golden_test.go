package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildTestTrace emits a small deterministic trace: two worker lanes, a
// cycle span, a chunk instant, and one cycle's task records — one of them
// stolen — retained as a batch and rendered by the runtime's own span
// renderer, so the golden file pins the schema every reader of a trace
// sees: name Kind#ID, tid = worker+1, args node/seq/parent/depth/cost-us
// and stolen when set.
func buildTestTrace() *obs.Tracer {
	trc := obs.NewTracer()
	trc.SetProcessName(0, "match pipeline")
	trc.SetThreadName(0, 0, "control")
	trc.SetThreadName(0, 1, "match-1")
	trc.SetThreadName(0, 2, "match-2")
	trc.CompleteTS(0, 0, "match-cycle", "cycle", 0, 500, map[string]any{"tasks": 2})
	recs := []prun.TaskRec{
		{Seq: 1, Cost: 110, Start: 10_000, Dur: 120_000, Node: 3, Depth: 1, Worker: 0, Emitted: 1, Kind: rete.KindJoin},
		{Seq: 2, Parent: 1, Cost: 190, Start: 15_000, Dur: 200_000, Node: 4, Depth: 2, Worker: 1, Kind: rete.KindP, Stolen: true},
	}
	trc.Batch(func(dst []obs.Event) []obs.Event { return prun.AppendSpans(dst, recs, 0, 0, true) })
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
