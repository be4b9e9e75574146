package main

import (
	"strings"
	"testing"
)

func res(name string, allocs float64, extra map[string]float64) result {
	return result{Name: name, AllocsPerOp: allocs, Extra: extra}
}

// TestCompareStrict is the regression test for the name-mismatch hole: a
// renamed bench used to be skipped with a warning (a regression could ride
// in on a rename), and a baseline entry with no current counterpart was
// never even mentioned.
func TestCompareStrict(t *testing.T) {
	base := []result{
		res("cypress/work-stealing", 100, map[string]float64{"tasks/op": 500}),
		res("cypress/multi-queue", 120, nil),
	}
	cases := []struct {
		name       string
		cur        []result
		strict     bool
		wantFails  int
		wantSubstr string
	}{
		{"identical lax", base, false, 0, ""},
		{"identical strict", base, true, 0, ""},
		{"renamed lax skips", []result{
			res("cypress/work-stealing-v2", 9999, nil),
			res("cypress/multi-queue", 120, nil),
		}, false, 0, ""},
		{"renamed strict fails both directions", []result{
			res("cypress/work-stealing-v2", 9999, nil),
			res("cypress/multi-queue", 120, nil),
		}, true, 2, "work-stealing"},
		{"dropped bench strict fails", []result{
			res("cypress/work-stealing", 100, map[string]float64{"tasks/op": 500}),
		}, true, 1, "not in current run"},
		{"new bench strict fails", append(append([]result{}, base...),
			res("Serve/4x30/work-stealing", 50, nil),
		), true, 1, "no baseline entry"},
		{"regression still caught in strict", []result{
			res("cypress/work-stealing", 200, map[string]float64{"tasks/op": 500}),
			res("cypress/multi-queue", 120, nil),
		}, true, 1, "allocs/op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := compare(base, tc.cur, 0.10, tc.strict)
			if len(fails) != tc.wantFails {
				t.Fatalf("compare() = %d failures %v, want %d", len(fails), fails, tc.wantFails)
			}
			if tc.wantSubstr != "" && !strings.Contains(strings.Join(fails, "\n"), tc.wantSubstr) {
				t.Fatalf("failures %v missing %q", fails, tc.wantSubstr)
			}
		})
	}
}

// TestPairGate drives every row of the gates table through pairGate: a
// pair inside its budget passes, one outside fails (no bench funcs are
// registered, so no re-measure kicks in), and a pair with only one twin —
// or no basis for the metric — is skipped, not failed. The bilinear rows
// pin that gate's unit: it must compare per-task ns (ns/op ÷ tasks/op), not
// raw ns/op — bilinear=auto schedules ~20x more tasks per op by design, so
// a raw comparison would fail by construction while heavier *tasks* would
// slip through. The cold-start rows pin the speedup floor.
func TestPairGate(t *testing.T) {
	r := func(name string, ns, tasks float64) result {
		out := result{Name: name, NsPerOp: ns}
		if tasks > 0 {
			out.Extra = map[string]float64{"tasks/op": tasks}
		}
		return out
	}
	cases := []struct {
		name      string
		results   []result
		wantFails int
	}{
		{"profiling +4% passes", []result{r("Profiling/eight-puzzle/off", 1000, 0), r("Profiling/eight-puzzle/on", 1040, 0)}, 0},
		{"profiling +6% fails", []result{r("Profiling/eight-puzzle/off", 1000, 0), r("Profiling/eight-puzzle/on", 1060, 0)}, 1},
		{"/on outside Profiling/ is not a pair", []result{r("Other/x/off", 1000, 0), r("Other/x/on", 9000, 0)}, 0},
		{"unlink +4% passes, tasks ignored", []result{r("strips/multi-queue/unlink=false", 1000, 900), r("strips/multi-queue/unlink=true", 1040, 300)}, 0},
		{"unlink +6% fails on any task/policy", []result{
			r("strips/multi-queue/unlink=false", 1000, 0), r("strips/multi-queue/unlink=true", 1000, 0),
			r("cypress/work-stealing/unlink=false", 1000, 0), r("cypress/work-stealing/unlink=true", 1060, 0),
		}, 1},
		{"wal +9% passes", []result{r("WALIngest/4x1920/batch=64/wal=off", 1000, 0), r("WALIngest/4x1920/batch=64/wal=on", 1090, 0)}, 0},
		{"wal +11% fails", []result{r("WALIngest/4x1920/batch=64/wal=off", 1000, 0), r("WALIngest/4x1920/batch=64/wal=on", 1110, 0)}, 1},
		{"warm create 6x faster passes", []result{r("SessionColdStart/cypress/compile", 6000, 0), r("SessionColdStart/cypress/warm", 1000, 0)}, 0},
		{"warm create 4x faster fails the 5x floor", []result{r("SessionColdStart/cypress/compile", 4000, 0), r("SessionColdStart/cypress/warm", 1000, 0)}, 1},
		// 20x slower raw but 55x the tasks: per-task cost shrank.
		{"bilinear cheaper per task passes", []result{r("Bilinear/cypress/bilinear=off", 1e6, 400), r("Bilinear/cypress/bilinear=auto", 20e6, 22000)}, 0},
		// Same ns/op ratio but the task count did NOT grow: tasks got 20x heavier.
		{"bilinear heavier per task fails", []result{r("Bilinear/cypress/bilinear=off", 1e6, 400), r("Bilinear/cypress/bilinear=auto", 20e6, 400)}, 1},
		{"bilinear +9% per task passes", []result{r("Bilinear/cypress/bilinear=off", 1e6, 400), r("Bilinear/cypress/bilinear=auto", 2.18e6, 800)}, 0},
		{"bilinear without tasks/op is skipped", []result{r("Bilinear/cypress/bilinear=off", 1e6, 0), r("Bilinear/cypress/bilinear=auto", 20e6, 22000)}, 0},
		{"a twin that did not run is skipped", []result{r("Profiling/eight-puzzle/on", 9000, 0), r("WALIngest/4x1920/batch=64/wal=on", 9000, 0), r("SessionColdStart/cypress/warm", 9000, 0)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if fails := pairGate(nil, tc.results); len(fails) != tc.wantFails {
				t.Fatalf("pairGate() = %d failures %v, want %d", len(fails), fails, tc.wantFails)
			}
		})
	}
}

// TestCompareTolerance pins the gate semantics strict mode must not change:
// growth within the tolerance passes, above it fails, and shrinkage passes.
func TestCompareTolerance(t *testing.T) {
	base := []result{res("a", 100, map[string]float64{"tasks/op": 1000})}
	if fails := compare(base, []result{res("a", 109, map[string]float64{"tasks/op": 1000})}, 0.10, true); len(fails) != 0 {
		t.Fatalf("growth within tolerance should pass: %v", fails)
	}
	if fails := compare(base, []result{res("a", 100, map[string]float64{"tasks/op": 1111})}, 0.10, true); len(fails) != 1 {
		t.Fatalf("tasks/op growth above tolerance should fail: %v", fails)
	}
	if fails := compare(base, []result{res("a", 50, map[string]float64{"tasks/op": 500})}, 0.10, true); len(fails) != 0 {
		t.Fatalf("shrinkage should pass: %v", fails)
	}
}
