package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// quickSuite runs every workload once in-process with -quick, plus one
// traced run, the way run.sh would start them; the tests below share it.
type quickSuite struct {
	out      string
	results  map[string]*result // workload -> untraced result
	traced   *result
	baseline int // goroutines before the first run
}

var (
	quickOnce sync.Once
	quick     quickSuite
	quickErr  string
)

func runQuick(t *testing.T) *quickSuite {
	t.Helper()
	quickOnce.Do(func() {
		quick.out = filepath.Join("out", "test")
		quick.results = map[string]*result{}
		quick.baseline = runtime.NumGoroutine()
		run := func(args ...string) *result {
			var stdout, stderr bytes.Buffer
			args = append(args, "-quick", "-seconds", "10", "-out", quick.out)
			if code := realMain(args, &stdout, &stderr); code != 0 {
				quickErr = fmt.Sprintf("psmebench %s exited %d:\n%s", strings.Join(args, " "), code, stderr.String())
				return nil
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				quickErr = "last stdout line is not a result: " + err.Error()
				return nil
			}
			return &res
		}
		for _, w := range workloads {
			if quick.results[w.name] = run("-workload", w.name); quickErr != "" {
				return
			}
		}
		quick.traced = run("-workload", "serve-failover", "-trace", "1")
	})
	if quickErr != "" {
		t.Fatal(quickErr)
	}
	return &quick
}

// TestHygiene: a run leaves nothing behind — no goroutine, no session
// directory, no child process.
func TestHygiene(t *testing.T) {
	q := runQuick(t)
	for name, res := range q.results {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
	}
	if !q.traced.Correct || q.traced.Failed != 0 {
		t.Errorf("traced run: correct=%v failed=%d", q.traced.Correct, q.traced.Failed)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > q.baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > q.baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the runs, %d before:\n%s", n, q.baseline, buf[:runtime.Stack(buf, true)])
	}

	entries, err := os.ReadDir(q.out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("%s holds directory %s after the runs", q.out, e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(q.out, "trace-serve-failover.json")); err != nil {
		t.Errorf("traced run wrote no trace file: %v", err)
	}

	tasks, _ := filepath.Glob("/proc/self/task/*/children")
	for _, f := range tasks {
		if kids, _ := os.ReadFile(f); len(bytes.TrimSpace(kids)) > 0 {
			t.Errorf("child processes exist: %s lists %s", f, bytes.TrimSpace(kids))
		}
	}
}

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONNamesWhatTheBinaryPrints holds BENCHMARK.json and the
// binary together: same workloads, same metric names and units, every name
// and unit inside the contract's alphabet, every end-to-end metric bounded
// and never zero.
func TestBenchmarkJSONNamesWhatTheBinaryPrints(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	q := runQuick(t)

	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}

	check := func(kind string, listed []benchMetric, printed map[string]metric, bounded bool) {
		seen := map[string]bool{}
		for _, m := range listed {
			if seen[m.Name] {
				t.Errorf("%s %s listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			got, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s %s is in BENCHMARK.json but the binary does not print it", kind, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s %s: unit %q in BENCHMARK.json, %q printed", kind, m.Name, m.Unit, got.Unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: name, unit %q or better %q outside the contract", kind, m.Name, m.Unit, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
			if bounded && got.Value == 0 {
				t.Errorf("%s %s printed 0", kind, m.Name)
			}
		}
		for name := range printed {
			if !seen[name] {
				t.Errorf("the binary prints %s %s, BENCHMARK.json does not list it", kind, name)
			}
		}
	}
	for _, w := range workloads {
		check("end-to-end metric ("+w.name+")", b.EndToEnd, q.results[w.name].Metrics, true)
	}
	check("per-layer metric", b.PerLayer, q.traced.Metrics, false)
	setup := false
	for _, m := range b.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
}
