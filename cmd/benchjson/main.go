// Command benchjson runs the benchmark trajectory harness (the
// BenchmarkPolicyReplay matrix plus the Fig 6-7/6-8 regenerators from
// internal/benchkit) under testing.Benchmark and writes the results as
// BENCH_<git-short-sha>.json: ns/op, allocs/op, bytes/op, and the harness
// extras (tasks executed and null activations suppressed per op).
//
// With -baseline, it additionally compares the fresh results against a
// committed baseline file and exits nonzero if allocs/op or tasks/op
// regressed by more than the tolerance — CI's bench-regression leg. With
// -strict (CI default) any bench name present on only one side of the
// comparison is itself a failure, so renamed or dropped cases can't slip
// past the gate unnoticed.
//
// Independent of any baseline file, every on/off twin pair that ran is also
// gated intra-run by the one pairGate routine, driven by the gates table
// below (profiling, unlink, WAL, warm image create, bilinear — the table
// rows say what each budget defends). The budgets are constants: a budget
// someone can loosen on the command line defends nothing.
//
// Usage:
//
//	benchjson [-out file] [-baseline file] [-tolerance 0.10] [-strict]
//	          [-match regexp]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"soarpsme/internal/benchkit"
)

type result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type benchFile struct {
	SHA        string   `json:"sha"`
	Date       string   `json:"date"`
	Go         string   `json:"go"`
	Benchmarks []result `json:"benchmarks"`
}

func gitShortSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

func run(cases []benchkit.Case, match *regexp.Regexp) []result {
	var out []result
	for _, c := range cases {
		if match != nil && !match.MatchString(c.Name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchjson: running %s\n", c.Name)
		r := testing.Benchmark(c.Bench)
		res := result{
			Name:        c.Name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
		if len(r.Extra) > 0 {
			res.Extra = map[string]float64{}
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		fmt.Fprintf(os.Stderr, "benchjson:   %s%s\n", r.String(), r.MemString())
		out = append(out, res)
	}
	return out
}

// gauges returns the regression-gated metrics of a result: allocs/op always,
// tasks/op when the case reports it (the replay matrix does, figures don't).
func gauges(r result) map[string]float64 {
	g := map[string]float64{"allocs/op": r.AllocsPerOp}
	if v, ok := r.Extra["tasks/op"]; ok {
		g["tasks/op"] = v
	}
	return g
}

// compare gates current against base: any gauge more than tol above its
// baseline value is a regression. In strict mode a name present on only one
// side is also a failure — a silently renamed or dropped bench would
// otherwise never be gated again. Returns the failure descriptions.
func compare(base, cur []result, tol float64, strict bool) []string {
	prev := map[string]result{}
	for _, r := range base {
		prev[r.Name] = r
	}
	var fails []string
	if strict {
		seen := map[string]bool{}
		for _, r := range cur {
			seen[r.Name] = true
		}
		for _, r := range base {
			if !seen[r.Name] {
				fails = append(fails, fmt.Sprintf("%s: in baseline but not in current run (renamed or dropped?)", r.Name))
			}
		}
	}
	for _, r := range cur {
		b, ok := prev[r.Name]
		if !ok {
			if strict {
				fails = append(fails, fmt.Sprintf("%s: no baseline entry (regenerate the baseline to cover it)", r.Name))
			} else {
				fmt.Fprintf(os.Stderr, "benchjson: %s: no baseline entry, skipping\n", r.Name)
			}
			continue
		}
		bg := gauges(b)
		for k, curV := range gauges(r) {
			baseV, ok := bg[k]
			if !ok || baseV <= 0 {
				continue
			}
			if growth := curV/baseV - 1; growth > tol {
				fails = append(fails, fmt.Sprintf("%s: %s %.1f -> %.1f (+%.1f%%, tolerance %.0f%%)",
					r.Name, k, baseV, curV, 100*growth, 100*tol))
			}
		}
	}
	return fails
}

// gate is one row of the intra-run gate table: for every result named
// <prefix>…<on> whose …<off> twin also ran, metric(on)/metric(off) may not
// exceed maxRatio.
type gate struct {
	prefix  string
	on, off string
	// perTask compares ns/task (ns/op ÷ the harness's tasks/op extra)
	// instead of ns/op.
	perTask bool
	// maxRatio above 1 is a growth budget (1.05 = the on twin may cost 5%
	// more); below 1 it is a speedup floor (1.0/5 = at least 5x cheaper).
	maxRatio float64
	what     string
}

var gates = []gate{
	// The match profiler's always-on attribution counters must stay a
	// bounded tax on the replay hot path.
	{prefix: "Profiling/", on: "/on", off: "/off", maxRatio: 1.05, what: "profiling on vs off"},
	// The null-match filter has to be wall-clock-neutral-or-better on every
	// task/policy, not just cheaper in tasks/op, or its default-on setting
	// silently regresses latency.
	{on: "/unlink=true", off: "/unlink=false", maxRatio: 1.05, what: "unlink=true vs unlink=false"},
	// The fsync'd append on every mutating request has to stay a bounded
	// tax on ingest, or durability quietly eats the serving throughput the
	// rest of the suite defends.
	{on: "/wal=on", off: "/wal=off", maxRatio: 1.10, what: "WAL on vs off"},
	// The claim of the compiled-image split — a warm create is per-session
	// state only — gated as an invariant, not just tracked against a
	// baseline.
	{prefix: "SessionColdStart/", on: "/warm", off: "/compile", maxRatio: 1.0 / 5, what: "warm-cache create vs compile-from-source"},
	// Restructuring is the paper's work-for-parallelism trade: bilinear=auto
	// schedules ~20x more tasks per cycle, so a serial replay is slower in
	// raw ns/op by design and that is deliberately NOT gated. What it may
	// not do is make the individual tasks heavier: then the restructure
	// burns serial wall-clock without creating the parallel slack that
	// justifies it (the payoff itself is shown by the abl-bilinear ablation).
	{prefix: "Bilinear/", on: "/bilinear=auto", off: "/bilinear=off", perTask: true, maxRatio: 1.10, what: "bilinear=auto vs off, per task"},
}

// metric is the quantity g compares; zero means the result gives no basis
// (a ns/task row without a tasks/op extra) and the pair is skipped.
func (g gate) metric(nsPerOp float64, extra map[string]float64) float64 {
	if !g.perTask {
		return nsPerOp
	}
	if tasks := extra["tasks/op"]; tasks > 0 {
		return nsPerOp / tasks
	}
	return 0
}

// pairGate applies every gates row to every pair in results whose twins
// both ran. A pair over budget is re-measured once — both sides, back to
// back, keeping each side's best — so a scheduler hiccup on either twin
// doesn't fail the gate on its own. Returns the failure descriptions.
func pairGate(cases []benchkit.Case, results []result) []string {
	byName := map[string]result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	bench := map[string]func(b *testing.B){}
	for _, c := range cases {
		bench[c.Name] = c.Bench
	}
	var fails []string
	for _, g := range gates {
		unit := "ns/op"
		if g.perTask {
			unit = "ns/task"
		}
		best := func(name string, cur float64) float64 {
			if b, ok := bench[name]; ok {
				r := testing.Benchmark(b)
				if v := g.metric(float64(r.NsPerOp()), r.Extra); v > 0 && v < cur {
					return v
				}
			}
			return cur
		}
		for _, r := range results {
			if !strings.HasPrefix(r.Name, g.prefix) || !strings.HasSuffix(r.Name, g.on) {
				continue
			}
			offName := strings.TrimSuffix(r.Name, g.on) + g.off
			twin, ok := byName[offName]
			on, off := g.metric(r.NsPerOp, r.Extra), g.metric(twin.NsPerOp, twin.Extra)
			if !ok || on <= 0 || off <= 0 {
				continue
			}
			if on/off > g.maxRatio {
				fmt.Fprintf(os.Stderr, "benchjson: %s over budget on first measurement (x%.3f), re-measuring the pair\n", r.Name, on/off)
				off = best(offName, off)
				on = best(r.Name, on)
			}
			line := fmt.Sprintf("%s: %s: %.0f vs %.0f %s (x%.3f, budget x%.3f)", r.Name, g.what, on, off, unit, on/off, g.maxRatio)
			if on/off > g.maxRatio {
				fails = append(fails, line)
			} else {
				fmt.Fprintln(os.Stderr, "benchjson: "+line)
			}
		}
	}
	return fails
}

func main() {
	outPath := flag.String("out", "", "output file (default BENCH_<git-short-sha>.json)")
	basePath := flag.String("baseline", "", "baseline JSON to gate against; exit nonzero on regression")
	tol := flag.Float64("tolerance", 0.10, "allowed fractional growth in allocs/op and tasks/op")
	matchExpr := flag.String("match", "", "only run cases whose name matches this regexp")
	strict := flag.Bool("strict", false, "with -baseline: fail on any current<->baseline name mismatch instead of skipping")
	flag.Parse()

	var match *regexp.Regexp
	if *matchExpr != "" {
		var err error
		if match, err = regexp.Compile(*matchExpr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
	}

	var cases []benchkit.Case
	for _, family := range []func() []benchkit.Case{
		benchkit.PolicyReplayCases, benchkit.FigureCases, benchkit.ServeCases, benchkit.ProfilingCases,
		benchkit.DurabilityCases, benchkit.ImageCases, benchkit.BilinearCases,
	} {
		cases = append(cases, family()...)
	}
	f := benchFile{
		SHA:        gitShortSHA(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		Benchmarks: run(cases, match),
	}
	if len(f.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no cases matched")
		os.Exit(2)
	}

	path := *outPath
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", f.SHA)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", path, len(f.Benchmarks))

	if fails := pairGate(cases, f.Benchmarks); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d intra-run gate failure(s):\n", len(fails))
		for _, s := range fails {
			fmt.Fprintln(os.Stderr, "  "+s)
		}
		os.Exit(1)
	}

	if *basePath != "" {
		data, err := os.ReadFile(*basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base benchFile
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *basePath, err)
			os.Exit(1)
		}
		if *strict && match != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -strict ignores -match filtering; baseline names absent from the filtered run will fail")
		}
		if fails := compare(base.Benchmarks, f.Benchmarks, *tol, *strict); len(fails) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s (sha %s):\n", len(fails), *basePath, base.SHA)
			for _, s := range fails {
				fmt.Fprintln(os.Stderr, "  "+s)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions vs %s (sha %s)\n", *basePath, base.SHA)
	}
}
