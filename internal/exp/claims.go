package exp

import (
	"fmt"
	"strings"

	"soarpsme/internal/stats"
)

// claim is one claim of the paper's evaluation, stated once: what it is
// about, the paper's headline, the bound this reproduction holds it to,
// and how to read the measurement from a report's driver results.
type claim struct {
	id, artifact, paper, bound string
	// read returns the measurement as text and whether it meets the bound.
	read func(r results) (measured string, ok bool)
}

// claims is every claim the reproduction checks; the scorecard renders
// one row per claim, and nothing else states one. Per-task values are in
// the paper's order: Eight-puzzle / Strips / Cypress.
var claims = []claim{
	{"t51-ces", "Table 5-1 (CEs: task P → chunk)", "26 → 51 (Cypress)", "chunk > task P, each task",
		func(r results) (string, bool) {
			p, c := tab(r, "t51").col("Avg CEs (task Ps)"), tab(r, "t51").col("Avg CEs (chunks)")
			return join("%.0f → %.0f", p, c), every(p, func(i int, v float64) bool { return c[i] > v })
		}},
	{"t51-bytes", "Table 5-1 (bytes/2-input node)", "219-304", "219-304, each task",
		func(r results) (string, bool) {
			b := tab(r, "t51").col("Avg bytes/2-input node")
			return join("%.0f", b), every(b, func(_ int, v float64) bool { return in(v, 219, 304) })
		}},
	{"t52", "Table 5-2 (compile s: shared → not)", "shared faster", "shared < unshared, each task",
		func(r results) (string, bool) {
			s, u := tab(r, "t52").col("Time shared (s)"), tab(r, "t52").col("Time unshared (s)")
			return join("%.1f → %.1f", s, u), every(s, func(i int, v float64) bool { return v < u[i] })
		}},
	{"t61", "Table 6-1 (µs/task)", "428 / 438 / 400", "EP, Strips 400-438; Cypress 200-600",
		func(r results) (string, bool) {
			a := tab(r, "t61").col("Avg time per task (us)")
			return join("%.0f", a) + ": Cypress misses", in(a[0], 400, 438) && in(a[1], 400, 438) && in(a[2], 200, 600)
		}},
	{"f61-64", "Fig 6-1 → 6-4 (1 → many queues @13)", "≈4.2 → ≈7", "6-1 < 6; 6-4 > 6-1; 6-4 @1 = 1",
		func(r results) (string, bool) {
			s, m := at13(fig(r, "f61")), at13(fig(r, "f64"))
			return join("%.2f → %.2f", s, m), every(m, func(i int, v float64) bool {
				return s[i] < 6 && v > s[i] && fig(r, "f64").Series[i].Y[0] == 1
			})
		}},
	{"f62", "Fig 6-2 (1-access share)", "Strips worst", "Strips < EP, Cypress",
		func(r results) (string, bool) {
			one := make([]float64, 3)
			for i, s := range fig(r, "f62").Series {
				if s.X[0] == 1 { // x ascends from the fewest accesses
					one[i] = s.Y[0]
				}
			}
			return join("%.0f%%", one), one[1] < one[0] && one[1] < one[2]
		}},
	{"f63", "Fig 6-3 (spins/task, 3-13 procs)", "rises with procs", "rises at every step, each task",
		func(r results) (string, bool) {
			f, ok := fig(r, "f63"), true
			var first []float64
			for _, s := range f.Series {
				first = append(first, s.Y[0])
				ok = ok && every(s.Y[1:], func(i int, v float64) bool { return v > s.Y[i] })
			}
			return join("%.2f → %.2f", first, at13(f)), ok
		}},
	{"f65", "Fig 6-5 (EP speedup by cycle size)", "small cycles low", "each bin <50 below each ≥70",
		func(r results) (string, bool) {
			s := r["f65"].(*perCycle).Series[0]
			small, large := 0.0, 1e9
			for i, x := range s.X {
				if x < 50 {
					small = max(small, s.Y[i])
				} else if x >= 70 {
					large = min(large, s.Y[i])
				}
			}
			return fmt.Sprintf("<50 ≤ %.2f, ≥70 ≥ %.2f", small, large), small < large
		}},
	{"f66", "Fig 6-6 (EP tail < 100 tasks)", "long tail", "≥ 1/3 of the cycle",
		func(r results) (string, bool) {
			s := fig(r, "f66").Series[0] // sampled at even steps of time
			n := 0
			for _, y := range s.Y {
				if y < 100 {
					n++
				}
			}
			share := float64(n) / float64(len(s.Y))
			return fmt.Sprintf("%.0f%% of %.1f ms", 100*share, s.X[len(s.X)-1]/10), share >= 1.0/3
		}},
	{"f68", "Fig 6-8 (Strips monitor chain)", "43 → 15 CEs", "bilinear < linear",
		func(r results) (string, bool) {
			c := tab(r, "f68").col("Max network chain (nodes)")
			return fmt.Sprintf("%.0f → %.0f nodes", c[0], c[1]), c[1] < c[0]
		}},
	{"f69", "Fig 6-9 (update speedup @13)", "high", "> 1.5, each task",
		func(r results) (string, bool) {
			s := at13(fig(r, "f69"))
			return join("%.2f", s) + ": WMs 10× smaller", every(s, func(_ int, v float64) bool { return v > 1.5 })
		}},
	{"f610", "Fig 6-10 (EP after chunking @13)", "≈10", "≥ 8, > Fig 6-4's",
		func(r results) (string, bool) {
			a, b := at13(fig(r, "f610"))[0], at13(fig(r, "f64"))[0]
			return fmt.Sprintf("%.2f (6-4: %.2f)", a, b), a >= 8 && a > b
		}},
	{"f611-612", "Fig 6-11/12 (EP cycles ≥200 tasks)", "3% → 30%+", "≤ 3% → ≥ 30%",
		func(r results) (string, bool) {
			b, a := atLeast(fig(r, "f611"), 200), atLeast(fig(r, "f612"), 200)
			return fmt.Sprintf("%.0f%% → %.0f%%", b, a), b <= 3 && a >= 30
		}},
	{"s62", "§6.2 (EP per-cycle speedup @11)", "high variance", "p90 > p50",
		func(r results) (string, bool) {
			pc := r["f65"].(*perCycle)
			h := stats.NewHistogram(10) // bins of 0.1x (speedup scaled by 100)
			for i, n := range pc.tasks {
				if n >= 5 {
					h.Add(int(100 * pc.speedups[i]))
				}
			}
			p50, p90, p99 := h.Percentiles()
			return fmt.Sprintf("p50 %.1f / p90 %.1f / p99 %.1f", p50/100, p90/100, p99/100), h.N() > 0 && p90 > p50
		}},
	{"s63", "§6.3 (EP match work growth)", "expensive chunks", "after > before",
		func(r results) (string, bool) {
			b, a := tab(r, "extras").col("Tasks no-chunk")[0], tab(r, "extras").col("Tasks after-chunk")[0]
			return fmt.Sprintf("%.0f → %.0f tasks", b, a), a > b
		}},
	{"abl-mem", "§6.1 (Strips join comparisons)", "hashing cuts", "linear ≥ 3× hashed",
		func(r results) (string, bool) {
			c := tab(r, "abl-mem").col("Join comparisons")
			return fmt.Sprintf("%.0f vs %.0f linear", c[0], c[1]), c[1] >= 3*c[0]
		}},
	{"abl-share", "§5.1 (Strips 2-input nodes)", "sharing saves", "shared < unshared",
		func(r results) (string, bool) {
			n := tab(r, "abl-share").col("Two-input nodes")
			return fmt.Sprintf("%.0f vs %.0f unshared", n[0], n[1]), n[0] < n[1]
		}},
	{"abl-unlink", "Unlinking (tasks, nulls suppressed)", "not in paper", "tasks on ≤ off; suppressed on > 0, off 0",
		func(r results) (string, bool) {
			t, s := tab(r, "abl-unlink").col("Tasks"), tab(r, "abl-unlink").col("Suppressed")
			n := len(taskNames)
			return "suppressed " + join("%.0f", s[n:]), every(s[n:], func(i int, v float64) bool {
				return t[n+i] <= t[i] && v > 0 && s[i] == 0
			})
		}},
	{"abl-bilinear-victims", "Auto bilinear (restructured)", "not in paper", "off 0, auto > 0",
		func(r results) (string, bool) {
			p := tab(r, "abl-bilinear").col("Restructured") // off, all, auto
			return fmt.Sprintf("off %.0f, all %.0f, auto %.0f", p[0], p[1], p[2]), p[0] == 0 && p[2] > 0
		}},
	{"abl-bilinear-chain", "Auto bilinear (max chain depth)", "43 → 15 CEs", "auto < off, auto ≤ all",
		func(r results) (string, bool) {
			d := tab(r, "abl-bilinear").col("Max chain depth")
			return fmt.Sprintf("off %.0f, all %.0f, auto %.0f", d[0], d[1], d[2]), d[2] < d[0] && d[2] <= d[1]
		}},
	{"abl-bilinear-lift", "Auto bilinear (speedup @13)", "bilinear lifts", "auto ≥ 2× off",
		func(r results) (string, bool) {
			s := tab(r, "abl-bilinear").col("Speedup @13")
			return fmt.Sprintf("%.2f → %.2f", s[0], s[2]), s[2] >= 2*s[0]
		}},
	{"abl-async", "§7 async elaboration (@11)", "future work", "async > sync, each task",
		func(r results) (string, bool) {
			s, a := tab(r, "abl-async").col("Synchronous (Fig 6-4)"), tab(r, "abl-async").col("Asynchronous (merged DAG)")
			return join("%.2f → %.2f", s, a), every(s, func(i int, v float64) bool { return a[i] > v })
		}},
	{"abl-queues", "§6.2 oracle queue counts (@11)", "tails want fewer", "oracle ≥ multi, each task",
		func(r results) (string, bool) {
			m, o := tab(r, "abl-queues").col("Multi-queue speedup"), tab(r, "abl-queues").col("Oracle speedup")
			return join("%.2f → %.2f", m, o), every(m, func(i int, v float64) bool { return o[i] >= v })
		}},
	{"longrun", "§7 long-run chunking (trial 1 → last)", "parallelism grows", "≥ 3 trials; chunks, nodes, @13 grow",
		func(r results) (string, bool) {
			t := tab(r, "longrun")
			c, n, s := t.col("Cumulative chunks"), t.col("2-input nodes"), t.col("Speedup @13")
			k := len(c) - 1
			return fmt.Sprintf("chunks %.0f → %.0f, nodes %.0f → %.0f, @13 %.2f → %.2f", c[0], c[k], n[0], n[k], s[0], s[k]),
				k >= 2 && c[k] > c[0] && n[k] > n[0] && s[k] > s[0]
		}},
}

// summary renders the scorecard: every claim, evaluated on the report's
// results.
func summary(_ *Lab, r results) (fmt.Stringer, error) {
	t := newTable("Reproduction scorecard (per task: Eight-puzzle / Strips / Cypress; see EXPERIMENTS.md)",
		"Claim", "Artifact", "Paper headline", "Measured", "Bound", "Shape")
	for _, c := range claims {
		m, ok := c.read(r)
		shape := "holds"
		if !ok {
			shape = "DIVERGES"
		}
		t.add(c.id, c.artifact, c.paper, m, c.bound, shape)
	}
	return t, nil
}

func tab(r results, id string) *table        { return r[id].(*table) }
func fig(r results, id string) *stats.Figure { return r[id].(*stats.Figure) }

// at13 is each series' last value: the speedup at 13 processes.
func at13(f *stats.Figure) []float64 {
	var out []float64
	for _, s := range f.Series {
		out = append(out, s.Y[len(s.Y)-1])
	}
	return out
}

// atLeast sums a histogram's percentages from bin x on.
func atLeast(f *stats.Figure, x float64) float64 {
	s, sum := f.Series[0], 0.0
	for i := range s.X {
		if s.X[i] >= x {
			sum += s.Y[i]
		}
	}
	return sum
}

// in reports whether lo ≤ v ≤ hi.
func in(v, lo, hi float64) bool { return v >= lo && v <= hi }

// every reports whether ok holds for each of xs.
func every(xs []float64, ok func(i int, v float64) bool) bool {
	for i, v := range xs {
		if !ok(i, v) {
			return false
		}
	}
	return true
}

// join formats row i of cols with f, for each row, separated by " / ".
func join(f string, cols ...[]float64) string {
	out := make([]string, len(cols[0]))
	for i := range out {
		var args []any
		for _, c := range cols {
			args = append(args, c[i])
		}
		out[i] = fmt.Sprintf(f, args...)
	}
	return strings.Join(out, " / ")
}
