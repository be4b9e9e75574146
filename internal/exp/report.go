package exp

import (
	"fmt"
	"io"
	"math"
	"strings"

	"soarpsme/internal/stats"
)

// section is one experiment of the report: its id (experiments -exp), what
// it reproduces, and its driver. A driver's result is what the section
// prints and what the claims read (claims.go).
type section struct {
	id, desc string
	run      func(*Lab, results) (fmt.Stringer, error)
}

// results maps a section id to its driver's result in one report.
type results map[string]fmt.Stringer

// driver adapts an experiment driver to a section; only the scorecard
// reads the other sections' results.
func driver[T fmt.Stringer](f func(*Lab) (T, error)) func(*Lab, results) (fmt.Stringer, error) {
	return func(l *Lab, _ results) (fmt.Stringer, error) { return f(l) }
}

// sections is the report, in order. summary comes last: it reads every
// other section's result.
var sections = []section{
	{"t51", "Table 5-1: CEs and code size per chunk", driver(table51)},
	{"t52", "Table 5-2: chunk compile time, shared vs unshared", driver(table52)},
	{"t61", "Table 6-1: task granularity", driver(table61)},
	{"f61", "Figure 6-1: speedups, single queue", driver(fig61)},
	{"f62", "Figure 6-2: hash bucket contention", driver(fig62)},
	{"f63", "Figure 6-3: task-queue contention", driver(fig63)},
	{"f64", "Figure 6-4: speedups, multiple queues", driver(fig64)},
	{"f65", "Figure 6-5: per-cycle speedups", driver(fig65)},
	{"f66", "Figure 6-6: tasks in system over time", driver(fig66)},
	{"f67", "Figure 6-7: long-chain productions", driver(fig67)},
	{"f68", "Figure 6-8: constrained bilinear networks", driver(fig68)},
	{"f69", "Figure 6-9: update-phase speedups", driver(fig69)},
	{"f610", "Figure 6-10: after-chunking speedups", driver(fig610)},
	{"f611", "Figure 6-11: tasks/cycle without chunking", driver(fig611)},
	{"f612", "Figure 6-12: tasks/cycle after chunking", driver(fig612)},
	{"extras", "prose measurements (5.1, 6.3)", driver(extras)},
	{"abl-mem", "ablation: hashed vs linear memories (6.1)", driver(ablationMemories)},
	{"abl-share", "ablation: node sharing (5.1)", driver(ablationSharing)},
	{"abl-unlink", "ablation: left/right unlinking + hashed alpha dispatch", driver(ablationUnlink)},
	{"abl-bilinear", "ablation: automatic bilinear restructuring (6-8, cypress)", driver(ablationBilinear)},
	{"abl-async", "future work: asynchronous elaboration (7)", driver(ablationAsync)},
	{"abl-queues", "scheduling: per-cycle oracle queue counts (6.2)", driver(ablationAdaptiveQueues)},
	{"diagnose", "diagnostics: causes of low-speedup cycles (7)", driver(diagnoseTable)},
	{"longrun", "future work: chunking over long periods (7)", driver(longRunChunking)},
	{"summary", "reproduction scorecard", summary},
}

// Report checks which ("all" or one section id, in any case) and returns
// the renderer of that part of the report: it writes each selected section
// through l to w, in report order, and calls done with the section's id
// once it is written. With plot, figures are drawn as ASCII charts too.
func Report(which string, plot bool) (func(w io.Writer, l *Lab, done func(id string)) error, error) {
	for _, s := range sections {
		if strings.EqualFold(which, s.id) || which == "all" {
			return func(w io.Writer, l *Lab, done func(string)) error {
				return report(w, l, which, plot, func(id string, _ fmt.Stringer) { done(id) })
			}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", which)
}

// report renders the selected sections and hands done each one's result.
// The scorecard reads every section, so selecting it alone still runs
// them all, printing only the scorecard.
func report(w io.Writer, l *Lab, which string, plot bool, done func(id string, v fmt.Stringer)) error {
	res := results{}
	for _, s := range sections {
		on := which == "all" || strings.EqualFold(which, s.id)
		if !on && !strings.EqualFold(which, "summary") {
			continue
		}
		v, err := s.run(l, res)
		if err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
		res[s.id] = v
		if !on {
			continue
		}
		text := v.String()
		if f, ok := v.(interface{ Plot(w, h int) string }); ok && plot {
			text = f.Plot(64, 18) + "\n" + text
		}
		fmt.Fprintf(w, "==== %s (%s) ====\n%s\n", s.id, s.desc, text)
		done(s.id, v)
	}
	return nil
}

// table is a stats.Table whose numeric cells keep the value they print, so
// a claim reads a driver's numbers, never its text.
type table struct {
	stats.Table
	nums [][]float64 // nums[row][column]; NaN in a text cell
}

func newTable(title string, headers ...string) *table {
	return &table{Table: stats.Table{Title: title, Headers: headers}}
}

// cell is one numeric cell: its value and the fmt verb it prints with.
type cell struct {
	f string
	v float64
}

// num is a cell printing v with format f; count prints an integer.
func num(f string, v float64) cell             { return cell{f, v} }
func count[T ~int | ~int32 | ~int64](n T) cell { return cell{"%.0f", float64(n)} }

// add appends a row of string and cell values. It is the only way a row
// enters a table, so nums stays aligned with Rows.
func (t *table) add(cells ...any) {
	row, vals := make([]string, len(cells)), make([]float64, len(cells))
	for i, c := range cells {
		switch c := c.(type) {
		case string:
			row[i], vals[i] = c, math.NaN()
		case cell:
			row[i], vals[i] = fmt.Sprintf(c.f, c.v), c.v
		default:
			panic(fmt.Sprintf("exp: a %T table cell", c))
		}
	}
	t.Rows, t.nums = append(t.Rows, row), append(t.nums, vals)
}

// col returns the values of the column headed h, one per row.
func (t *table) col(h string) []float64 {
	for j, name := range t.Headers {
		if name == h {
			out := make([]float64, len(t.nums))
			for i := range t.nums {
				out[i] = t.nums[i][j]
			}
			return out
		}
	}
	panic("exp: no column " + h)
}
