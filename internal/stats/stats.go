// Package stats provides the small statistics toolkit the experiment
// harness uses: histograms, summary accumulators, and plain-text table and
// series rendering in the shape of the paper's tables and figures.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Histogram counts values into fixed-width bins.
type Histogram struct {
	binWidth int
	counts   map[int]int
	n        int
	max      int
}

// NewHistogram creates a histogram with the given bin width.
func NewHistogram(binWidth int) *Histogram {
	if binWidth < 1 {
		binWidth = 1
	}
	return &Histogram{binWidth: binWidth, counts: map[int]int{}}
}

// Add records one value.
func (h *Histogram) Add(v int) {
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.counts[v/h.binWidth]++
	h.n++
}

// N returns the number of recorded values.
func (h *Histogram) N() int { return h.n }

// Bin is one histogram bin: [Lo, Lo+width) with its percentage share.
type Bin struct {
	Lo      int
	count   int
	Percent float64
}

// Bins returns the non-empty bins in ascending order.
func (h *Histogram) Bins() []Bin {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Bin, 0, len(keys))
	for _, k := range keys {
		c := h.counts[k]
		out = append(out, Bin{Lo: k * h.binWidth, count: c, Percent: 100 * float64(c) / float64(h.n)})
	}
	return out
}

// percentile approximates the p'th percentile (0 < p <= 100) of the
// recorded values: the bin containing the p-quantile observation is found
// by cumulative count, then linearly interpolated. Returns 0 when empty.
func (h *Histogram) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := p / 100 * float64(h.n)
	if target < 1 {
		target = 1
	}
	cum := 0.0
	bins := h.Bins()
	var v float64
	for i, b := range bins {
		cnt := float64(b.count)
		// The last bin always resolves: cumulative float rounding can make
		// target overshoot n slightly (p=100), and falling through here used
		// to return last.Lo+binWidth unconditionally.
		if i == len(bins)-1 || cum+cnt >= target {
			frac := (target - cum) / cnt
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			v = float64(b.Lo) + frac*float64(h.binWidth)
			break
		}
		cum += cnt
	}
	// Interpolation estimates within [Lo, Lo+binWidth), but the true maximum
	// observation is known exactly: no percentile may exceed it.
	if m := float64(h.max); v > m {
		v = m
	}
	return v
}

// Percentiles returns the (p50, p90, p99) percentiles.
func (h *Histogram) Percentiles() (p50, p90, p99 float64) {
	return h.percentile(50), h.percentile(90), h.percentile(99)
}

// Summary accumulates count/sum/min/max.
type Summary struct {
	n        int
	sum      float64
	min, max float64
}

// Add records a value.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
}

// Mean returns the average (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Table renders rows of labelled columns as aligned plain text.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// addRow appends one row.
func (t *Table) addRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table. Columns are sized and padded in runes, so a
// cell holding →, µ or § keeps its column aligned, and a line ends at its
// last cell's last character.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		var l strings.Builder
		for i, c := range cells {
			if i > 0 {
				l.WriteString("  ")
			}
			fmt.Fprintf(&l, "%-*s", widths[i], c) // fmt pads in runes
		}
		sb.WriteString(strings.TrimRight(l.String(), " "))
		sb.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// Series is a labelled (x, y) sequence — one curve of a figure.
type Series struct {
	name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series with axis labels.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries appends and returns a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{name: name}
	f.Series = append(f.Series, s)
	return s
}

// String renders the figure as aligned columns (x, then one column per
// series), merging the x-coordinates of all series.
func (f *Figure) String() string {
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	keys := make([]float64, 0, len(xs))
	for x := range xs {
		keys = append(keys, x)
	}
	sort.Float64s(keys)
	t := &Table{Title: fmt.Sprintf("%s\n(y: %s)", f.Title, f.YLabel)}
	t.Headers = append(t.Headers, f.XLabel)
	for _, s := range f.Series {
		t.Headers = append(t.Headers, s.name)
	}
	for _, x := range keys {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		t.addRow(row...)
	}
	return t.String()
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
