package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(100)
	for _, v := range []int{5, 50, 150, 250, 1050, 1100} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Fatalf("N = %d", h.N())
	}
	bins := h.Bins()
	if len(bins) != 5 {
		t.Fatalf("bins = %v", bins)
	}
	if bins[0].Lo != 0 || bins[0].count != 2 {
		t.Fatalf("bin0 = %+v", bins[0])
	}
	if got := h.PercentAtOrAbove(1000); got < 33.2 || got > 33.4 {
		t.Fatalf("PercentAtOrAbove(1000) = %f", got)
	}
	if got := h.PercentBelow(100); got < 33.2 || got > 33.4 {
		t.Fatalf("PercentBelow(100) = %f", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0) // clamps to 1
	if h.PercentAtOrAbove(10) != 0 || h.PercentBelow(10) != 0 {
		t.Fatalf("empty histogram percents nonzero")
	}
	if len(h.Bins()) != 0 {
		t.Fatalf("empty histogram has bins")
	}
}

func TestHistogramPercentsSumProperty(t *testing.T) {
	f := func(vals []uint16, cut uint16) bool {
		h := NewHistogram(10)
		for _, v := range vals {
			h.Add(int(v))
		}
		if h.N() == 0 {
			return true
		}
		total := h.PercentAtOrAbove(int(cut)/10*10) + h.PercentBelow(int(cut)/10*10)
		return total > 99.9 && total < 100.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatalf("empty mean nonzero")
	}
	for _, v := range []float64{1, 2, 6} {
		s.Add(v)
	}
	if s.n != 3 || s.min != 1 || s.max != 6 || s.Mean() != 3 {
		t.Fatalf("summary wrong: %+v mean %f", s, s.Mean())
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "long-header"}}
	tbl.addRow("x", "1")
	tbl.addRow("longer-cell", "2")
	out := tbl.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "long-header") {
		t.Fatalf("bad render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and separator equal width.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("separator misaligned")
	}
}

// A cell with a multi-byte rune (→, µ) pads its column by runes: every
// column starts at the separator's rune offset on every line, and no line
// ends in a space, even a row whose last cell is empty.
func TestTableAlignsInRunes(t *testing.T) {
	tbl := &Table{Headers: []string{"Claim", "Measured", "µs", "Shape"}}
	tbl.addRow("t61", "405 → 406", "1", "holds")
	tbl.addRow("f611-612", "0% → 48%", "µ", "")
	tbl.addRow("x", "y", "10000", "DIVERGES")
	lines := strings.Split(strings.TrimSuffix(tbl.String(), "\n"), "\n")
	var starts []int
	sep := []rune(lines[1])
	for i, r := range sep {
		if r == '-' && (i == 0 || sep[i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	if len(starts) != 4 {
		t.Fatalf("separator %q has %d columns", lines[1], len(starts))
	}
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Errorf("line ends in a space: %q", l)
		}
		rs := []rune(l)
		for _, s := range starts[1:] {
			if s >= len(rs) {
				continue // an empty last cell
			}
			if rs[s-1] != ' ' || rs[s-2] != ' ' || rs[s] == ' ' {
				t.Errorf("a column does not start at rune %d: %q", s, l)
			}
		}
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{Title: "Fig", XLabel: "x", YLabel: "y"}
	a := f.AddSeries("a")
	a.Add(1, 2)
	a.Add(2, 4.25)
	b := f.AddSeries("b")
	b.Add(2, 8)
	out := f.String()
	if !strings.Contains(out, "Fig") || !strings.Contains(out, "4.25") {
		t.Fatalf("bad figure render:\n%s", out)
	}
	// Merged x axis: rows for x=1 and x=2.
	if !strings.Contains(out, "\n1 ") && !strings.Contains(out, "\n1  ") {
		t.Fatalf("missing x=1 row:\n%s", out)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(3) != "3" || trimFloat(3.5) != "3.50" {
		t.Fatalf("trimFloat wrong: %q %q", trimFloat(3), trimFloat(3.5))
	}
}

func TestPlotRendering(t *testing.T) {
	f := &Figure{Title: "Speedups", XLabel: "procs", YLabel: "speedup"}
	a := f.AddSeries("taskA")
	b := f.AddSeries("taskB")
	for p := 1; p <= 13; p++ {
		a.Add(float64(p), float64(p)*0.6)
		b.Add(float64(p), float64(p)*0.3)
	}
	out := f.Plot(40, 10)
	for _, want := range []string{"Speedups", "* taskA", "o taskB", "(procs)", "+----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("plot has no markers:\n%s", out)
	}
	// Empty figure does not crash.
	empty := &Figure{Title: "E"}
	if !strings.Contains(empty.Plot(20, 8), "no data") {
		t.Fatalf("empty plot wrong")
	}
}

func TestPercentile(t *testing.T) {
	h := NewHistogram(10)
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	// Uniform 1..100 in width-10 bins: percentiles interpolate inside the
	// bin holding the p-quantile observation.
	cases := []struct {
		p      float64
		lo, hi float64
	}{
		{50, 40, 60},
		{90, 80, 100},
		{99, 90, 110},
		{100, 90, 110},
	}
	for _, c := range cases {
		got := h.percentile(c.p)
		if got < c.lo || got > c.hi {
			t.Fatalf("Percentile(%g) = %g, want in [%g, %g]", c.p, got, c.lo, c.hi)
		}
	}
	p50, p90, p99 := h.Percentiles()
	if !(p50 < p90 && p90 <= p99) {
		t.Fatalf("percentiles not ordered: %g %g %g", p50, p90, p99)
	}
}

func TestPercentileSingleBin(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 4; i++ {
		h.Add(5)
	}
	for _, p := range []float64{1, 50, 99} {
		got := h.percentile(p)
		if got < 0 || got > 10 {
			t.Fatalf("Percentile(%g) = %g, want within the only bin [0,10]", p, got)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	h := NewHistogram(10)
	if h.percentile(50) != 0 {
		t.Fatalf("empty percentile nonzero")
	}
	p50, p90, p99 := h.Percentiles()
	if p50 != 0 || p90 != 0 || p99 != 0 {
		t.Fatalf("empty percentiles nonzero")
	}
}

// TestPercentileClampedToMax is the regression test for the float
// fallthrough that returned last.Lo+BinWidth — a value above every recorded
// observation — when cumulative rounding skipped the final bin: no
// percentile, p=100 included, may exceed the recorded maximum, and p=100
// must hit it exactly.
func TestPercentileClampedToMax(t *testing.T) {
	cases := []struct {
		name     string
		binWidth int
		vals     []int
	}{
		{"single-bin single-value", 100, []int{3, 3, 3, 3, 3}},
		{"single-bin at low edge", 10, []int{0, 0, 0}},
		{"single observation", 10, []int{7}},
		{"two bins", 10, []int{1, 2, 3, 25}},
		{"uniform", 10, func() []int {
			var v []int
			for i := 1; i <= 100; i++ {
				v = append(v, i)
			}
			return v
		}()},
		{"rounding-prone count", 7, []int{1, 2, 3, 4, 5, 6, 50, 50, 50}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistogram(c.binWidth)
			max := 0
			for _, v := range c.vals {
				h.Add(v)
				if v > max {
					max = v
				}
			}
			if h.Max() != max {
				t.Fatalf("Max = %d, want %d", h.Max(), max)
			}
			for _, p := range []float64{1, 50, 90, 99, 99.9, 100} {
				got := h.percentile(p)
				if got > float64(max) {
					t.Fatalf("Percentile(%g) = %g exceeds max observation %d", p, got, max)
				}
				if got < 0 {
					t.Fatalf("Percentile(%g) = %g negative", p, got)
				}
			}
			if got := h.percentile(100); got != float64(max) {
				t.Fatalf("Percentile(100) = %g, want max %d", got, max)
			}
		})
	}
}

func TestPercentileMonotone(t *testing.T) {
	check := func(vals []int) bool {
		h := NewHistogram(7)
		for _, v := range vals {
			if v < 0 {
				v = -v
			}
			h.Add(v % 1000)
		}
		if h.N() == 0 {
			return true
		}
		prev := 0.0
		for p := 5.0; p <= 100; p += 5 {
			cur := h.percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int { return h.max }

// PercentAtOrAbove returns the share of values >= v.
func (h *Histogram) PercentAtOrAbove(v int) float64 {
	if h.n == 0 {
		return 0
	}
	c := 0
	for bin, cnt := range h.counts {
		if bin*h.binWidth >= v {
			c += cnt
		}
	}
	return 100 * float64(c) / float64(h.n)
}

// PercentBelow returns the share of values < v.
func (h *Histogram) PercentBelow(v int) float64 {
	if h.n == 0 {
		return 0
	}
	return 100 - h.PercentAtOrAbove(v)
}
