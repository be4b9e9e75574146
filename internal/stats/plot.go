package stats

import (
	"fmt"
	"math"
	"strings"
)

// Plot renders the figure as an ASCII chart (width×height characters of
// plotting area), one marker per series, with y-axis labels — a terminal
// rendition of the paper's figures.
func (f *Figure) Plot(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1)
	points := 0
	for _, s := range f.Series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			maxY = math.Max(maxY, s.Y[i])
			points++
		}
	}
	if points == 0 {
		return f.Title + "\n(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}

	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, m byte) {
		c := int(math.Round((x - minX) / (maxX - minX) * float64(width-1)))
		r := height - 1 - int(math.Round((y-minY)/(maxY-minY)*float64(height-1)))
		if c < 0 || c >= width || r < 0 || r >= height {
			return
		}
		if grid[r][c] != ' ' && grid[r][c] != m {
			grid[r][c] = '&' // overlapping series
			return
		}
		grid[r][c] = m
	}
	for si, s := range f.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			plot(s.X[i], s.Y[i], m)
		}
	}

	var sb strings.Builder
	sb.WriteString(f.Title)
	sb.WriteByte('\n')
	for si, s := range f.Series {
		fmt.Fprintf(&sb, "  %c %s\n", markers[si%len(markers)], s.name)
	}
	label := func(v float64) string { return fmt.Sprintf("%8.2f", v) }
	for r := 0; r < height; r++ {
		if r == 0 {
			sb.WriteString(label(maxY))
		} else if r == height-1 {
			sb.WriteString(label(minY))
		} else {
			sb.WriteString(strings.Repeat(" ", 8))
		}
		sb.WriteString(" |")
		sb.Write(grid[r])
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat(" ", 9))
	sb.WriteByte('+')
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%s %s .. %s (%s)\n",
		strings.Repeat(" ", 9), trimFloat(minX), trimFloat(maxX), f.XLabel)
	return sb.String()
}
