// Package trace provides the measurement helpers the experiment harness
// uses to reproduce the paper's tables and figures: latency sample series,
// bandwidth accounting, and plain-text table/series rendering in the shape
// the paper reports (µs latencies, MB/s bandwidths).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// LatencySeries accumulates latency samples.
type LatencySeries struct {
	samples []sim.Duration
	sorted  bool
}

// Add appends a sample.
func (s *LatencySeries) Add(d sim.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = false
}

// Reserve pre-sizes the series for n further samples, so a measurement loop
// of known length never reallocates mid-run.
func (s *LatencySeries) Reserve(n int) {
	if free := cap(s.samples) - len(s.samples); free < n {
		grown := make([]sim.Duration, len(s.samples), len(s.samples)+n)
		copy(grown, s.samples)
		s.samples = grown
	}
}

// N reports the sample count.
func (s *LatencySeries) N() int { return len(s.samples) }

// Mean returns the average sample.
func (s *LatencySeries) Mean() sim.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, v := range s.samples {
		sum += v
	}
	return sum / sim.Duration(len(s.samples))
}

// Min returns the smallest sample.
func (s *LatencySeries) Min() sim.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample.
func (s *LatencySeries) Max() sim.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples {
		if v > m {
			m = v
		}
	}
	return m
}

func (s *LatencySeries) sort() {
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
}

// Percentile returns the p-th percentile sample (0 < p <= 100).
func (s *LatencySeries) Percentile(p float64) sim.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	idx := int(math.Ceil(p/100*float64(len(s.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.samples) {
		idx = len(s.samples) - 1
	}
	return s.samples[idx]
}

// stddev returns the sample standard deviation.
func (s *LatencySeries) stddev() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, v := range s.samples {
		d := float64(v) - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n-1))
}

// Bandwidth converts bytes moved over a span into MB/s (decimal MB, as the
// paper reports).
func Bandwidth(bytes uint64, span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(bytes) / span.Seconds() / 1e6
}

// Point is one (x, y) sample of a figure's series.
type Point struct {
	X float64
	Y float64
}

// Series is a named curve of a figure (e.g. "GM" and "FTGM" in Figures 7
// and 8).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Table renders rows of labeled values as fixed-width text, in the style
// the paper's tables use.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the table as text.
func (t *Table) Render() string {
	var b strings.Builder
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// RenderSeries renders figure curves as aligned columns: x then one y
// column per series (the textual equivalent of the paper's plots).
func RenderSeries(title, xLabel string, series ...Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "  %12s", s.Name)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 12+14*len(series)))
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%-12.0f", series[0].Points[i].X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "  %12.2f", s.Points[i].Y)
			} else {
				fmt.Fprintf(&b, "  %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
