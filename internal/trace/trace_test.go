package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLatencySeriesBasics(t *testing.T) {
	var s LatencySeries
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series not zero")
	}
	for _, v := range []sim.Duration{30, 10, 20} {
		s.Add(v)
	}
	if s.N() != 3 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 20 || s.Min() != 10 || s.Max() != 30 {
		t.Errorf("mean/min/max = %v/%v/%v", s.Mean(), s.Min(), s.Max())
	}
	if s.Percentile(50) != 20 {
		t.Errorf("p50 = %v", s.Percentile(50))
	}
	if s.Percentile(100) != 30 {
		t.Errorf("p100 = %v", s.Percentile(100))
	}
}

func TestLatencyStddev(t *testing.T) {
	var s LatencySeries
	s.Add(10)
	if s.stddev() != 0 {
		t.Error("stddev of one sample not zero")
	}
	s.Add(10)
	if s.stddev() != 0 {
		t.Error("stddev of equal samples not zero")
	}
	s.Add(16)
	if d := s.stddev(); d < 3.4 || d > 3.5 {
		t.Errorf("stddev = %v, want ~3.46", d)
	}
}

func TestBandwidth(t *testing.T) {
	// 92 MB over one second = 92 MB/s.
	if got := Bandwidth(92_000_000, sim.Second); got != 92.0 {
		t.Errorf("Bandwidth = %v", got)
	}
	if Bandwidth(100, 0) != 0 {
		t.Error("zero-span bandwidth not zero")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:   "Table 2. Comparison",
		Headers: []string{"Metric", "GM", "FTGM"},
	}
	tb.AddRow("Bandwidth", "92.4MB/s", "92.0MB/s")
	tb.AddRow("Latency", "11.5us", "13.0us")
	out := tb.Render()
	for _, want := range []string{"Table 2", "Metric", "92.4MB/s", "13.0us", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSeries(t *testing.T) {
	gm := Series{Name: "GM"}
	ft := Series{Name: "FTGM"}
	gm.Add(1, 0.5)
	gm.Add(4096, 80.2)
	ft.Add(1, 0.45)
	out := RenderSeries("Figure 7", "bytes", gm, ft)
	for _, want := range []string{"Figure 7", "GM", "FTGM", "4096", "80.20", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if out := RenderSeries("empty", "x"); !strings.Contains(out, "empty") {
		t.Error("empty render broken")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s LatencySeries
		for _, v := range raw {
			s.Add(sim.Duration(v))
		}
		last := sim.Duration(-1)
		for _, p := range []float64{1, 25, 50, 75, 99, 100} {
			v := s.Percentile(p)
			if v < last || v < s.Min() || v > s.Max() {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
