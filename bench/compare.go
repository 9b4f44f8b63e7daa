package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareFiles prints one row per (workload, end-to-end metric) of two
// suite result files — A the reference, B the candidate — with a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  either side's spread (IQR/median) is wider than the bound
//	            and the two sets of runs overlap, so the medians decide nothing
//
// Simulated results, the delivery verdict and per-layer counts compare
// exactly: under one seed they repeat, so any difference is a change of
// behaviour, not noise. Exit status is 1 if any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func loadResults(path string) (*suiteResults, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResults
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareResults(a, b *suiteResults, w io.Writer) int {
	if a.Env.Seed != b.Env.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d); simulated results are only exact under one seed\n", a.Env.Seed, b.Env.Seed)
	}
	regressed, unresolved := 0, 0
	fmt.Fprintf(w, "%-15s %-20s %13s %13s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "A iqr%", "B iqr%", "bound%", "verdict")
	for _, wl := range workloads {
		name := wl.name
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, s := range endToEnd {
			ma, mb := wa.EndToEnd[s.name], wb.EndToEnd[s.name]
			if ma == nil || mb == nil || ma.N == 0 || mb.N == 0 {
				continue
			}
			v := verdict(s, ma, mb)
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-15s %-20s %13.6g %13.6g %8.2f %8.2f %7.1f  %s\n", name, s.name, ma.Median, mb.Median,
				100*ratio(ma.iqr(), ma.Median), 100*ratio(mb.iqr(), mb.Median), 100*s.bound, v)
		}
		for _, s := range perLayer {
			va, okA := wa.PerLayer[s.name]
			vb, okB := wb.PerLayer[s.name]
			if okA && okB && exactLayerMetric(s) && va.Value != vb.Value {
				fmt.Fprintf(w, "%-15s %-34s %13.6g -> %-13.6g %s  changed\n", name, s.name, va.Value, vb.Value, s.unit)
			}
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

// exactLayerMetric reports whether a per-layer metric is a count or a
// simulated quantity of the program, which repeat exactly under one seed
// (the harness's and the runtime's own counts depend on the machine).
func exactLayerMetric(s metricSpec) bool {
	if strings.HasPrefix(s.name, "bench.") || strings.HasPrefix(s.name, "rt.") {
		return false
	}
	return s.unit == "count" || strings.HasPrefix(s.unit, "sim_")
}

// verdict applies the pairing rule to one row.
func verdict(s metricSpec, a, b *metricRuns) string {
	worse := b.Median - a.Median
	if s.better == "higher" {
		worse = -worse
	}
	if exactMetric(s.name) {
		switch {
		case worse > 0:
			return "regressed"
		case worse < 0:
			return "ok (changed)"
		}
		return "ok"
	}
	spread := ratio(a.iqr(), a.Median)
	if sb := ratio(b.iqr(), b.Median); sb > spread {
		spread = sb
	}
	if spread > s.bound {
		// The medians decide nothing unless the runs separate completely.
		bBetter, bWorse := b.Max < a.Min, b.Min > a.Max
		if s.better == "higher" {
			bBetter, bWorse = b.Min > a.Max, b.Max < a.Min
		}
		if !bBetter && !bWorse {
			return "unresolved"
		}
	}
	if worse > s.bound*math.Abs(a.Median) {
		return "regressed"
	}
	return "ok"
}
