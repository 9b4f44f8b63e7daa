package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Suite mode runs every workload several times, one child process per run,
// interleaved round-robin (A B C D E, A B C D E, ...) so machine drift
// spreads over all workloads, then the traced pass, and reports each
// end-to-end metric as median, min, max, quartiles and n.

type suiteOptions struct {
	seed    uint64
	seconds float64
	repeats int
	out     string
	only    []string // workload names; empty means all
}

// suiteEnv records the conditions of a suite run (noise hygiene).
type suiteEnv struct {
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeats    int     `json:"repeats"`
}

// metricRuns is one end-to-end metric over the repeats of one workload.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	dist
}

type workloadResults struct {
	EndToEnd map[string]*metricRuns `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer"`
}

// suiteResults is the layout of bench/out/results.json.
type suiteResults struct {
	Env       suiteEnv                    `json:"env"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

func runSuite(o suiteOptions, stdout, stderr io.Writer) int {
	var list []*workload
	for _, w := range workloads {
		if len(o.only) == 0 || slices.Contains(o.only, w.name) {
			list = append(list, w)
		}
	}
	if len(list) == 0 || o.repeats < 1 {
		fmt.Fprintf(stderr, "bench: nothing to run (workloads %v, repeats %d)\n", o.only, o.repeats)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	res := suiteResults{
		Env: suiteEnv{
			NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: pinnedGOMAXPROCS,
			Load1Start: loadAvg1(), Seed: o.seed, Seconds: o.seconds, Repeats: o.repeats,
		},
		Workloads: map[string]*workloadResults{},
	}
	failed := false
	child := func(w *workload, trace int) (runOutput, bool) {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var ro runOutput
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ro); err != nil {
			fmt.Fprintf(stderr, "bench: %s printed no result (%v, %v)\n", w.name, runErr, err)
			return ro, false
		}
		if runErr != nil || !ro.Correct {
			fmt.Fprintf(stderr, "bench: %s failed its correctness checks (%d of %d sends failed)\n", w.name, ro.Failed, ro.Attempted)
			return ro, false
		}
		return ro, true
	}

	for _, w := range list {
		wr := &workloadResults{EndToEnd: map[string]*metricRuns{}, PerLayer: map[string]metricValue{}}
		for _, s := range endToEnd {
			wr.EndToEnd[s.name] = &metricRuns{Unit: s.unit, Better: s.better, Bound: s.bound}
		}
		res.Workloads[w.name] = wr
	}
	for rep := 0; rep < o.repeats; rep++ {
		for _, w := range list {
			fmt.Fprintf(stderr, "== %s run %d/%d\n", w.name, rep+1, o.repeats)
			ro, ok := child(w, 0)
			if !ok {
				failed = true
				continue
			}
			for name, mr := range res.Workloads[w.name].EndToEnd {
				mr.Values = append(mr.Values, ro.Metrics[name].Value)
			}
		}
	}
	for _, w := range list {
		fmt.Fprintf(stderr, "== %s traced pass\n", w.name)
		ro, ok := child(w, 1)
		if !ok {
			failed = true
			continue
		}
		res.Workloads[w.name].PerLayer = ro.Metrics
	}
	res.Env.Load1End = loadAvg1()

	// Reduce, check that simulated results repeated exactly, report.
	for _, w := range list {
		for _, s := range endToEnd {
			mr := res.Workloads[w.name].EndToEnd[s.name]
			mr.dist = summarize(mr.Values)
			if exactMetric(s.name) && mr.Min != mr.Max {
				fmt.Fprintf(stderr, "bench: %s %s differs between runs of one seed (%v): the simulation is not deterministic\n", w.name, s.name, mr.Values)
				failed = true
			}
		}
	}
	printSuite(stdout, &res, list)
	if err := writeJSON(o.out, &res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresults written to %s\n", o.out)
	if failed {
		return 1
	}
	return 0
}

// exactMetric reports whether a metric must repeat exactly under one seed:
// the simulated results and the delivery verdict.
func exactMetric(name string) bool {
	return strings.HasPrefix(name, "sim_") || name == "delivered_share"
}

func printSuite(w io.Writer, res *suiteResults, list []*workload) {
	e := res.Env
	fmt.Fprintf(w, "bench: seed %d, %d runs x %.0f s per workload; nproc %d, GOMAXPROCS %d, %s, load1 %.2f -> %.2f\n",
		e.Seed, e.Repeats, e.Seconds, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Load1Start, e.Load1End)
	for _, wl := range list {
		wr := res.Workloads[wl.name]
		fmt.Fprintf(w, "\n%s (%s loop)\n", wl.name, wl.loop)
		fmt.Fprintf(w, "  %-22s %-9s %14s %14s %14s %8s %8s %3s\n", "end-to-end", "unit", "median", "min", "max", "iqr%", "range%", "n")
		for _, s := range endToEnd {
			m := wr.EndToEnd[s.name]
			fmt.Fprintf(w, "  %-22s %-9s %14.6g %14.6g %14.6g %8.2f %8.2f %3d\n", s.name, s.unit,
				m.Median, m.Min, m.Max, 100*ratio(m.iqr(), m.Median), 100*ratio(m.Max-m.Min, m.Median), m.N)
		}
		for _, s := range endToEnd {
			m := wr.EndToEnd[s.name]
			if spread := ratio(m.iqr(), m.Median); !exactMetric(s.name) && spread > s.bound {
				fmt.Fprintf(w, "  WARNING %s: spread %.1f%% exceeds its bound %.1f%%; a comparison on this box will read unresolved\n",
					s.name, 100*spread, 100*s.bound)
			}
		}
		if len(wr.PerLayer) == 0 {
			continue
		}
		fmt.Fprintf(w, "  per-layer (traced pass, n = 1 run)\n")
		for _, s := range perLayer {
			if v, ok := wr.PerLayer[s.name]; ok {
				fmt.Fprintf(w, "    %-34s %14.6g %s\n", s.name, v.Value, v.Unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
