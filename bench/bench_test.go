package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

const (
	smokeScale  = 200
	manifestRel = "../BENCHMARK.json"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestMetric is one metric entry; per-layer metrics carry no bound.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func tablesManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 12,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.name, w.why})
	}
	for _, s := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{s.name, s.unit, s.better, s.bound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: s.name, Unit: s.unit, Better: s.better})
	}
	return m
}

// TestManifest keeps BENCHMARK.json and the program's tables in step and
// inside the contract's limits.
func TestManifest(t *testing.T) {
	want := tablesManifest()
	if *update {
		if err := writeJSON(manifestRel, want); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(manifestRel)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("BENCHMARK.json is out of step with the tables in metrics.go/workloads.go; run go test -run TestManifest -update\n got %s\nwant %s", gotJSON, wantJSON)
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is outside the allowed alphabet", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	for _, w := range workloads {
		check(w.name, "", "")
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.name, len(w.why))
		}
	}
	setup := false
	for _, s := range endToEnd {
		check(s.name, s.unit, s.better)
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.name, s.bound)
		}
		setup = setup || (s.name == "setup_s" && s.unit == "s" && s.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, s := range perLayer {
		check(s.name, s.unit, s.better)
	}
}

// TestSmoke runs every workload at 1/200 size in process, twice, and checks
// that the rounds are clean, that the simulated outcome repeats exactly,
// and that every end-to-end metric is printed and non-zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		var digests [2]uint64
		var sims [2][2]float64
		for i := range digests {
			rs, err := runRounds(w, baseEnv(2003, smokeScale), gcOff, 0, 1, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for _, v := range rs.violations {
				t.Errorf("%s: %s", w.name, v)
			}
			if rs.failed != 0 || rs.attempted == 0 {
				t.Errorf("%s: %d of %d sends failed", w.name, rs.failed, rs.attempted)
			}
			out := newOutput(rs, endToEnd, rs.endToEndMetrics())
			for _, s := range endToEnd {
				if v, ok := out.Metrics[s.name]; !ok || v.Value == 0 || v.Unit != s.unit {
					t.Errorf("%s: metric %s = %+v", w.name, s.name, v)
				}
			}
			digests[i] = rs.rounds[0].digest
			sims[i] = [2]float64{rs.rounds[0].simMBs, rs.rounds[0].simLatencyUs}
		}
		if digests[0] != digests[1] || sims[0] != sims[1] {
			t.Errorf("%s: simulated outcome differs between two runs of one seed: digest %016x vs %016x, %v vs %v",
				w.name, digests[0], digests[1], sims[0], sims[1])
		}
	}
}

// TestTracedSmoke runs the traced pass of the two workloads that own the
// most variant cells, at 1/200 size, and checks that every per-layer metric
// is printed.
func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"pair_small", "clos_alltoall"} {
		out, err := runTraced(findWorkload(name), 2003, 0, smokeScale, 2*time.Millisecond, t.TempDir(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Correct {
			t.Errorf("%s: traced pass reported a correctness violation", name)
		}
		for _, s := range perLayer {
			if v, ok := out.Metrics[s.name]; !ok || v.Unit != s.unit {
				t.Errorf("%s: per-layer metric %s missing or mislabelled: %+v", name, s.name, v)
			}
		}
		if got := len(out.Metrics); got != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics printed, want %d", name, got, len(perLayer))
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.hasID":                                "core",
		"repro/internal/core.(*ShadowStore).AddSendToken":          "core",
		"repro/gm.(*Port).Send":                                    "gm",
		"repro/internal/routing.Tables":                            "mapper",
		"repro/internal/sim.(*Deferred[go.shape.struct {}]).After": "sim",
		"main.(*endpoint).check":                                   "bench",
		"runtime.memmove":                                          "rt",
		"hash/crc32.ieeeCLMUL":                                     "rt",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricSpec{name: "wall_ns_per_msg", better: "lower", bound: 0.25}
	runs := func(v ...float64) *metricRuns { return &metricRuns{Values: v, dist: summarize(v)} }
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b *metricRuns
		want string
	}{
		{"same", wall, runs(100, 101, 102), runs(100, 101, 103), "ok"},
		{"worse beyond bound", wall, runs(100, 101, 102), runs(140, 141, 142), "regressed"},
		{"noisy and overlapping", wall, runs(60, 100, 150), runs(80, 120, 170), "unresolved"},
		{"noisy but separate", wall, runs(60, 100, 150), runs(20, 30, 45), "ok"},
		{"sim changed for the worse", metricSpec{name: "sim_mbs", better: "higher", bound: 0.05}, runs(92.98, 92.98), runs(92.97, 92.97), "regressed"},
	} {
		if got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
