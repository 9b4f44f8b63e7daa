// Command bench is the repository's benchmark: five workloads over the
// simulated Myrinet/GM stack, nine end-to-end metrics, per-layer attribution
// and a traced pass. See README.md in this directory.
//
// One workload run (the form BENCHMARK.json's command takes):
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// prints one JSON object as the last line of standard output. With no
// --workload it runs the whole suite (every workload -repeats times,
// interleaved, then the traced pass) and writes bench/out/results.json;
// -compare A.json B.json compares two such files.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/gm"
)

// Pinned for every run so host numbers compare: the load generator is one
// goroutine; clos_alltoall adds the engine's two shard workers.
//
// The collector runs between rounds (a forced collection before each) and
// never inside one (gcOff). Where a collection would fall inside a window is
// settled by heap-trigger arithmetic — how much the rounds before left
// behind, whether a concurrent mark overlaps the last slices — and each one
// also empties the packet arena (a sync.Pool), so a window's time would carry
// a share that moves from run to run for reasons outside the change under
// test. Held off, wall_ns_per_msg is the program's own work and the alloc
// metrics its own demand; a change that makes more garbage shows in
// alloc_bytes_per_msg, and the traced pass measures what collection costs at
// GOGC=100 in rounds of its own (rt.gc_*).
const (
	pinnedGOMAXPROCS = 2
	gcOff            = -1
	gcDefault        = 100
	minRounds        = 3
	probeBudget      = time.Second
	outDir           = "bench/out"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload and print its JSON result (default: the whole suite)")
		seed    = fs.Uint64("seed", 2003, "seed for payload patterns, start stagger, ping-pong sizes and hang instants")
		seconds = fs.Float64("seconds", 12, "measurement budget of one run: rounds repeat until it is spent")
		trace   = fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
		repeats = fs.Int("repeats", 5, "suite mode: runs per workload")
		compare = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		out     = fs.String("out", outDir+"/results.json", "suite mode: where to write the results")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(pinnedGOMAXPROCS)

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *name == "":
		return runSuite(suiteOptions{seed: *seed, seconds: *seconds, repeats: *repeats, out: *out, only: fs.Args()}, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res runOutput
	var err error
	if *trace != 0 {
		res, err = runTraced(w, *seed, budget, 1, probeBudget, outDir, stderr)
	} else {
		res, err = runUntraced(w, *seed, budget, 1, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the JSON object a workload run prints.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newOutput(rs *runStats, specs []metricSpec, values map[string]float64) runOutput {
	o := runOutput{
		Correct:   len(rs.violations) == 0 && rs.failed == 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		o.Metrics[s.name] = metricValue{Value: values[s.name], Unit: s.unit}
	}
	return o
}

// runRounds repeats rounds of w under one seed until the budget is spent:
// a further round starts only if, going by the last one, it would finish
// inside the budget. At least atLeast rounds run regardless.
func runRounds(w *workload, env roundEnv, gcPercent int, budget time.Duration, atLeast int, log io.Writer) (*runStats, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	rs := &runStats{}
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		r, err := w.round(env)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rs.add(r, i)
		last := time.Since(t0)
		fmt.Fprintf(log, "%s round %d: %d msgs, setup %.1f ms, %.0f ns/msg wall, %.0f ns/msg cpu, drift %.2f, sim_digest %016x\n",
			w.name, i, r.msgs, float64(r.setupNs)/1e6, ratio(float64(r.host.wallNs), float64(r.msgs)),
			ratio(float64(r.host.cpuNs), float64(r.msgs)), r.driftRatio, r.digest)
		if len(rs.rounds) >= atLeast && time.Since(start)+last > budget {
			break
		}
	}
	for _, v := range rs.violations {
		fmt.Fprintf(log, "%s VIOLATION %s\n", w.name, v)
	}
	return rs, nil
}

func baseEnv(seed uint64, scale int) roundEnv {
	return roundEnv{seed: seed, scale: scale, mode: gm.ModeFTGM, shards: 2}
}

// runUntraced is an ordinary run: tracing off, end-to-end metrics out.
func runUntraced(w *workload, seed uint64, budget time.Duration, scale int, log io.Writer) (runOutput, error) {
	rs, err := runRounds(w, baseEnv(seed, scale), gcOff, budget, minRounds, log)
	if err != nil {
		return runOutput{}, err
	}
	return newOutput(rs, endToEnd, rs.endToEndMetrics()), nil
}

// runTraced is the traced pass for one workload. Four stages, so that each
// cost is read against the same base: two untraced rounds (the base), rounds
// with spans on for half the budget (span metrics, bench.trace_overhead_ratio),
// rounds with the collector at GOGC=100 under a CPU profile for the other
// half (cpu shares, rt.*), then the workload's variant cells and the probes.
// It prints the per-layer metrics.
func runTraced(w *workload, seed uint64, budget time.Duration, scale int, probeBudget time.Duration, traceDir string, log io.Writer) (runOutput, error) {
	env := baseEnv(seed, scale)
	base, err := runRounds(w, env, gcOff, 0, 2, log)
	if err != nil {
		return runOutput{}, err
	}
	in := tracedInputs{workload: w.name, untracedWall: base.endToEndMetrics()["wall_ns_per_msg"]}

	env.tr = newTracer(w.name)
	rs, err := runRounds(w, env, gcOff, budget/2, 2, log)
	if err != nil {
		return runOutput{}, err
	}
	in.spans = env.tr.totals()
	if err := env.tr.write(fmt.Sprintf("%s/trace-%s.json", traceDir, w.name)); err != nil {
		fmt.Fprintf(log, "%s: trace not written: %v\n", w.name, err)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return runOutput{}, err
	}
	in.gc, err = runRounds(w, baseEnv(seed, scale), gcDefault, budget/2, 2, log)
	pprof.StopCPUProfile()
	if err != nil {
		return runOutput{}, err
	}
	if in.cpu, err = foldCPUProfile(prof.Bytes()); err != nil {
		return runOutput{}, fmt.Errorf("cpu profile: %w", err)
	}

	in.variants, err = runVariants(w, seed, scale, base, log)
	if err != nil {
		return runOutput{}, err
	}
	if in.probes, err = runProbes(probeBudget, scale); err != nil {
		return runOutput{}, fmt.Errorf("probes: %w", err)
	}
	for _, other := range []*runStats{base, in.gc} {
		rs.violations = append(rs.violations, other.violations...)
		rs.failed += other.failed
		rs.attempted += other.attempted
	}
	return newOutput(rs, perLayer, rs.perLayerMetrics(in)), nil
}

// runVariants runs the variant cells a workload owns: the same round with
// one mechanism switched, compared with the untraced base rounds.
func runVariants(w *workload, seed uint64, scale int, base *runStats, log io.Writer) (map[string]float64, error) {
	out := map[string]float64{}
	b := base.endToEndMetrics()
	cell := func(label string, mod func(*roundEnv)) (map[string]float64, *roundResult, error) {
		env := baseEnv(seed, scale)
		mod(&env)
		rs, err := runRounds(&workload{name: w.name + "[" + label + "]", round: w.round}, env, gcOff, 0, 1, log)
		if err != nil {
			return nil, nil, fmt.Errorf("variant %s: %w", label, err)
		}
		base.violations = append(base.violations, rs.violations...)
		return rs.endToEndMetrics(), rs.rounds[0], nil
	}
	switch w.name {
	case "pair_small":
		g, _, err := cell("gm", func(e *roundEnv) { e.mode = gm.ModeGM })
		if err != nil {
			return nil, err
		}
		out["core.ftgm_host_overhead_ratio"] = ratio(b["wall_ns_per_msg"], g["wall_ns_per_msg"])
	case "pair_pingpong":
		g, _, err := cell("gm", func(e *roundEnv) { e.mode = gm.ModeGM })
		if err != nil {
			return nil, err
		}
		out["core.ftgm_sim_overhead_us"] = b["sim_latency_us"] - g["sim_latency_us"]
	case "clos_alltoall":
		s1, r1, err := cell("shards=1", func(e *roundEnv) { e.shards = 1 })
		if err != nil {
			return nil, err
		}
		out["sim.shard_speedup"] = ratio(s1["wall_ns_per_msg"], b["wall_ns_per_msg"])
		sp, rsp, err := cell("speculate", func(e *roundEnv) { e.speculate = true })
		if err != nil {
			return nil, err
		}
		out["sim.spec_overhead_ratio"] = ratio(sp["wall_ns_per_msg"], b["wall_ns_per_msg"])
		out["sim.spec_commit_ratio"] = rsp.extra["sim.spec_commit_ratio"]
		// The engine's contract: the simulated outcome is the same at every
		// shard count and with speculation on.
		for label, r := range map[string]*roundResult{"shards=1": r1, "speculate": rsp} {
			if r.digest != base.rounds[0].digest {
				v := fmt.Sprintf("variant %s: sim_digest %016x differs from the base run's %016x", label, r.digest, base.rounds[0].digest)
				fmt.Fprintf(log, "%s VIOLATION %s\n", w.name, v)
				base.violations = append(base.violations, v)
			}
		}
	}
	return out, nil
}
