package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/gm"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// roundEnv is what one round of a workload is given. The program under test
// receives only inputs generated from seed.
type roundEnv struct {
	seed uint64
	// scale divides every message count (1 for measurement; the smoke test
	// runs at 1/200 size).
	scale int
	// tr is nil on untraced rounds.
	tr *tracer
	// Variant cells of the traced pass.
	mode      gm.Mode
	shards    int
	speculate bool
}

// roundResult is everything one round measured. A round is set-up (build,
// boot, open, provide, warm-up), the timed window, then drain, shutdown and
// checks; rounds of one run use the same seed, so their simulated outcomes
// must be identical.
type roundResult struct {
	setupNs int64
	// speed is the calibration kernel's time around this round over its
	// nominal time: above 1 when the machine is running slow.
	speed float64
	host  hostDelta // over the timed window

	msgs      uint64 // intact in-order deliveries inside the timed window
	attempted uint64 // sends accepted over the whole round
	failed    uint64 // accepted sends not delivered exactly once, in order, intact
	excused   uint64 // undelivered sends of a sender declared dead (chaos only)
	refused   uint64 // sends the library refused over the whole round
	// payload is the bytes delivered inside the timed window by the cluster
	// the layer counters were read from.
	payload uint64

	driftRatio   float64
	simMBs       float64
	simLatencyUs float64
	digest       uint64

	sliceNsPerMsg []float64 // host ns per message, one reading per engine slice
	layers        layerSnap // counter deltas over the timed window
	simWindow     sim.Duration
	nodes         int
	// extra carries workload-specific per-layer readings by metric name.
	extra map[string]float64
	// violations lists failed correctness checks (empty on a clean round).
	violations []string
}

// hostDelta is host cost between two readHost calls.
type hostDelta struct {
	wallNs, cpuNs  int64
	mallocs, bytes uint64
	gcs            uint32
	gcPauseNs      uint64
}

func (a hostSnap) until(b hostSnap) hostDelta {
	return hostDelta{
		wallNs: b.wall.Sub(a.wall).Nanoseconds(), cpuNs: b.cpuNs - a.cpuNs,
		mallocs: b.mallocs - a.mallocs, bytes: b.bytes - a.bytes,
		gcs: b.gcs - a.gcs, gcPauseNs: b.pauseNs - a.pauseNs,
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// loadgen offers load to a testbed in two phases: warm-up (0) and the timed
// window (1).
type loadgen interface {
	// kick starts a phase's load; it runs between engine slices.
	kick(phase int)
	// done reports whether the phase's work has been delivered.
	done(phase int) bool
}

// fabricSpec describes a workload that drives harness endpoints over a
// cluster (every workload but chaos_recovery).
type fabricSpec struct {
	msgSize   int
	bufSize   int // receive buffer size
	txSlots   int
	recvSlots int
	slice     sim.Duration // simulated length of one Cluster.Run call
	limit     sim.Duration // safety bound on a phase, in simulated time
	build     func(env roundEnv, main *lane) (*testbed, error)
	load      func(tb *testbed, env roundEnv) loadgen
	// trafficWindow, when set, is the simulated span sim_mbs divides by
	// (open loop); closed-loop workloads use first-to-last delivery.
	trafficWindow func(env roundEnv) sim.Duration
}

// sliceMark is the cumulative position after one engine slice.
type sliceMark struct {
	wallNs    int64
	delivered uint64
}

func runFabricRound(spec *fabricSpec, env roundEnv) (*roundResult, error) {
	runtime.GC()
	res := &roundResult{extra: map[string]float64{}}
	poolLive := fabric.PoolStats().Live
	calib0 := calibrate()
	t0 := time.Now()
	main := env.tr.newLane(false)

	tb, err := spec.build(env, main)
	if err != nil {
		return nil, err
	}
	pat := newPattern(env.seed, spec.msgSize)
	if err := tb.openPorts(spec.bufSize, spec.recvSlots); err != nil {
		return nil, err
	}
	tb.attachEndpoints(env.tr, pat, spec.msgSize, spec.txSlots)
	gen := spec.load(tb, env)

	// Warm-up: fills pools, free lists and maps before anything is timed.
	gen.kick(0)
	if err := runPhase(tb, spec, gen, 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	tb.markWindow()
	layers0 := tb.snap()
	res.setupNs = time.Since(t0).Nanoseconds()
	host0 := readHost()

	gen.kick(1)
	marks := []sliceMark{{0, tb.delivered()}}
	err = runPhase(tb, spec, gen, 1, func() {
		marks = append(marks, sliceMark{time.Since(host0.wall).Nanoseconds(), tb.delivered()})
	})
	host1 := readHost()
	res.speed = (calib0 + calibrate()) / 2 / calibNominalNs
	if err != nil {
		res.violations = append(res.violations, err.Error())
	}
	res.host = host0.until(host1)
	res.layers = tb.snap().sub(layers0)
	res.simWindow = sim.Duration(res.layers.Now)
	res.nodes = len(tb.nodes)
	if env.speculate {
		commits, rollbacks, _, _ := tb.cl.Engine().SpecStats()
		res.extra["sim.spec_commit_ratio"] = ratio(float64(commits), float64(commits+rollbacks))
	}

	// Window totals and the simulated end-to-end readings.
	var latNs int64
	var payload uint64
	var rateSum float64
	var rateN int
	for _, e := range tb.eps {
		w := e.window()
		res.msgs += w.ok
		latNs += w.latNs
		payload += w.bytes
		if w.ok >= 2 {
			perMsg := w.bytes / w.ok
			rateSum += trace.Bandwidth(w.bytes-perMsg, w.lastAt-w.firstAt)
			rateN++
		}
		st := &e.st
		res.attempted += st.accepted
		res.refused += st.refused
		res.failed += st.dup + st.corrupt
		if st.dup+st.gap+st.corrupt+st.sendErrs > 0 {
			res.violations = append(res.violations, fmt.Sprintf(
				"endpoint %d: %d duplicate, %d out-of-order, %d corrupt deliveries, %d send errors",
				e.idx, st.dup, st.gap, st.corrupt, st.sendErrs))
		}
	}
	if got := tb.delivered(); got < res.attempted {
		res.failed += res.attempted - got
		res.violations = append(res.violations, fmt.Sprintf("%d of %d accepted sends never delivered", res.attempted-got, res.attempted))
	}
	res.payload = payload
	res.simLatencyUs = ratio(float64(latNs)/1e3, float64(res.msgs))
	if spec.trafficWindow != nil {
		res.simMBs = trace.Bandwidth(payload, spec.trafficWindow(env))
	} else {
		res.simMBs = ratio(rateSum, float64(rateN))
	}
	res.driftRatio, res.sliceNsPerMsg = driftAndSlices(marks)
	res.digest = tb.digest()

	tb.shutdown(res, poolLive)
	return res, nil
}

// runPhase advances the cluster in fixed simulated slices until the load
// generator reports the phase delivered. after, when set, runs after every
// slice (outside the gm.run span).
func runPhase(tb *testbed, spec *fabricSpec, gen loadgen, phase int, after func()) error {
	deadline := tb.cl.Now() + spec.limit
	for !gen.done(phase) {
		if tb.cl.Now() >= deadline {
			return fmt.Errorf("phase %d stalled: %d delivered after %v simulated", phase, tb.delivered(), spec.limit)
		}
		tb.main.openRun()
		tb.cl.Run(spec.slice)
		tb.main.end()
		if after != nil {
			after()
		}
	}
	return nil
}

// driftAndSlices turns the cumulative slice marks into drift_ratio — host
// time per message over the last quarter of the window's messages divided
// by the first quarter's, quarter boundaries interpolated between marks —
// and the per-slice ns/msg readings.
func driftAndSlices(marks []sliceMark) (drift float64, perSlice []float64) {
	first, last := marks[0], marks[len(marks)-1]
	total := last.delivered - first.delivered
	if total < 8 {
		return 1, nil
	}
	wallAt := func(target float64) float64 {
		for i := 1; i < len(marks); i++ {
			if float64(marks[i].delivered) >= target {
				a, b := marks[i-1], marks[i]
				if b.delivered == a.delivered {
					return float64(b.wallNs)
				}
				f := (target - float64(a.delivered)) / float64(b.delivered-a.delivered)
				return float64(a.wallNs) + f*float64(b.wallNs-a.wallNs)
			}
		}
		return float64(last.wallNs)
	}
	q := float64(total) / 4
	base := float64(first.delivered)
	firstQ := wallAt(base+q) - float64(first.wallNs)
	lastQ := wallAt(base+4*q) - wallAt(base+3*q)
	drift = ratio(lastQ, firstQ)
	for i := 1; i < len(marks); i++ {
		if n := marks[i].delivered - marks[i-1].delivered; n > 0 {
			perSlice = append(perSlice, float64(marks[i].wallNs-marks[i-1].wallNs)/float64(n))
		}
	}
	return drift, perSlice
}
