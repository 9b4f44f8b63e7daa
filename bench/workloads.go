package main

import (
	"repro/gm"
	"repro/internal/sim"
)

// workload is one benchmark workload: a name, the reason it exists (also
// recorded in BENCHMARK.json) and the function that runs one round of it.
type workload struct {
	name  string
	loop  string // "closed" or "open": how load is offered
	why   string
	round func(env roundEnv) (*roundResult, error)
}

// Message counts are fixed work, fitted to the seed commit so that one
// round's timed window lasts about two seconds on the reference box; a run
// repeats rounds until its --seconds budget is spent. warmShare of each
// count is sent again beforehand as untimed warm-up.
const (
	bulkMsgs       = 4000  // per direction, 256 KB each
	smallMsgs      = 30000 // per direction, 64 B each
	pingpongRounds = 30000 // 2 messages per round, 16 B mean
	closNodes      = 128
	closTraffic    = 6 * sim.Millisecond // offered-load window (simulated)
	closTick       = 12 * sim.Microsecond
	warmDiv        = 20 // warm-up is 1/20 (5%) of the workload's messages
)

var workloads = []*workload{
	{
		name: "pair_bulk", loop: "closed",
		why:   "256 KB bidirectional streaming on the paper's testbed: the byte path (copies, CRC, memclr, PCI DMA) is nearly all the work; Figure 7's asymptote",
		round: fabricRound(pairStream(256<<10, bulkMsgs, 20*sim.Millisecond)),
	},
	{
		name: "pair_small", loop: "closed",
		why:   "64 B bidirectional streaming, send window full: per-message cost only (gm tokens, core shadow store, mcp, codec, event heap); long enough that cost growing with store age shows",
		round: fabricRound(pairStream(64, smallMsgs, sim.Millisecond)),
	},
	{
		name: "pair_pingpong", loop: "closed",
		why:   "16 B ping-pong, one message in flight: the same layers latency-bound, no batching of completions or ACKs, idle timer ticks between messages; Figure 8's short-message point",
		round: fabricRound(pairPingPong(pingpongRounds, 2*sim.Millisecond)),
	},
	{
		name: "clos_alltoall", loop: "open",
		why:   "128-node Clos, 2 shard workers, every node sends 512 B round-robin every 12 us: the only workload running the sharded engine, switches and cross-domain links",
		round: fabricRound(closAllToAll()),
	},
	{
		name: "chaos_recovery", loop: "closed",
		why:   "FTGM's product under audit: NIC hangs recovered on the testbed, compound-fault trials, host death under both control planes; mostly simulated idle time and control traffic",
		round: chaosRound,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func fabricRound(spec *fabricSpec) func(roundEnv) (*roundResult, error) {
	return func(env roundEnv) (*roundResult, error) { return runFabricRound(spec, env) }
}

// scaled divides a full-size count by the environment's scale, keeping at
// least min.
func (env roundEnv) scaled(n, min int) int {
	if n /= env.scale; n < min {
		return min
	}
	return n
}

// pairConfig is the paper's testbed configuration in the round's mode.
func pairConfig(env roundEnv) gm.Config {
	cfg := gm.DefaultConfig(env.mode)
	cfg.Seed = env.seed | 1
	return cfg
}

func buildPairFor(env roundEnv, main *lane) (*testbed, error) {
	return buildPair(pairConfig(env), main)
}

// pairStream is closed-loop bidirectional streaming: each host keeps its
// send window full toward the other until count messages per direction are
// posted, reposting from every send completion (experiments' gm_allsize
// loop). The two directions start a seeded stagger of up to 4 us apart: on
// pair_bulk a wider one flips how the two directions' fragments interleave,
// and with it how far a never-empty FIFO in the stack grows (5.4, 10.7 or
// 17.4 KB allocated per message), which would make the seed a workload knob.
func pairStream(size, count int, slice sim.Duration) *fabricSpec {
	// The MCP keeps at most 16 messages of a connection unacknowledged, so 16
	// stamped buffers already fill the pipe at 256 KB; small messages use
	// the whole 64-token send window.
	txSlots := 64
	if size > 4096 {
		txSlots = 16
	}
	return &fabricSpec{
		msgSize: size, bufSize: size, txSlots: txSlots, recvSlots: 32,
		slice: slice, limit: 300 * sim.Second,
		build: buildPairFor,
		load: func(tb *testbed, env roundEnv) loadgen {
			n := env.scaled(count, 200)
			g := &streamGen{tb: tb, targets: [2]int{n / warmDiv, n/warmDiv + n}}
			g.stagger = sim.Duration(sim.DeriveRNG(env.seed, 1).Intn(4000)) * sim.Nanosecond
			for i, e := range tb.eps {
				i, e := i, e
				e.onSendDone = func() { g.post(i) }
			}
			return g
		},
	}
}

type streamGen struct {
	tb      *testbed
	targets [2]int // messages per direction by the end of each phase
	target  int
	stagger sim.Duration
}

func (g *streamGen) post(i int) {
	e := g.tb.eps[i]
	for int(e.st.nextIdx[1-i]) < g.target && len(e.st.free) > 0 && e.send(1-i) {
	}
}

func (g *streamGen) kick(phase int) {
	g.target = g.targets[phase]
	g.tb.cl.After(0, func() { g.post(0) })
	g.tb.cl.After(g.stagger, func() { g.post(1) })
}

func (g *streamGen) done(phase int) bool {
	return g.tb.delivered() >= uint64(2*g.targets[phase])
}

// pairPingPong bounces one small message between the hosts: A sends, B
// answers from its receive handler, A sends the next on the answer. Sizes
// are drawn from the seed, uniform over 14..18 B (mean 16 B, Figure 8's
// point; the latency curve is linear there).
func pairPingPong(rounds int, slice sim.Duration) *fabricSpec {
	return &fabricSpec{
		msgSize: 18, bufSize: 32, txSlots: 4, recvSlots: 4,
		slice: slice, limit: 300 * sim.Second,
		build: buildPairFor,
		load: func(tb *testbed, env roundEnv) loadgen {
			n := env.scaled(rounds, 200)
			g := &pingGen{tb: tb, targets: [2]int{n / warmDiv, n/warmDiv + n}}
			salt := sim.DeriveRNG(env.seed, 2).Uint64()
			sizeOf := func(idx uint32) int {
				x := (uint64(idx) + salt) * 0x9E3779B97F4A7C15
				return hdrLen + int((x>>33)%5)
			}
			a, b := tb.eps[0], tb.eps[1]
			a.sizeOf, b.sizeOf = sizeOf, sizeOf
			b.onRecv = func(int) { b.send(0) }
			a.onRecv = func(int) {
				if int(a.st.nextIdx[1]) < g.target {
					a.send(1)
				}
			}
			return g
		},
	}
}

type pingGen struct {
	tb      *testbed
	targets [2]int // round trips by the end of each phase
	target  int
}

func (g *pingGen) kick(phase int) {
	g.target = g.targets[phase]
	g.tb.cl.After(0, func() { g.tb.eps[0].send(1) })
}

func (g *pingGen) done(phase int) bool {
	return g.tb.delivered() >= uint64(2*g.targets[phase])
}

// closConfig is the scaling experiments' fabric: FTGM with a 600 ns cable,
// so conservative windows are wide enough to batch work.
func closConfig(env roundEnv) gm.Config {
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Seed = env.seed | 1
	cfg.Shards = env.shards
	cfg.Speculate = env.speculate
	cfg.Link.PropDelay = 600 * sim.Nanosecond
	return cfg
}

// closAllToAll is open loop in simulated time: every node sends 512 B to
// the next peer round-robin on a fixed tick, whether or not earlier sends
// completed, for a fixed traffic window; the round then drains. Each node's
// first tick is offset by a seeded stagger.
func closAllToAll() *fabricSpec {
	window := func(env roundEnv) sim.Duration {
		return closTraffic / sim.Duration(env.scale)
	}
	return &fabricSpec{
		msgSize: 512, bufSize: 512, txSlots: 64, recvSlots: 32,
		slice: 50 * sim.Microsecond, limit: 10 * sim.Second,
		build: func(env roundEnv, main *lane) (*testbed, error) {
			nodes := closNodes
			if env.scale > 1 {
				nodes = 16
			}
			return buildClos(closConfig(env), nodes, main)
		},
		load: func(tb *testbed, env roundEnv) loadgen {
			w := window(env)
			return &tickGen{tb: tb, seed: env.seed, warm: w / warmDiv, traffic: w}
		},
		trafficWindow: window,
	}
}

type tickGen struct {
	tb            *testbed
	seed          uint64
	warm, traffic sim.Duration
	warmEnd, stop sim.Time
}

func (g *tickGen) kick(phase int) {
	if phase != 0 {
		return // ticks started in warm-up run straight through the window
	}
	now := g.tb.cl.Now()
	g.warmEnd = now + g.warm
	g.stop = g.warmEnd + g.traffic
	rng := sim.DeriveRNG(g.seed, 3)
	n := len(g.tb.eps)
	for i, e := range g.tb.eps {
		i, e := i, e
		e.st.cursor = (i + 1) % n
		var tick func()
		tick = func() {
			if e.eng.Now() >= g.stop {
				return
			}
			e.touch()
			dst := e.st.cursor
			if dst == i {
				dst = (dst + 1) % n
			}
			e.st.cursor = (dst + 1) % n
			e.send(dst)
			e.eng.After(closTick, tick)
		}
		e.eng.After(sim.Duration(rng.Intn(int(closTick))+1), tick)
	}
}

func (g *tickGen) done(phase int) bool {
	now := g.tb.cl.Now()
	if phase == 0 {
		return now >= g.warmEnd
	}
	if now < g.stop {
		return false
	}
	var accepted uint64
	for _, e := range g.tb.eps {
		accepted += e.st.accepted
	}
	return g.tb.delivered() >= accepted
}
