package experiments

import (
	"fmt"
	"testing"

	"repro/gm"
	"repro/internal/sim"
)

// The large-cluster scaling trial: a Clos fabric of N nodes booted over
// generator routes (no scout flood — the mapper is quadratic in cluster
// size and is not what this trial exercises), a traffic pattern driven from
// every node's own event domain, and optionally a mid-run recovery storm.
// Its schedule counters must not depend on the executor count. The
// wall-clock side of the sharded engine is measured by the benchmark's
// clos_alltoall workload.

// Traffic patterns for runScale.
const (
	// patternAllToAll: every node streams round-robin to every peer.
	patternAllToAll = "alltoall"
	// patternIncast: every node streams at node 0 (the congestion case —
	// node 0's domain is the serial bottleneck, the worst case for
	// sharding).
	patternIncast = "incast"
)

// scaleOptions parameterize one scaling trial.
type scaleOptions struct {
	// Nodes is the cluster size; must divide evenly into the Clos shape
	// (multiples of 8 up to 1024, or of 4/2 below that).
	Nodes int
	// Shards selects the engine: 0 = classic single-engine, >= 1 = that
	// many window-sweep workers over per-domain event heaps.
	Shards int
	// Pattern is patternAllToAll or patternIncast.
	Pattern string
	// MsgBytes is the payload size per message.
	MsgBytes int
	// TickEvery is each node's send cadence.
	TickEvery sim.Duration
	// Duration is the traffic window in virtual time.
	Duration sim.Duration
	// Storm hangs every eighth interface processor mid-run, so the FTD
	// fleet detects and recovers them all while the survivors keep
	// retransmitting into the outage.
	Storm bool
	// Drain extends the run past the traffic window so retransmits and
	// recoveries settle; zero selects Duration/2 + 25 ms.
	Drain sim.Duration
}

// scaleResult is one trial's schedule counters, which are shard-count
// invariant by the engine's determinism contract.
type scaleResult struct {
	Shards    int
	Sent      int64
	Rejected  int64
	Delivered int64
	Recovered int
	Events    uint64
	Now       sim.Time
}

// closShape picks a two-tier Clos for n nodes: the widest per-leaf fan-in
// that divides n, four spines (or fewer on tiny clusters).
func closShape(n int) (spines, leaves, perLeaf int, err error) {
	for _, p := range []int{8, 4, 2, 1} {
		if n%p == 0 {
			perLeaf = p
			break
		}
	}
	leaves = n / perLeaf
	if leaves > 128 {
		return 0, 0, 0, fmt.Errorf("scale: %d nodes exceed the 128-leaf route-delta range", n)
	}
	spines = 4
	if leaves < spines {
		spines = leaves
	}
	return spines, leaves, perLeaf, nil
}

// scaleConfig is the trial configuration: FTGM mode, recovery constants
// shrunk so a storm's detect-and-recover cycle fits in single-digit
// virtual milliseconds, and a slightly longer cable (600 ns, ~120 m of
// fiber) so the conservative windows are wide enough to batch work.
func scaleConfig(opts scaleOptions) gm.Config {
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Shards = opts.Shards
	cfg.Seed = 2003
	cfg.Link.PropDelay = 600 * sim.Nanosecond
	cfg.Driver.MCPLoadTime = 2 * sim.Millisecond
	cfg.Host.RecoveryHandlerBase = sim.Millisecond
	cfg.Host.RecoverySeqUpload = 100 * sim.Microsecond
	cfg.Host.RecoveryReopen = 100 * sim.Microsecond
	cfg.FTD.VerifyInterval = 500 * sim.Microsecond
	cfg.FTD.UnmapIO = 200 * sim.Microsecond
	cfg.FTD.CardReset = sim.Millisecond
	cfg.FTD.ClearSRAM = 500 * sim.Microsecond
	cfg.FTD.RestorePageTable = sim.Millisecond
	cfg.FTD.RestoreRoutes = 500 * sim.Microsecond
	return cfg
}

// scaleCell is one node's workload state: the peer cursor and the traffic
// counters the trial mutates from inside that node's event domain.
type scaleCell struct {
	peer      int
	sent      int64
	rejected  int64
	delivered int64
	recovered int
}

// runScale executes one scaling trial and reports its schedule counters.
func runScale(opts scaleOptions) (scaleResult, error) {
	if opts.MsgBytes <= 0 {
		opts.MsgBytes = 512
	}
	if opts.TickEvery <= 0 {
		opts.TickEvery = 4 * sim.Microsecond
	}
	if opts.Duration <= 0 {
		opts.Duration = 2 * sim.Millisecond
	}
	spines, leaves, perLeaf, err := closShape(opts.Nodes)
	if err != nil {
		return scaleResult{}, err
	}

	c := gm.NewCluster(scaleConfig(opts))
	topo, err := gm.BuildClos(c, spines, leaves, perLeaf)
	if err != nil {
		return scaleResult{}, err
	}
	if _, err := topo.Boot(c); err != nil {
		return scaleResult{}, err
	}

	n := len(topo.Nodes)
	cells := make([]*scaleCell, n)
	ports := make([]*gm.Port, n)
	for i, node := range topo.Nodes {
		p, err := node.OpenPort(2)
		if err != nil {
			return scaleResult{}, err
		}
		ports[i] = p
		w := &scaleCell{peer: (i + 1) % n}
		cells[i] = w
		p.SetReceiveHandler(func(ev gm.RecvEvent) {
			w.delivered++
			_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
		})
		slots := 32
		if opts.Pattern == patternIncast && i == 0 {
			slots = 256 // the incast sink needs depth
		}
		for j := 0; j < slots; j++ {
			if err := p.ProvideReceiveBuffer(uint32(opts.MsgBytes), gm.PriorityLow); err != nil {
				return scaleResult{}, err
			}
		}
	}

	stopAt := c.Now() + opts.Duration
	payload := make([]byte, opts.MsgBytes)
	for i, node := range topo.Nodes {
		if opts.Pattern == patternIncast && i == 0 {
			continue
		}
		i := i
		eng := node.Engine()
		w := cells[i]
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt {
				return
			}
			dst := 0
			if opts.Pattern == patternAllToAll {
				if w.peer == i {
					w.peer = (w.peer + 1) % n
				}
				dst = w.peer
				w.peer = (w.peer + 1) % n
			}
			if err := ports[i].Send(topo.Nodes[dst].ID(), 2, gm.PriorityLow, payload, nil); err != nil {
				w.rejected++
			} else {
				w.sent++
			}
			eng.After(opts.TickEvery, tick)
		}
		// Stagger the start so the first window is not one synchronized
		// burst.
		eng.After(sim.Duration(i%16+1)*250*sim.Nanosecond, tick)
	}

	if opts.Storm {
		for i, node := range topo.Nodes {
			if i%8 != 3 {
				continue
			}
			node := node
			w := cells[i]
			node.Recovered = func() { w.recovered++ }
			c.After(opts.Duration/2, func() { node.InjectHang() })
		}
	}

	drain := opts.Drain
	if drain <= 0 {
		drain = opts.Duration/2 + 25*sim.Millisecond
		if opts.Storm {
			// A recovery storm leaves Go-Back-N streams mid-flight; give
			// every straggler time to land so delivery counts converge.
			drain += 100 * sim.Millisecond
		}
	}
	c.RunUntil(stopAt + drain)
	c.Shutdown(sim.Millisecond)

	res := scaleResult{Shards: opts.Shards, Events: c.Engine().ExecutedAll(), Now: c.Now()}
	for _, w := range cells {
		res.Sent += w.sent
		res.Rejected += w.rejected
		res.Delivered += w.delivered
		res.Recovered += w.recovered
	}
	return res, nil
}

// shortOpts is the `make scale-short` trial: a 64-node Clos with a recovery
// storm, small enough to run under the race detector.
func shortOpts(shards int) scaleOptions {
	return scaleOptions{
		Nodes:     64,
		Shards:    shards,
		Pattern:   patternAllToAll,
		TickEvery: 8 * sim.Microsecond,
		Duration:  sim.Millisecond,
		Storm:     true,
	}
}

// TestScaleShort drives the 64-node storm trial on the sharded engine and
// checks the full contract: traffic flows, every accepted send is delivered
// exactly once despite eight mid-run processor hangs, and the windowed
// schedule is bit-for-bit invariant between one and four executors.
func TestScaleShort(t *testing.T) {
	one, err := runScale(shortOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := runScale(shortOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []scaleResult{one, four} {
		if r.Sent == 0 || r.Delivered != r.Sent {
			t.Fatalf("shards=%d: delivered %d of %d accepted sends", r.Shards, r.Delivered, r.Sent)
		}
		if r.Recovered != 8 {
			t.Fatalf("shards=%d: %d of 8 hung nodes completed recovery", r.Shards, r.Recovered)
		}
	}
	if one.Sent != four.Sent || one.Rejected != four.Rejected ||
		one.Delivered != four.Delivered || one.Recovered != four.Recovered ||
		one.Events != four.Events || one.Now != four.Now {
		t.Fatalf("schedules diverge between 1 and 4 executors:\n  1: %+v\n  4: %+v", one, four)
	}
}

// TestScaleIncast exercises the congestion pattern end to end: every node
// fires at node 0; the sink's domain serializes but nothing is lost.
func TestScaleIncast(t *testing.T) {
	r, err := runScale(scaleOptions{
		Nodes:     32,
		Shards:    2,
		Pattern:   patternIncast,
		TickEvery: 8 * sim.Microsecond,
		Duration:  sim.Millisecond,
		Drain:     200 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sent == 0 || r.Delivered != r.Sent {
		t.Fatalf("delivered %d of %d accepted sends", r.Delivered, r.Sent)
	}
}

func TestClosShape(t *testing.T) {
	for _, tc := range []struct {
		n, spines, leaves, perLeaf int
	}{
		{16, 2, 2, 8}, {64, 4, 8, 8}, {128, 4, 16, 8}, {256, 4, 32, 8}, {36, 4, 9, 4},
	} {
		spines, leaves, perLeaf, err := closShape(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if spines != tc.spines || leaves != tc.leaves || perLeaf != tc.perLeaf {
			t.Fatalf("closShape(%d) = %d,%d,%d want %d,%d,%d",
				tc.n, spines, leaves, perLeaf, tc.spines, tc.leaves, tc.perLeaf)
		}
	}
}
