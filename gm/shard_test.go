package gm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fabric"
)

// fastRecoveryConfig shrinks the FTD/recovery constants so a hang-and-
// recover cycle fits in a few virtual milliseconds: the invariance trials
// replay the whole fault pipeline several times and only the schedule —
// not the paper-calibrated durations — matters here.
func fastRecoveryConfig(mode Mode, shards int) Config {
	cfg := DefaultConfig(mode)
	cfg.Shards = shards
	cfg.Seed = 42
	cfg.Driver.MCPLoadTime = 2 * Millisecond
	cfg.Host.RecoveryHandlerBase = Millisecond
	cfg.Host.RecoverySeqUpload = 100 * Microsecond
	cfg.Host.RecoveryReopen = 100 * Microsecond
	cfg.FTD.UnmapIO = 200 * Microsecond
	cfg.FTD.CardReset = Millisecond
	cfg.FTD.ClearSRAM = 500 * Microsecond
	cfg.FTD.RestorePageTable = Millisecond
	cfg.FTD.RestoreRoutes = 500 * Microsecond
	return cfg
}

// runChaosShardTrial runs a chaos-style trial — all-to-all traffic driven
// from per-node domains on a sharded Clos, a lossy cable, one processor
// hang with full FTGM recovery — and returns a byte-exact fingerprint: the
// full trace plus every end-of-run counter. The fingerprint must be
// invariant in the shard count.
func runChaosShardTrial(t *testing.T, shards int) string {
	t.Helper()
	cfg := fastRecoveryConfig(ModeFTGM, shards)
	c := NewCluster(cfg)
	topo, err := BuildClos(c, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	c.enableTrace(&trace)
	if _, err := topo.Boot(c); err != nil {
		t.Fatal(err)
	}
	n := len(topo.Nodes)
	recv := make([]int, n)
	sent := make([]int, n)
	rejected := make([]int, n)
	recovered := 0
	topo.Nodes[2].Recovered = func() { recovered++ }
	ports := make([]*Port, n)
	for i, node := range topo.Nodes {
		p, err := node.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
		i := i
		p.SetReceiveHandler(func(ev RecvEvent) {
			recv[i]++
			_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
		})
		for j := 0; j < 16; j++ {
			if err := p.ProvideReceiveBuffer(512, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A lossy cable on node 1 exercises Go-Back-N under sharding.
	topo.Nodes[1].Link().SetFaults(fabric.FaultProfile{DropProb: 0.05}, 7)

	stopAt := c.Now() + 12*Millisecond
	payload := make([]byte, 256)
	for i, node := range topo.Nodes {
		i := i
		eng := node.Engine()
		peer := (i + 1) % n
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt {
				return
			}
			if peer == i {
				peer = (peer + 1) % n
			}
			if err := ports[i].Send(topo.Nodes[peer].ID(), 2, PriorityLow, payload, nil); err != nil {
				rejected[i]++
			} else {
				sent[i]++
			}
			peer = (peer + 1) % n
			eng.After(10*Microsecond, tick)
		}
		eng.After(Duration(i+1)*500*Nanosecond, tick)
	}
	// Mid-run: hang node 2's processor; the FTD detects and recovers it
	// while its peers keep retransmitting into the outage.
	c.After(3*Millisecond, func() { topo.Nodes[2].InjectHang() })
	c.RunUntil(stopAt + 10*Millisecond)
	c.Shutdown(Millisecond)
	if recovered == 0 {
		t.Fatal("chaos trial never completed FTGM recovery on the hung node")
	}

	var sum bytes.Buffer
	fmt.Fprintf(&sum, "events=%d now=%d recovered=%d\n", c.Engine().ExecutedAll(), c.Now(), recovered)
	for i, node := range topo.Nodes {
		fmt.Fprintf(&sum, "node%d sent=%d rejected=%d recv=%d mcp=%+v chip=%+v link=%+v/%+v\n",
			i, sent[i], rejected[i], recv[i], node.MCPStats(), node.ChipStats(),
			node.Link().Stats(0), node.Link().Stats(1))
	}
	return trace.String() + sum.String()
}

// runNetFaultShardTrial runs a netfault-style trial — dual-switch fabric,
// network watchdog enabled, a trunk cut mid-run forcing suspicion, an
// autonomous remap (the real mapper's scout flood) and failover — sharded,
// and returns the byte-exact fingerprint.
func runNetFaultShardTrial(t *testing.T, shards int) string {
	t.Helper()
	cfg := fastRecoveryConfig(ModeFTGM, shards)
	cfg.NetWatch.Enabled = true
	c := NewCluster(cfg)
	d, err := BuildDualSwitch(c, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	c.enableTrace(&trace)
	if _, err := c.Boot(); err != nil {
		t.Fatal(err)
	}
	n := len(d.Nodes)
	recv := make([]int, n)
	sent := make([]int, n)
	rejected := make([]int, n)
	ports := make([]*Port, n)
	for i, node := range d.Nodes {
		p, err := node.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
		i := i
		p.SetReceiveHandler(func(ev RecvEvent) {
			recv[i]++
			_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
		})
		for j := 0; j < 16; j++ {
			if err := p.ProvideReceiveBuffer(512, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	stopAt := c.Now() + 15*Millisecond
	payload := make([]byte, 128)
	for i, node := range d.Nodes {
		i := i
		eng := node.Engine()
		peer := (i + 1) % n
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt {
				return
			}
			if peer == i {
				peer = (peer + 1) % n
			}
			if err := ports[i].Send(d.Nodes[peer].ID(), 2, PriorityLow, payload, nil); err != nil {
				rejected[i]++
			} else {
				sent[i]++
			}
			peer = (peer + 1) % n
			eng.After(5*Microsecond, tick)
		}
		eng.After(Duration(i+1)*Microsecond, tick)
	}
	// Cut the trunk node 0's cross-switch route actually rides (decoded
	// from the mapper's installed route, like the netfault suite does):
	// traffic on it blackholes until the watchdog suspects the peers,
	// remaps with the real mapper and fails over to the surviving trunk.
	cut := routeTrunk(t, d, d.Nodes[0], d.Nodes[1].ID())
	c.After(4*Millisecond, func() { cut.SetUp(false) })
	c.RunUntil(stopAt + 5*Second)
	c.Shutdown(Millisecond)
	nwStats := c.NetWatch().Stats()
	if nwStats.Suspicions == 0 || nwStats.Remaps == 0 {
		t.Fatalf("netfault trial never exercised the watchdog: %+v", nwStats)
	}

	var sum bytes.Buffer
	fmt.Fprintf(&sum, "events=%d now=%d\n", c.Engine().ExecutedAll(), c.Now())
	fmt.Fprintf(&sum, "netwatch=%+v\n", nwStats)
	for i, node := range d.Nodes {
		fmt.Fprintf(&sum, "node%d sent=%d rejected=%d recv=%d mcp=%+v\n",
			i, sent[i], rejected[i], recv[i], node.MCPStats())
	}
	return trace.String() + sum.String()
}

// diffFingerprints points at the first divergent line, which beats staring
// at two multi-hundred-KB blobs.
func diffFingerprints(t *testing.T, name, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la := bytes.Split([]byte(a), []byte("\n"))
	lb := bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Fatalf("%s: fingerprints diverge at line %d:\n  serial:  %s\n  sharded: %s",
				name, i+1, la[i], lb[i])
		}
	}
	t.Fatalf("%s: fingerprints diverge in length: %d vs %d lines", name, len(la), len(lb))
}

// TestShardInvarianceChaos: SetShards(1) vs SetShards(N) must be
// bit-for-bit identical on a chaos-style trial (lossy cable + processor
// hang + FTGM recovery), traces included.
func TestShardInvarianceChaos(t *testing.T) {
	serial := runChaosShardTrial(t, 1)
	if len(serial) == 0 {
		t.Fatal("empty fingerprint")
	}
	for _, shards := range []int{2, 4, 8} {
		diffFingerprints(t, fmt.Sprintf("shards=%d", shards), serial, runChaosShardTrial(t, shards))
	}
}

// TestShardInvarianceNetFault: same contract on a netfault-style trial
// (trunk cut, watchdog suspicion, autonomous remap via the real mapper,
// failover).
func TestShardInvarianceNetFault(t *testing.T) {
	serial := runNetFaultShardTrial(t, 1)
	if len(serial) == 0 {
		t.Fatal("empty fingerprint")
	}
	for _, shards := range []int{3, 6} {
		diffFingerprints(t, fmt.Sprintf("shards=%d", shards), serial, runNetFaultShardTrial(t, shards))
	}
}

// TestShardedMatchesScheduleShape sanity-checks domain bookkeeping: a
// sharded Clos cluster carves one domain per node and switch plus the
// control domain.
func TestShardedMatchesScheduleShape(t *testing.T) {
	cfg := DefaultConfig(ModeFTGM)
	cfg.Shards = 4
	c := NewCluster(cfg)
	topo, err := BuildClos(c, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(topo.Nodes) + len(topo.Leaves) + len(topo.Spines)
	if got := c.Engine().Domains(); got != want {
		t.Fatalf("Domains() = %d, want %d", got, want)
	}
	if !c.Sharded() {
		t.Fatal("Sharded() = false")
	}
	for i, n := range topo.Nodes {
		if n.Engine() == c.Engine() {
			t.Fatalf("node %d shares the control engine", i)
		}
		if n.Engine().DomainIndex() == 0 {
			t.Fatalf("node %d has control domain index", i)
		}
	}
}
