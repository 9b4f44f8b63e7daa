package gm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/gossip"
)

// fastGossipConfig is fastRecoveryConfig with the gossip control plane and
// agent timers shrunk to match (suspicion plays out in tens of virtual
// milliseconds instead of seconds).
func fastGossipConfig(shards int) Config {
	cfg := fastRecoveryConfig(ModeFTGM, shards)
	cfg.ControlPlane = ControlPlaneGossip
	cfg.Gossip = gossip.Config{
		ProbeInterval:     2 * Millisecond,
		ProbeTimeout:      300 * Microsecond,
		IndirectProbes:    2,
		SuspicionTimeout:  20 * Millisecond,
		ConfirmQuorum:     2,
		DeadProbeInterval: 10 * Millisecond,
		MaxDeltas:         8,
		RetransmitMult:    3,
	}
	return cfg
}

// gossipViewLine renders one agent's membership view sorted by peer.
func gossipViewLine(ag *gossip.Agent) string {
	view := ag.Members()
	peers := make([]NodeID, 0, len(view))
	for id := range view {
		peers = append(peers, id)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	var b bytes.Buffer
	for _, id := range peers {
		fmt.Fprintf(&b, " %d:%s", id, view[id])
	}
	return b.String()
}

// TestGossipPlaneSurvivesMapperDeath is the headline robustness property at
// the library level: with the gossip plane, hard-killing the mapping node
// mid-run leads the survivors to expel exactly that node — by distributed
// agreement, with no coordinator — and traffic among them keeps flowing.
func TestGossipPlaneSurvivesMapperDeath(t *testing.T) {
	cfg := fastGossipConfig(0)
	cl := NewCluster(cfg)
	sw := cl.AddSwitch("sw")
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n := cl.AddNode(fmt.Sprintf("n%d", i))
		if err := cl.Connect(n, sw, i); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	if _, err := cl.Boot(); err != nil {
		t.Fatal(err)
	}
	if len(cl.GossipAgents()) != 4 {
		t.Fatalf("GossipAgents() = %d agents, want 4", len(cl.GossipAgents()))
	}
	if cl.NetWatch() != nil {
		t.Fatal("central watchdog running alongside the gossip plane")
	}

	n := len(nodes)
	recv := make([]int, n)
	unreachable := make([]int, n)
	ports := make([]*Port, n)
	for i, node := range nodes {
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
			if err := p.ProvideReceiveBuffer(256, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	payload := make([]byte, 64)
	stopAt := cl.Now() + 150*Millisecond
	for i, node := range nodes {
		i := i
		eng := node.Engine()
		peer := (i + 1) % n
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt || !nodes[i].Running() {
				return
			}
			if peer == i {
				peer = (peer + 1) % n
			}
			if err := ports[i].Send(nodes[peer].ID(), 2, PriorityLow, payload, nil); err != nil {
				if errors.Is(err, ErrPeerUnreachable) {
					unreachable[i]++
				}
			}
			peer = (peer + 1) % n
			eng.After(20*Microsecond, tick)
		}
		eng.After(Duration(i+1)*Microsecond, tick)
	}

	// The mapping node dies for good: watchdog-invisible hard hang, the
	// failure class the central plane cannot repair (its repair path runs
	// on this very node).
	cl.After(30*Millisecond, func() { nodes[0].InjectHardHang() })
	cl.RunUntil(stopAt + 100*Millisecond)

	deadID := nodes[0].ID()
	for i := 1; i < n; i++ {
		ag := cl.GossipAgents()[i]
		view := ag.Members()
		if view[deadID] != gossip.StateDead {
			t.Fatalf("survivor %d sees the dead mapper as %v, want dead", i, view[deadID])
		}
		for j := 1; j < n; j++ {
			if j == i {
				continue
			}
			if s := view[nodes[j].ID()]; s != gossip.StateAlive {
				t.Fatalf("survivor %d sees live survivor %d as %v", i, j, s)
			}
		}
		if unreachable[i] == 0 {
			t.Fatalf("survivor %d: sends toward the expelled mapper never failed fast", i)
		}
	}
	// Traffic among survivors kept flowing well past the kill.
	before := recv[1] + recv[2] + recv[3]
	cl.Run(50 * Millisecond)
	cl.Shutdown(Millisecond)
	if before == 0 {
		t.Fatal("survivors delivered nothing")
	}
	// The dead node's own agent, isolated, must not have expelled anyone.
	if st := cl.GossipAgents()[0].Stats(); st.DeadDeclared != 0 {
		t.Fatalf("the dead node's agent expelled peers: %+v", st)
	}
}

// TestGossipPathSuspicionFeedsPlane: a stalled reliable stream raises
// NET_FAULT_SUSPECTED, which the gossip plane must consume as a path
// suspicion (the central watchdog is not running to take it).
func TestGossipPathSuspicionFeedsPlane(t *testing.T) {
	cfg := fastGossipConfig(0)
	// The stream detector must escalate before the probe rounds declare the
	// peer dead (expulsion fails the stalled stream terminally, and a dead
	// stream never retransmits into NET_FAULT): 3 silent rounds of 2 ms
	// beat the ~26 ms suspicion pipeline comfortably.
	cfg.MCP.RtxTimeout = 2 * Millisecond
	cl := NewCluster(cfg)
	sw := cl.AddSwitch("sw")
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n := cl.AddNode(fmt.Sprintf("n%d", i))
		if err := cl.Connect(n, sw, i); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	if _, err := cl.Boot(); err != nil {
		t.Fatal(err)
	}
	p, err := nodes[1].OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	cl.After(5*Millisecond, func() { nodes[0].InjectHardHang() })
	cl.After(6*Millisecond, func() {
		// A send into the black hole: Go-Back-N retransmits until the MCP
		// escalates NET_FAULT_SUSPECTED into the agent.
		_ = p.Send(nodes[0].ID(), 2, PriorityLow, []byte("into the void"), nil)
	})
	cl.Run(300 * Millisecond)
	cl.Shutdown(Millisecond)
	if st := cl.GossipAgents()[1].Stats(); st.PathSuspicions == 0 {
		t.Fatalf("stalled stream never fed a path suspicion into the plane: %+v", st)
	}
}

// runGossipShardTrial runs the mapper-death trial on a sharded dual-switch
// fabric and returns a byte-exact fingerprint (trace + counters + gossip
// stats + final membership views).
func runGossipShardTrial(t *testing.T, shards int, speculate bool) string {
	t.Helper()
	cfg := fastGossipConfig(shards)
	cfg.Speculate = speculate
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
	cells := make([]*workCell, n)
	ports := make([]*Port, n)
	for i, node := range d.Nodes {
		p, err := node.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
		// The workload state journals itself (workCell): with speculate the
		// node domains run ahead speculatively, and an unjournaled tick
		// cursor would survive a rollback.
		cells[i] = &workCell{eng: node.Engine(), peer: (i + 1) % n}
		w := cells[i]
		p.SetReceiveHandler(func(ev RecvEvent) {
			w.touch()
			w.recv++
			_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
		})
		for j := 0; j < 16; j++ {
			if err := p.ProvideReceiveBuffer(256, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	stopAt := c.Now() + 60*Millisecond
	payload := make([]byte, 128)
	for i, node := range d.Nodes {
		i := i
		eng := node.Engine()
		w := cells[i]
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt || !d.Nodes[i].Running() {
				return
			}
			w.touch()
			if w.peer == i {
				w.peer = (w.peer + 1) % n
			}
			if err := ports[i].Send(d.Nodes[w.peer].ID(), 2, PriorityLow, payload, nil); err != nil {
				w.rejected++
			} else {
				w.sent++
			}
			w.peer = (w.peer + 1) % n
			eng.After(10*Microsecond, tick)
		}
		eng.After(Duration(i+1)*Microsecond, tick)
	}
	// Kill the mapping node mid-run; the distributed plane must converge on
	// expelling it identically at every shard count.
	c.After(10*Millisecond, func() { d.Nodes[0].InjectHardHang() })
	c.RunUntil(stopAt + 100*Millisecond)
	c.Shutdown(Millisecond)

	deadID := d.Nodes[0].ID()
	for i := 1; i < n; i++ {
		if cl := c.GossipAgents()[i].Members(); cl[deadID] != gossip.StateDead {
			t.Fatalf("shards=%d: survivor %d never expelled the dead mapper (%v)",
				shards, i, cl[deadID])
		}
	}

	var sum bytes.Buffer
	fmt.Fprintf(&sum, "events=%d now=%d\n", c.Engine().ExecutedAll(), c.Now())
	for i, node := range d.Nodes {
		ag := c.GossipAgents()[i]
		fmt.Fprintf(&sum, "node%d sent=%d rejected=%d recv=%d mcp=%+v gossip{%s} view{%s}\n",
			i, cells[i].sent, cells[i].rejected, cells[i].recv, node.MCPStats(), ag.Stats(), gossipViewLine(ag))
	}
	return trace.String() + sum.String()
}

// TestShardInvarianceGossip: the gossip control plane — probe rounds,
// suspicion, quorum expulsion, local remap — must be bit-for-bit identical
// for every worker count, traces included. This is the plane's determinism
// contract (DESIGN.md §14).
func TestShardInvarianceGossip(t *testing.T) {
	serial := runGossipShardTrial(t, 1, false)
	if len(serial) == 0 {
		t.Fatal("empty fingerprint")
	}
	for _, shards := range []int{4, 8} {
		diffFingerprints(t, fmt.Sprintf("shards=%d", shards), serial, runGossipShardTrial(t, shards, false))
	}
	// Speculative run-ahead must not change the plane either: the node
	// domains (gossip agents included) speculate and roll back, yet the
	// fingerprint stays byte-identical to the conservative serial run.
	diffFingerprints(t, "shards=4+speculate", serial, runGossipShardTrial(t, 4, true))
}

// TestMapperConvergeTimeoutRetries is the regression test for the one-shot
// convergence failure: a cap too small for a single pass used to abort Boot
// outright; now Boot retries with a doubled budget and converges.
func TestMapperConvergeTimeoutRetries(t *testing.T) {
	cfg := DefaultConfig(ModeFTGM)
	// Stretch the mapper's rounds (>= MaxDepth full round timeouts to
	// converge) past the cap, so the first attempts must hit it before the
	// doubled budget succeeds.
	cfg.Mapper.RoundTimeout = 20 * Millisecond
	cfg.MapperConvergeTimeout = 20 * Millisecond
	cl := NewCluster(cfg)
	sw := cl.AddSwitch("sw")
	for i := 0; i < 4; i++ {
		n := cl.AddNode(fmt.Sprintf("n%d", i))
		if err := cl.Connect(n, sw, i); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Boot()
	if err != nil {
		t.Fatalf("Boot with a tight convergence cap: %v", err)
	}
	if len(res.IDs) != 4 {
		t.Fatalf("mapper found %d interfaces, want 4", len(res.IDs))
	}
	if cl.mapperRetries == 0 {
		t.Fatal("Boot never retried: the cap was not actually tight (test rotted)")
	}
	cl.Shutdown(Millisecond)
}

// TestMapperRetriesDisabled pins the opt-out: negative MapperRetries keeps
// the old one-shot behavior.
func TestMapperRetriesDisabled(t *testing.T) {
	cfg := DefaultConfig(ModeFTGM)
	cfg.Mapper.RoundTimeout = 20 * Millisecond
	cfg.MapperConvergeTimeout = 20 * Millisecond
	cfg.MapperRetries = -1
	cl := NewCluster(cfg)
	sw := cl.AddSwitch("sw")
	for i := 0; i < 4; i++ {
		n := cl.AddNode(fmt.Sprintf("n%d", i))
		if err := cl.Connect(n, sw, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Boot(); err == nil {
		t.Fatal("Boot succeeded with retries disabled and an impossible cap")
	}
	if cl.mapperRetries != 0 {
		t.Fatalf("retries counted with retrying disabled: %d", cl.mapperRetries)
	}
	cl.Shutdown(Millisecond)
}
