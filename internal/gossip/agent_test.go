package gossip

import (
	"testing"

	"repro/internal/gmproto"
	"repro/internal/routing"
	"repro/internal/sim"
)

// testConfig shrinks the agent timers so failure detection plays out in
// simulated milliseconds.
func testConfig() Config {
	return Config{
		ProbeInterval:     5 * sim.Millisecond,
		ProbeTimeout:      500 * sim.Microsecond,
		IndirectProbes:    2,
		SuspicionTimeout:  100 * sim.Millisecond,
		ConfirmQuorum:     2,
		DeadProbeInterval: 50 * sim.Millisecond,
		MaxDeltas:         8,
		RetransmitMult:    3,
	}
}

// gossipNet is an in-memory datagram fabric for a cluster of agents: it
// resolves each sent route against the sender's spliced route set and
// delivers with a small latency, subject to scripted faults.
type gossipNet struct {
	eng    *sim.Engine
	agents map[gmproto.NodeID]*Agent
	// byRoute[src][string(route)] is the destination that route reaches.
	byRoute map[gmproto.NodeID]map[string]gmproto.NodeID
	// down nodes neither send nor receive.
	down map[gmproto.NodeID]bool
	// cut[{a,b}] severs the a->b direction only.
	cut map[[2]gmproto.NodeID]bool

	deadEvents  map[gmproto.NodeID][]gmproto.NodeID // observer -> peers reported dead
	aliveEvents map[gmproto.NodeID][]gmproto.NodeID
}

func newGossipNet(t *testing.T, n int, cfg Config) *gossipNet {
	t.Helper()
	net := &gossipNet{
		eng:         sim.NewEngine(1),
		agents:      make(map[gmproto.NodeID]*Agent),
		byRoute:     make(map[gmproto.NodeID]map[string]gmproto.NodeID),
		down:        make(map[gmproto.NodeID]bool),
		cut:         make(map[[2]gmproto.NodeID]bool),
		deadEvents:  make(map[gmproto.NodeID][]gmproto.NodeID),
		aliveEvents: make(map[gmproto.NodeID][]gmproto.NodeID),
	}
	// Star topology route database anchored at node 1: distinct one-hop
	// routes so every spliced src->dst route is unique per sender.
	members := make([]gmproto.NodeID, 0, n)
	anchor := make(map[gmproto.NodeID][]byte)
	for i := 1; i <= n; i++ {
		id := gmproto.NodeID(i)
		members = append(members, id)
		if i > 1 {
			anchor[id] = []byte{byte(10 * i)}
		}
	}
	for _, src := range members {
		net.byRoute[src] = make(map[string]gmproto.NodeID)
		for _, dst := range members {
			if dst == src {
				continue
			}
			r, err := routing.SpliceRoute(anchor[src], anchor[dst])
			if err != nil {
				t.Fatalf("splice %d->%d: %v", src, dst, err)
			}
			net.byRoute[src][string(r)] = dst
		}
	}
	for _, id := range members {
		id := id
		a := New(net.eng, cfg, 0x9E3779B97F4A7C15^uint64(id))
		a.SeedView(id, members, anchor)
		a.SetTransport(func(route, payload []byte) { net.deliver(id, route, payload) })
		a.SetHooks(Hooks{
			Dead: func(peer gmproto.NodeID, routes map[gmproto.NodeID][]byte) {
				net.deadEvents[id] = append(net.deadEvents[id], peer)
				if _, ok := routes[peer]; ok {
					t.Errorf("node %d: Dead(%d) route table still contains the dead peer", id, peer)
				}
			},
			Alive: func(peer gmproto.NodeID, routes map[gmproto.NodeID][]byte) {
				net.aliveEvents[id] = append(net.aliveEvents[id], peer)
				if _, ok := routes[peer]; !ok {
					t.Errorf("node %d: Alive(%d) route table missing the readmitted peer", id, peer)
				}
			},
		})
		net.agents[id] = a
	}
	return net
}

func (n *gossipNet) start() {
	for _, a := range n.agents {
		a.Start()
	}
}

func (n *gossipNet) deliver(src gmproto.NodeID, route, payload []byte) {
	if n.down[src] {
		return
	}
	dst, ok := n.byRoute[src][string(route)]
	if !ok {
		return
	}
	buf := append([]byte(nil), payload...)
	n.eng.After(10*sim.Microsecond, func() {
		if n.down[dst] || n.cut[[2]gmproto.NodeID{src, dst}] {
			return
		}
		n.agents[dst].HandlePacket(buf)
	})
}

// sever cuts both directions between a and b.
func (n *gossipNet) sever(a, b gmproto.NodeID) {
	n.cut[[2]gmproto.NodeID{a, b}] = true
	n.cut[[2]gmproto.NodeID{b, a}] = true
}

func TestGossipSteadyStateStaysAlive(t *testing.T) {
	net := newGossipNet(t, 4, testConfig())
	net.start()
	net.eng.RunUntil(2 * sim.Second)

	for id, a := range net.agents {
		st := a.Stats()
		if st.ProbesSent == 0 || st.AcksSent == 0 {
			t.Fatalf("node %d idle: %+v", id, st)
		}
		if st.DeadDeclared != 0 {
			t.Fatalf("node %d declared deaths in a healthy cluster: %+v", id, st)
		}
		for peer, s := range a.Members() {
			if s != StateAlive {
				t.Fatalf("node %d sees %d as %v in a healthy cluster", id, peer, s)
			}
		}
	}
}

func TestGossipDeadNodeDeclaredByQuorum(t *testing.T) {
	net := newGossipNet(t, 4, testConfig())
	net.start()
	net.eng.RunUntil(100 * sim.Millisecond)
	net.down[4] = true
	net.eng.RunUntil(2 * sim.Second)

	for _, id := range []gmproto.NodeID{1, 2, 3} {
		a := net.agents[id]
		view := a.Members()
		if view[4] != StateDead {
			t.Fatalf("node %d sees dead node 4 as %v", id, view[4])
		}
		for _, peer := range []gmproto.NodeID{1, 2, 3} {
			if peer != id && view[peer] != StateAlive {
				t.Fatalf("node %d sees live node %d as %v", id, peer, view[peer])
			}
		}
		if len(net.deadEvents[id]) != 1 || net.deadEvents[id][0] != 4 {
			t.Fatalf("node %d Dead hook calls = %v, want [4]", id, net.deadEvents[id])
		}
	}
}

func TestGossipIndirectProbesSaveOneBadPath(t *testing.T) {
	net := newGossipNet(t, 4, testConfig())
	net.start()
	net.eng.RunUntil(100 * sim.Millisecond)
	// Only the 1<->2 path dies; 2 is reachable through 3 and 4.
	net.sever(1, 2)
	net.eng.RunUntil(3 * sim.Second)

	for id, a := range net.agents {
		if n := len(net.deadEvents[id]); n != 0 {
			t.Fatalf("node %d declared deaths %v over a single bad path", id, net.deadEvents[id])
		}
		if a.Members()[2] == StateDead || a.Members()[1] == StateDead {
			t.Fatalf("node %d marked an endpoint of the cut path dead", id)
		}
	}
	if net.agents[1].Stats().PingReqsSent == 0 {
		t.Fatal("node 1 never escalated to indirect probes across the cut path")
	}
}

func TestGossipTransientOutageRefutedNotExpelled(t *testing.T) {
	cfg := testConfig()
	net := newGossipNet(t, 4, cfg)
	net.start()
	net.eng.RunUntil(100 * sim.Millisecond)
	// Outage much shorter than the suspicion timeout: suspicion must form
	// and then be refuted, never reaching a dead verdict.
	net.down[2] = true
	net.eng.RunUntil(130 * sim.Millisecond)
	net.down[2] = false
	net.eng.RunUntil(2 * sim.Second)

	for id, a := range net.agents {
		for peer, s := range a.Members() {
			if s != StateAlive {
				t.Fatalf("node %d still sees %d as %v after recovery", id, peer, s)
			}
		}
		if len(net.deadEvents[id]) != 0 {
			t.Fatalf("node %d expelled %v during a transient outage", id, net.deadEvents[id])
		}
	}
	var suspicions uint64
	for _, a := range net.agents {
		suspicions += a.Stats().Suspicions
	}
	if suspicions == 0 {
		t.Fatal("a 30ms blackout raised no suspicion at all (detector asleep?)")
	}
}

func TestGossipDeadNodeReadmitted(t *testing.T) {
	net := newGossipNet(t, 4, testConfig())
	net.start()
	net.eng.RunUntil(100 * sim.Millisecond)
	net.down[4] = true
	net.eng.RunUntil(1 * sim.Second)
	for _, id := range []gmproto.NodeID{1, 2, 3} {
		if net.agents[id].Members()[4] != StateDead {
			t.Fatalf("node %d never declared 4 dead before revival", id)
		}
	}

	// Revival: node 4's own probes meet acks carrying its death verdict, it
	// refutes with a bumped incarnation, and everyone readmits.
	net.down[4] = false
	net.eng.RunUntil(4 * sim.Second)

	for _, id := range []gmproto.NodeID{1, 2, 3} {
		a := net.agents[id]
		if a.Members()[4] != StateAlive {
			t.Fatalf("node %d did not readmit 4: %v", id, a.Members()[4])
		}
		if got := net.aliveEvents[id]; len(got) != 1 || got[0] != 4 {
			t.Fatalf("node %d Alive hook calls = %v, want [4]", id, got)
		}
	}
	if net.agents[4].Stats().Refutations == 0 {
		t.Fatal("node 4 never refuted its own death")
	}
	if net.agents[4].inc == 0 {
		t.Fatal("node 4's incarnation never advanced")
	}
}

func TestGossipIsolatedNodeCannotExpelAnyone(t *testing.T) {
	net := newGossipNet(t, 4, testConfig())
	net.start()
	net.eng.RunUntil(100 * sim.Millisecond)
	// Node 1 is fully isolated: it suspects everyone, but with no second
	// endorser its quorum (2) is never met — the majority side expels node
	// 1, the minority side expels nobody.
	net.down[1] = true
	net.eng.RunUntil(3 * sim.Second)

	one := net.agents[1]
	if one.Stats().DeadDeclared != 0 || len(net.deadEvents[1]) != 0 {
		t.Fatalf("isolated node expelled peers: stats=%+v events=%v",
			one.Stats(), net.deadEvents[1])
	}
	for peer, s := range one.Members() {
		if s != StateSuspect {
			t.Fatalf("isolated node sees %d as %v, want suspect (campaigning)", peer, s)
		}
	}
	for _, id := range []gmproto.NodeID{2, 3, 4} {
		if net.agents[id].Members()[1] != StateDead {
			t.Fatalf("majority node %d did not expel the isolated node", id)
		}
	}
}

func TestGossipPathSuspicionTriggersTargetedProbe(t *testing.T) {
	net := newGossipNet(t, 4, testConfig())
	net.start()
	net.eng.RunUntil(50 * sim.Millisecond)

	before := net.agents[1].Stats().ProbesSent
	net.agents[1].SuspectPath(3)
	if got := net.agents[1].Stats(); got.PathSuspicions != 1 {
		t.Fatalf("PathSuspicions = %d, want 1", got.PathSuspicions)
	}
	if net.agents[1].Stats().ProbesSent != before+1 {
		t.Fatal("path suspicion did not launch an immediate out-of-round probe")
	}
	// The path is actually healthy: the probe acks, nothing escalates.
	net.eng.RunUntil(1 * sim.Second)
	for id, a := range net.agents {
		if a.Stats().Suspicions != 0 || a.Stats().DeadDeclared != 0 {
			t.Fatalf("node %d escalated a healthy-path suspicion: %+v", id, a.Stats())
		}
	}
}

// TestGossipDeterministicReplay runs the same faulted cluster twice and
// demands identical stats and final views — the plane's determinism
// contract, independent of any map iteration order inside the agent.
func TestGossipDeterministicReplay(t *testing.T) {
	run := func() string {
		net := newGossipNet(t, 4, testConfig())
		net.start()
		net.eng.RunUntil(100 * sim.Millisecond)
		net.down[3] = true
		net.eng.RunUntil(1 * sim.Second)
		net.down[3] = false
		net.eng.RunUntil(3 * sim.Second)
		out := ""
		for i := 1; i <= 4; i++ {
			a := net.agents[gmproto.NodeID(i)]
			st := a.Stats()
			out += st.String()
			for j := 1; j <= 4; j++ {
				if s, ok := a.Members()[gmproto.NodeID(j)]; ok {
					out += s.String()
				}
			}
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", a, b)
	}
}
