package gm

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gossip"
)

// runGossipClosStormTrial is the large-cluster gossip storm: a 64-node
// two-tier Clos (2 spines, 8 leaves) under all-to-all traffic loses the
// mapping node and two more hosts on other leaves in a staggered burst —
// every loss a watchdog-invisible hard hang. The distributed plane must
// converge on expelling exactly the three dead members at every shard
// count, and the complete fingerprint — trace stream, per-node counters,
// gossip stats, final membership views — must be byte-identical.
func runGossipClosStormTrial(t *testing.T, shards int) string {
	t.Helper()
	cfg := fastGossipConfig(shards)
	c := NewCluster(cfg)
	topo, err := BuildClos(c, 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 64 nodes of boot flood plus probe rounds is megabytes of trace; hash
	// the stream instead of holding it (the hash is just as byte-exact).
	th := fnv.New64a()
	c.enableTrace(th)
	if _, err := topo.Boot(c); err != nil {
		t.Fatal(err)
	}
	n := len(topo.Nodes)
	recv := make([]int, n)
	sent := make([]int, n)
	rejected := make([]int, n)
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
		for j := 0; j < 8; j++ {
			if err := p.ProvideReceiveBuffer(256, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	stopAt := c.Now() + 40*Millisecond
	payload := make([]byte, 128)
	for i, node := range topo.Nodes {
		i := i
		eng := node.Engine()
		peer := (i + 1) % n
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt || !topo.Nodes[i].Running() {
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
			eng.After(80*Microsecond, tick)
		}
		eng.After(Duration(i%16+1)*Microsecond, tick)
	}
	// The storm: the mapping node and two hosts on other leaves die in a
	// staggered burst, each a hard hang no FTD watchdog can see.
	victims := []int{0, 19, 42}
	for k, v := range victims {
		v := v
		c.After(Duration(8+3*k)*Millisecond, func() { topo.Nodes[v].InjectHardHang() })
	}
	c.RunUntil(stopAt + 100*Millisecond)
	c.Shutdown(Millisecond)

	deadSet := map[int]bool{}
	for _, v := range victims {
		deadSet[v] = true
	}
	for i := range topo.Nodes {
		if deadSet[i] {
			continue
		}
		view := c.GossipAgents()[i].Members()
		for _, v := range victims {
			if view[topo.Nodes[v].ID()] != gossip.StateDead {
				t.Fatalf("shards=%d: survivor %d never expelled dead node %d (%v)",
					shards, i, v, view[topo.Nodes[v].ID()])
			}
		}
		for j := range topo.Nodes {
			if j == i || deadSet[j] {
				continue
			}
			if view[topo.Nodes[j].ID()] == gossip.StateDead {
				t.Fatalf("shards=%d: survivor %d expelled live node %d", shards, i, j)
			}
		}
	}

	var sum bytes.Buffer
	fmt.Fprintf(&sum, "events=%d now=%d trace=%x\n", c.Engine().ExecutedAll(), c.Now(), th.Sum64())
	for i, node := range topo.Nodes {
		ag := c.GossipAgents()[i]
		fmt.Fprintf(&sum, "node%d sent=%d rejected=%d recv=%d mcp=%+v gossip{%s} view{%s}\n",
			i, sent[i], rejected[i], recv[i], node.MCPStats(), ag.Stats(), gossipViewLine(ag))
	}
	return sum.String()
}

// TestShardInvarianceGossipClosStorm scales the gossip determinism contract
// to a 64-node Clos under a three-death storm: the plane's verdicts, the
// survivors' route repairs and every counter are bit-for-bit identical
// across 1, 4 and 8 executors.
func TestShardInvarianceGossipClosStorm(t *testing.T) {
	serial := runGossipClosStormTrial(t, 1)
	if len(serial) == 0 {
		t.Fatal("empty fingerprint")
	}
	for _, shards := range []int{4, 8} {
		diffFingerprints(t, fmt.Sprintf("shards=%d", shards), serial, runGossipClosStormTrial(t, shards))
	}
}
