package gm

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
)

// walkRoute traces a generated route hop by hop through the cabled fabric
// graph (no simulation): it returns the sequence of switch tiers visited and
// fails the test if the route does not terminate exactly at dst with every
// route byte consumed.
func walkRoute(t *testing.T, tiers map[*fabric.Switch]int, nodes []*Node, src, dst int, route []byte) []int {
	t.Helper()
	at := nodes[src].link.EndFor(nodes[src].chip).Peer()
	var visited []int
	for {
		sw, ok := at.Device().(*fabric.Switch)
		if !ok {
			if at.Device() != fabric.Device(nodes[dst].chip) {
				t.Fatalf("route %d->%d landed on %s", src, dst, at.Device().Name())
			}
			if len(route) != 0 {
				t.Fatalf("route %d->%d reached dst with %d bytes left", src, dst, len(route))
			}
			return visited
		}
		tier, known := tiers[sw]
		if !known {
			t.Fatalf("route %d->%d crossed unknown switch %s", src, dst, sw.Name())
		}
		visited = append(visited, tier)
		if len(route) == 0 {
			t.Fatalf("route %d->%d exhausted at switch %s", src, dst, sw.Name())
		}
		in := sw.PortFor(at)
		if in < 0 {
			t.Fatalf("route %d->%d entered %s on an uncabled port", src, dst, sw.Name())
		}
		delta := int(int8(route[0]))
		route = route[1:]
		out := (in + delta%sw.NumPorts() + sw.NumPorts()) % sw.NumPorts()
		l := sw.PortLink(out)
		if l == nil {
			t.Fatalf("route %d->%d routed out empty port %d of %s", src, dst, out, sw.Name())
		}
		at = l.EndFor(sw).Peer()
	}
}

// checkUpDown asserts a visited tier sequence follows up*/down*: strictly
// non-decreasing then non-increasing, with no second climb (deadlock
// freedom for the route set).
func checkUpDown(t *testing.T, src, dst int, visited []int) {
	t.Helper()
	descending := false
	for i := 1; i < len(visited); i++ {
		if visited[i] > visited[i-1] {
			if descending {
				t.Fatalf("route %d->%d turns up after going down: tiers %v", src, dst, visited)
			}
		} else if visited[i] < visited[i-1] {
			descending = true
		} else {
			t.Fatalf("route %d->%d crosses two same-tier switches: %v", src, dst, visited)
		}
	}
}

func TestClosRoutesReachableAndUpDown(t *testing.T) {
	c := NewCluster(DefaultConfig(ModeFTGM))
	topo, err := BuildClos(c, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tiers := make(map[*fabric.Switch]int)
	for _, s := range topo.Leaves {
		tiers[s.sw] = 0
	}
	for _, s := range topo.Spines {
		tiers[s.sw] = 1
	}
	n := len(topo.Nodes)
	spineUse := make(map[int]int)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			visited := walkRoute(t, tiers, topo.Nodes, src, dst, topo.Route(src, dst))
			checkUpDown(t, src, dst, visited)
			if len(visited) == 3 {
				spineUse[(src+dst)%len(topo.Spines)]++
			}
		}
	}
	if len(spineUse) != len(topo.Spines) {
		t.Fatalf("all-to-all routes use %d of %d spines", len(spineUse), len(topo.Spines))
	}
}

func TestFatTreeRoutesReachableAndUpDown(t *testing.T) {
	for _, k := range []int{2, 4, 6} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			c := NewCluster(DefaultConfig(ModeFTGM))
			topo, err := buildFatTree(c, k)
			if err != nil {
				t.Fatal(err)
			}
			tiers := make(map[*fabric.Switch]int)
			for _, s := range topo.Edges {
				tiers[s.sw] = 0
			}
			for _, s := range topo.Aggs {
				tiers[s.sw] = 1
			}
			for _, s := range topo.Cores {
				tiers[s.sw] = 2
			}
			n := len(topo.Nodes)
			if n != k*k*k/4 {
				t.Fatalf("k=%d built %d hosts, want %d", k, n, k*k*k/4)
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					visited := walkRoute(t, tiers, topo.Nodes, src, dst, topo.Route(src, dst))
					checkUpDown(t, src, dst, visited)
				}
			}
		})
	}
}

// TestClosBootStaticDelivers boots a small Clos over generated routes (no
// mapper flood) and pushes one message across every src/dst pair, legacy and
// sharded.
func TestClosBootStaticDelivers(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := DefaultConfig(ModeFTGM)
			cfg.Shards = shards
			c := NewCluster(cfg)
			topo, err := BuildClos(c, 2, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := topo.Boot(c); err != nil {
				t.Fatal(err)
			}
			n := len(topo.Nodes)
			got := make([]int, n)
			ports := make([]*Port, n)
			for i, node := range topo.Nodes {
				p, err := node.OpenPort(2)
				if err != nil {
					t.Fatal(err)
				}
				ports[i] = p
				i := i
				p.SetReceiveHandler(func(ev RecvEvent) {
					got[i]++
					_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
				})
				for j := 0; j < 8; j++ {
					p.ProvideReceiveBuffer(256, PriorityLow)
				}
			}
			for src := range topo.Nodes {
				for dst := range topo.Nodes {
					if src == dst {
						continue
					}
					id := topo.Nodes[dst].ID()
					if err := ports[src].Send(id, 2, PriorityLow, make([]byte, 64), nil); err != nil {
						t.Fatalf("send %d->%d: %v", src, dst, err)
					}
				}
			}
			c.Run(5 * Millisecond)
			for i, g := range got {
				if g != n-1 {
					t.Fatalf("node %d received %d messages, want %d", i, g, n-1)
				}
			}
			c.Shutdown(Millisecond)
		})
	}
}
