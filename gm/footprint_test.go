package gm

import (
	"runtime"
	"testing"
)

// TestClosNodeFootprint bounds what one simulated node holds on the heap: a
// booted 128-node Clos with an open, provisioned port per node must cost at
// most 256 KiB per node. LANai SRAM is paged in on first write, so the
// modeled 1 MB per card is not held; a regression back to a flat backing
// store reads about 1.1 MB per node. Not parallel: the heap is measured
// process-wide.
func TestClosNodeFootprint(t *testing.T) {
	const budget = 256 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	c := NewCluster(DefaultConfig(ModeFTGM))
	topo, err := BuildClos(c, 4, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Boot(c); err != nil {
		t.Fatal(err)
	}
	for _, n := range topo.Nodes {
		p, err := n.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			if err := p.ProvideReceiveBuffer(512, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Run(2 * Millisecond)

	runtime.GC()
	runtime.ReadMemStats(&after)
	nodes := len(topo.Nodes)
	perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(nodes)
	runtime.KeepAlive(c)
	t.Logf("%d nodes: %d KB of heap per node", nodes, perNode>>10)
	if perNode > budget {
		t.Errorf("%d bytes of heap per node, want <= %d", perNode, budget)
	}
}
