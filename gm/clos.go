package gm

import (
	"fmt"

	"repro/internal/mapper"
)

// This file provides the large-cluster topology generators: two-tier Clos
// (leaf/spine) fabrics and k-ary fat-trees, with generator-computed minimal
// routes that follow the up*/down* discipline — every route climbs toward
// the spine/core tier, turns at most once, and descends; no route ever turns
// downward and then upward again, which (with the fabric's cut-through
// crossbars) rules out channel-dependency cycles. Both generators return a
// StaticRouteFunc-compatible Route method for Cluster.BootStatic, skipping
// the mapper's scout flood: the paper's mapper explores arbitrary unknown
// topologies, but a generated fabric already knows every route.

// routeDelta encodes one switch hop as Myrinet's signed relative delta: the
// output port is the input port plus the delta, modulo the crossbar size.
func routeDelta(in, out int) byte { return byte(int8(out - in)) }

// ClosTopology is a two-tier leaf/spine fabric built by BuildClos.
type ClosTopology struct {
	// Nodes in index order; node i hangs off leaf i/PerLeaf, down port
	// i%PerLeaf.
	Nodes []*Node
	// Leaves are the bottom-tier switches: PerLeaf down ports (0..PerLeaf-1)
	// to nodes, then one up port per spine (PerLeaf+s to spine s).
	Leaves []*Switch
	// Spines are the top-tier switches: port l cables to leaf l.
	Spines []*Switch
	// PerLeaf is the node count per leaf.
	PerLeaf int
}

// BuildClos assembles a two-tier Clos fabric on an empty cluster: `leaves`
// leaf switches with `nodesPerLeaf` nodes each, every leaf cabled to every
// one of `spines` spine switches. Leaf crossbars get nodesPerLeaf+spines
// ports, spines get `leaves` ports (AddSwitchPorts overrides the configured
// switch size). Call before BootStatic; Boot(c) runs it with the generated
// routes.
func BuildClos(c *Cluster, spines, leaves, nodesPerLeaf int) (*ClosTopology, error) {
	if spines < 1 || leaves < 1 || nodesPerLeaf < 1 {
		return nil, fmt.Errorf("%w: need >= 1 spine, leaf and node per leaf", ErrBadArgument)
	}
	if nodesPerLeaf+spines > 128 || leaves > 128 {
		return nil, fmt.Errorf("%w: crossbar radix exceeds the 8-bit route delta range", ErrBadArgument)
	}
	t := &ClosTopology{PerLeaf: nodesPerLeaf}
	for s := 0; s < spines; s++ {
		t.Spines = append(t.Spines, c.AddSwitchPorts(fmt.Sprintf("spine%d", s), leaves))
	}
	for l := 0; l < leaves; l++ {
		leaf := c.AddSwitchPorts(fmt.Sprintf("leaf%d", l), nodesPerLeaf+spines)
		t.Leaves = append(t.Leaves, leaf)
		for s := 0; s < spines; s++ {
			if err := c.ConnectSwitches(leaf, t.Spines[s], nodesPerLeaf+s, l); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < leaves*nodesPerLeaf; i++ {
		n := c.AddNode(fmt.Sprintf("n%d", i))
		if err := c.Connect(n, t.Leaves[i/nodesPerLeaf], i%nodesPerLeaf); err != nil {
			return nil, err
		}
		t.Nodes = append(t.Nodes, n)
	}
	return t, nil
}

// Route returns the up*/down* route from node index src to dst: direct at a
// shared leaf, otherwise up to a spine chosen by (src+dst) mod spines — a
// deterministic spread so all-to-all traffic loads every spine — and down.
func (t *ClosTopology) Route(src, dst int) []byte {
	if src == dst {
		return nil
	}
	p := t.PerLeaf
	srcLeaf, srcLocal := src/p, src%p
	dstLeaf, dstLocal := dst/p, dst%p
	if srcLeaf == dstLeaf {
		return []byte{routeDelta(srcLocal, dstLocal)}
	}
	s := (src + dst) % len(t.Spines)
	return []byte{
		routeDelta(srcLocal, p+s), // leaf: up to spine s
		routeDelta(srcLeaf, dstLeaf),
		routeDelta(p+s, dstLocal), // leaf: down to the node
	}
}

// Boot brings the cluster up over the generated routes (see BootStatic).
func (t *ClosTopology) Boot(c *Cluster) (mapper.Result, error) {
	return c.BootStatic(t.Route)
}

// fatTreeTopology is a k-ary fat-tree built by buildFatTree.
type fatTreeTopology struct {
	// K is the switch radix: k pods of k/2 edge and k/2 aggregation
	// switches, (k/2)^2 cores, k^3/4 hosts.
	K int
	// Nodes in index order; k/2 per edge switch, edges pod-major.
	Nodes []*Node
	// Edges and Aggs are pod-major: pod p's switches occupy [p*k/2, (p+1)*k/2).
	// Edge down ports 0..k/2-1 cable hosts, up port k/2+a cables pod agg a.
	// Agg down port e cables pod edge e, up port k/2+j cables core a*(k/2)+j.
	Edges, Aggs []*Switch
	// Cores: core c = a*(k/2)+j cables pod p at port p (to agg a's up port
	// k/2+j).
	Cores []*Switch
}

// buildFatTree assembles a k-ary fat-tree (k even, >= 2) on an empty
// cluster. Every switch is a k-port crossbar. Call before BootStatic;
// Boot(c) runs it with the generated routes.
func buildFatTree(c *Cluster, k int) (*fatTreeTopology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("%w: fat-tree radix must be even and >= 2", ErrBadArgument)
	}
	if k > 128 {
		return nil, fmt.Errorf("%w: crossbar radix exceeds the 8-bit route delta range", ErrBadArgument)
	}
	t := &fatTreeTopology{K: k}
	h := k / 2
	for a := 0; a < h; a++ {
		for j := 0; j < h; j++ {
			t.Cores = append(t.Cores, c.AddSwitchPorts(fmt.Sprintf("core%d_%d", a, j), k))
		}
	}
	for p := 0; p < k; p++ {
		for a := 0; a < h; a++ {
			agg := c.AddSwitchPorts(fmt.Sprintf("agg%d_%d", p, a), k)
			t.Aggs = append(t.Aggs, agg)
			for j := 0; j < h; j++ {
				if err := c.ConnectSwitches(agg, t.Cores[a*h+j], h+j, p); err != nil {
					return nil, err
				}
			}
		}
		for e := 0; e < h; e++ {
			edge := c.AddSwitchPorts(fmt.Sprintf("edge%d_%d", p, e), k)
			t.Edges = append(t.Edges, edge)
			for a := 0; a < h; a++ {
				if err := c.ConnectSwitches(edge, t.Aggs[p*h+a], h+a, e); err != nil {
					return nil, err
				}
			}
		}
	}
	for i := 0; i < k*h*h; i++ {
		n := c.AddNode(fmt.Sprintf("n%d", i))
		if err := c.Connect(n, t.Edges[i/h], i%h); err != nil {
			return nil, err
		}
		t.Nodes = append(t.Nodes, n)
	}
	return t, nil
}

// Route returns the up*/down* route from node index src to dst: direct at a
// shared edge switch; up to a deterministically spread aggregation switch
// within a pod; through a core between pods. Never down-then-up.
func (t *fatTreeTopology) Route(src, dst int) []byte {
	if src == dst {
		return nil
	}
	h := t.K / 2
	srcEdge, srcLocal := src/h, src%h
	dstEdge, dstLocal := dst/h, dst%h
	if srcEdge == dstEdge {
		return []byte{routeDelta(srcLocal, dstLocal)}
	}
	srcPod, dstPod := srcEdge/h, dstEdge/h
	a := (src + dst) % h
	if srcPod == dstPod {
		return []byte{
			routeDelta(srcLocal, h+a),        // edge: up to agg a
			routeDelta(srcEdge%h, dstEdge%h), // agg: across the pod
			routeDelta(h+a, dstLocal),        // edge: down to the host
		}
	}
	j := (src ^ dst) % h
	return []byte{
		routeDelta(srcLocal, h+a),  // edge: up to agg a
		routeDelta(srcEdge%h, h+j), // agg: up to core a*h+j
		routeDelta(srcPod, dstPod), // core: across pods
		routeDelta(h+j, dstEdge%h), // agg: down to the edge
		routeDelta(h+a, dstLocal),  // edge: down to the host
	}
}

// Boot brings the cluster up over the generated routes (see BootStatic).
func (t *fatTreeTopology) Boot(c *Cluster) (mapper.Result, error) {
	return c.BootStatic(t.Route)
}
