package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/gm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/lanai"
	"repro/internal/mcp"
	"repro/internal/sim"
)

// testbed is one booted cluster with a benchmark endpoint on every node.
type testbed struct {
	cl       *gm.Cluster
	nodes    []*gm.Node
	switches []*gm.Switch
	ports    []*gm.Port
	eps      []*endpoint // empty when the workload brings its own handlers
	main     *lane
	bootMs   float64 // host time spent in Boot
	openMs   float64 // host time spent opening ports and providing buffers
}

// buildPair assembles the paper's testbed exactly as experiments.NewPair
// does — two hosts, one 8-port switch, mapper boot, port 2 on each side —
// but call by call, so each step gets its own span and the switch stays
// reachable for its counters.
func buildPair(cfg gm.Config, main *lane) (*testbed, error) {
	tb := &testbed{main: main}
	main.begin(spNewCluster)
	tb.cl = gm.NewCluster(cfg)
	main.end()
	main.begin(spBuildTopology)
	a, b := tb.cl.AddNode("hostA"), tb.cl.AddNode("hostB")
	sw := tb.cl.AddSwitch("m3m-sw8")
	err := tb.cl.Connect(a, sw, 0)
	if err == nil {
		err = tb.cl.Connect(b, sw, 1)
	}
	main.end()
	if err != nil {
		return nil, err
	}
	tb.nodes, tb.switches = []*gm.Node{a, b}, []*gm.Switch{sw}
	return tb, tb.boot(func() error { _, err := tb.cl.Boot(); return err })
}

// buildClos assembles a two-tier Clos (4 spines, 8 nodes per leaf) and boots
// it over the generator's routes, as the scaling experiments do: the
// mapper's scout flood does not cover a fabric this size.
func buildClos(cfg gm.Config, nodes int, main *lane) (*testbed, error) {
	tb := &testbed{main: main}
	main.begin(spNewCluster)
	tb.cl = gm.NewCluster(cfg)
	main.end()
	main.begin(spBuildTopology)
	perLeaf := 8
	if nodes < 16 {
		perLeaf = 2
	}
	leaves := nodes / perLeaf
	spines := 4
	if leaves < spines {
		spines = leaves
	}
	topo, err := gm.BuildClos(tb.cl, spines, leaves, perLeaf)
	main.end()
	if err != nil {
		return nil, err
	}
	tb.nodes = topo.Nodes
	tb.switches = append(append(tb.switches, topo.Spines...), topo.Leaves...)
	return tb, tb.boot(func() error { _, err := topo.Boot(tb.cl); return err })
}

func (tb *testbed) boot(fn func() error) error {
	tb.main.begin(spBoot)
	t0 := time.Now()
	err := fn()
	tb.bootMs = msSince(t0)
	tb.main.end()
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	return nil
}

// openPorts opens the benchmark port on every node and provides recvSlots
// receive buffers of bufSize bytes each.
func (tb *testbed) openPorts(bufSize, recvSlots int) error {
	t0 := time.Now()
	for _, n := range tb.nodes {
		tb.main.begin(spOpenPort)
		p, err := n.OpenPort(benchPort)
		tb.main.end()
		if err != nil {
			return err
		}
		tb.main.begin(spProvide)
		for j := 0; j < recvSlots && err == nil; j++ {
			err = p.ProvideReceiveBuffer(uint32(bufSize), gm.PriorityLow)
		}
		tb.main.end()
		if err != nil {
			return err
		}
		tb.ports = append(tb.ports, p)
	}
	tb.openMs = msSince(t0)
	return nil
}

// attachEndpoints gives every node a harness endpoint with txSlots stamped
// send buffers of msgSize bytes, each on its own tracing lane.
func (tb *testbed) attachEndpoints(t *tracer, pat *pattern, msgSize, txSlots int) {
	peers := make([]gm.NodeID, len(tb.nodes))
	for i, n := range tb.nodes {
		peers[i] = n.ID()
	}
	for i, n := range tb.nodes {
		tb.eps = append(tb.eps, newEndpoint(i, n, tb.ports[i], pat, peers, msgSize, txSlots, t.newLane(true)))
	}
}

// shutdown records the testbed's set-up readings, quiesces the cluster and
// checks that every pooled packet went back to the arena: poolLive is
// fabric.PoolStats().Live from before the round.
func (tb *testbed) shutdown(res *roundResult, poolLive int64) {
	res.extra["gm.boot_ms"] = tb.bootMs
	res.extra["gm.open_provide_ms"] = tb.openMs
	res.extra["host.cpu_send_us"] = tb.nodes[0].CPU().PerSend().Micros()
	res.extra["host.cpu_recv_us"] = tb.nodes[0].CPU().PerRecv().Micros()
	mr := tb.cl.MapResult()
	res.extra["mapper.scouts_sent"] = float64(mr.ScoutsSent)
	res.extra["mapper.sim_elapsed_ms"] = mr.Elapsed.Seconds() * 1e3
	tb.main.begin(spShutdown)
	tb.cl.Shutdown(50 * gm.Millisecond)
	tb.main.end()
	checkPool(res, poolLive)
}

// checkPool compares the packet arena's live count with its value from
// before the round; after a shutdown they must agree.
func checkPool(res *roundResult, poolLive int64) {
	live := fabric.PoolStats().Live
	if live != poolLive {
		res.violations = append(res.violations, fmt.Sprintf("packet pool leak: %d live before, %d after shutdown", poolLive, live))
	}
	res.extra["fabric.pool_live_delta"] = float64(live - poolLive)
}

func (tb *testbed) markWindow() {
	for _, e := range tb.eps {
		e.markWindow()
	}
}

// delivered counts intact in-order deliveries since the round began.
func (tb *testbed) delivered() uint64 {
	var n uint64
	for _, e := range tb.eps {
		n += e.st.ok
	}
	return n
}

// layerSnap is every public counter the per-layer metrics are computed
// from, summed over the cluster. Two snapshots bracket the timed window.
type layerSnap struct {
	MCP      mcp.Stats
	Chip     lanai.Stats
	LinkUp   fabric.LinkStats // node -> switch direction of every node cable
	LinkDown fabric.LinkStats // switch -> node direction
	PCI      host.PCIStats
	Switch   fabric.SwitchStats
	FTD      core.FTDStats
	Pool     fabric.PoolCounters
	Events   uint64
	Now      sim.Time
	PortRecv uint64 // gm.PortStats.Recoveries
}

func (tb *testbed) snap() layerSnap {
	var s layerSnap
	for _, n := range tb.nodes {
		sumInto(&s.MCP, n.MCPStats())
		sumInto(&s.Chip, n.ChipStats())
		sumInto(&s.PCI, n.PCI().Stats())
		if l := n.Link(); l != nil {
			sumInto(&s.LinkUp, l.Stats(0))
			sumInto(&s.LinkDown, l.Stats(1))
		}
		if f := n.FTD(); f != nil {
			sumInto(&s.FTD, f.Stats())
		}
	}
	for _, p := range tb.ports {
		s.PortRecv += p.Stats().Recoveries
	}
	for _, sw := range tb.switches {
		sumInto(&s.Switch, sw.Stats())
	}
	s.Pool = fabric.PoolStats()
	s.Events = tb.cl.Engine().ExecutedAll()
	s.Now = tb.cl.Now()
	return s
}

// sub returns s - o field by field.
func (s layerSnap) sub(o layerSnap) layerSnap {
	d := s
	subFrom(&d, o)
	return d
}

// sumInto adds every integer field of src (a struct) into *dst, recursing
// into nested structs. The Stats structs are flat counter blocks, so this
// spares a hand-written sum per layer.
func sumInto(dst any, src any) {
	foldInts(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), 1)
}

// subFrom subtracts every integer field of src from *dst.
func subFrom(dst any, src any) {
	foldInts(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), -1)
}

func foldInts(dst, src reflect.Value, sign int64) {
	for i := 0; i < dst.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		switch d.Kind() {
		case reflect.Struct:
			foldInts(d, s, sign)
		case reflect.Uint64, reflect.Uint32, reflect.Uint:
			if sign > 0 {
				d.SetUint(d.Uint() + s.Uint())
			} else {
				d.SetUint(d.Uint() - s.Uint())
			}
		case reflect.Int64, reflect.Int:
			d.SetInt(d.Int() + sign*s.Int())
		}
	}
}

// digest fingerprints the simulated outcome of a round: every node's MCP,
// chip, cable and PCI counters, the per-stream delivery counts and the
// final virtual time. A change that only speeds the simulator up must leave
// it unchanged.
func (tb *testbed) digest() uint64 {
	d := newDigest()
	for i, n := range tb.nodes {
		d.add(n.MCPStats(), n.ChipStats(), n.PCI().Stats())
		if l := n.Link(); l != nil {
			d.add(l.Stats(0), l.Stats(1))
		}
		if len(tb.eps) > 0 {
			d.add(tb.eps[i].st.expect)
		}
	}
	d.add(tb.cl.Now())
	return d.sum()
}
