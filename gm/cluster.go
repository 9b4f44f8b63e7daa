package gm

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/gossip"
	"repro/internal/mapper"
	"repro/internal/sim"
)

// Time and Duration re-export the virtual time types.
type (
	// Time is a virtual timestamp.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
)

// Common durations re-exported for application code.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Errors reported by cluster assembly and the port API.
var (
	ErrNotBooted    = errors.New("gm: cluster not booted")
	ErrNoSendTokens = errors.New("gm: no send tokens available")
	ErrPortClosed   = errors.New("gm: port closed")
	ErrBadArgument  = errors.New("gm: bad argument")
	// ErrPeerUnreachable rejects a send to a peer the network watchdog has
	// declared unreachable (no surviving route). The peer is readmitted
	// automatically if a later remap finds it again.
	ErrPeerUnreachable = errors.New("gm: peer unreachable")
)

// Cluster is a simulated Myrinet network: nodes (host + interface card),
// switches and cables, all driven by one deterministic discrete-event
// engine in virtual time.
type Cluster struct {
	cfg      Config
	eng      *sim.Engine
	nodes    []*Node
	switches []*Switch
	links    []*fabric.Link
	booted   bool
	mapRes   mapper.Result

	// netwatch is the network watchdog daemon (nil unless cfg.NetWatch is
	// enabled, the central plane selected, and the cluster booted).
	netwatch *core.NetWatch
	// gossipAgents holds one membership agent per node, index-aligned with
	// nodes (empty unless cfg.ControlPlane is ControlPlaneGossip and the
	// cluster booted).
	gossipAgents []*gossip.Agent
	// mapperRetries counts synchronous mapping attempts that hit the
	// convergence cap and were retried.
	mapperRetries int
	// knownIDs is the accumulated UID -> NodeID assignment across maps; it
	// seeds the mapper's prior so survivors keep their identity (streams are
	// keyed by NodeID).
	knownIDs map[uint64]gmproto.NodeID
	// missingSince records when each known interface first went missing
	// from a map. Interfaces within the UnreachableGrace window keep their
	// old routes installed (they may be mid-FTD-recovery, which makes a node
	// invisible to scouts); past it they are expelled.
	missingSince map[uint64]sim.Time
	// expelled marks interfaces declared unreachable.
	expelled map[uint64]bool
	// remapBusy guards against overlapping watchdog remap attempts.
	remapBusy bool
	// sharded marks domain mode: each node and switch owns an event domain
	// carved out of eng (cfg.Shards > 0).
	sharded bool
}

// Switch wraps a crossbar switch in the cluster.
type Switch struct {
	sw  *fabric.Switch
	eng *sim.Engine
}

// Name returns the switch's name.
func (s *Switch) Name() string { return s.sw.Name() }

// NumPorts returns the switch's port count.
func (s *Switch) NumPorts() int { return s.sw.NumPorts() }

// Stats returns a snapshot of the switch's forwarding counters.
func (s *Switch) Stats() fabric.SwitchStats { return s.sw.Stats() }

// SetPortDead kills or revives one crossbar port (chaos injection); a dead
// port neither accepts nor emits packets while the cable stays up.
func (s *Switch) SetPortDead(port int, dead bool) { s.sw.SetPortDead(port, dead) }

// PortDead reports whether a crossbar port is killed.
func (s *Switch) PortDead(port int) bool { return s.sw.PortDead(port) }

// NewCluster creates an empty cluster. With cfg.Shards > 0 the cluster runs
// in domain mode: the engine returned by Engine() is the control domain, and
// each AddNode/AddSwitch carves out its own event domain.
func NewCluster(cfg Config) *Cluster {
	c := &Cluster{
		cfg:          cfg,
		eng:          sim.NewEngine(cfg.Seed),
		knownIDs:     make(map[uint64]gmproto.NodeID),
		missingSince: make(map[uint64]sim.Time),
		expelled:     make(map[uint64]bool),
	}
	if cfg.Shards > 0 {
		c.sharded = true
		c.eng.SetShards(cfg.Shards)
		if cfg.Speculate {
			h := cfg.SpecHorizon
			if h <= 0 {
				h = 8 * cfg.Link.PropDelay
			}
			c.eng.SetSpeculation(h)
		}
	}
	return c
}

// Sharded reports whether the cluster runs in domain mode (cfg.Shards > 0).
func (c *Cluster) Sharded() bool { return c.sharded }

// Engine exposes the simulation engine (experiment harnesses schedule
// against it; applications normally use At/After/Run).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// EnableTrace streams component-level trace lines (switch drops, processor
// hangs, card resets, ...) to w, each stamped with the virtual time. Pass
// nil to disable.
func (c *Cluster) EnableTrace(w io.Writer) {
	if w == nil {
		c.eng.SetTrace(nil)
		return
	}
	c.eng.SetTrace(func(at sim.Time, component, format string, args ...any) {
		fmt.Fprintf(w, "[%12s] %-16s %s\n", at, component, fmt.Sprintf(format, args...))
	})
}

// Now returns the current virtual time.
func (c *Cluster) Now() Time { return c.eng.Now() }

// At schedules fn at virtual time t.
func (c *Cluster) At(t Time, fn func()) { c.eng.At(t, fn) }

// After schedules fn after d.
func (c *Cluster) After(d Duration, fn func()) { c.eng.After(d, fn) }

// Run advances the simulation by d.
func (c *Cluster) Run(d Duration) { c.eng.RunFor(d) }

// RunUntil advances the simulation to absolute time t.
func (c *Cluster) RunUntil(t Time) { c.eng.RunUntil(t) }

// Shutdown quiesces the cluster and returns every pooled packet the stack
// holds to the arena: each interface is reset (releasing its receive ring
// and any packet whose handler died with the Exec queue), then the engine
// runs for grace so packets still in flight on cables and switches land on
// the now-dead interfaces and are released there. With every processor
// stopped, no new packets can be injected. Call at the end of a trial
// before abandoning the engine; the cluster is unusable afterwards. The
// pool leak test asserts this brings fabric.PoolStats().Live back to its
// pre-trial value.
func (c *Cluster) Shutdown(grace Duration) {
	for _, a := range c.gossipAgents {
		a.Stop()
	}
	for _, n := range c.nodes {
		// Kill (not just Reset): the FTD would otherwise notice the dead
		// card during the grace window and reload it, re-injecting traffic.
		n.chip.Kill()
		n.m.Shutdown()
	}
	if grace > 0 {
		c.eng.RunFor(grace)
	}
}

// AddNode creates a node (host + LANai interface card). Its cable must
// then be connected with Connect before Boot. In domain mode the node and
// its NIC get their own event domain.
func (c *Cluster) AddNode(name string) *Node {
	eng := c.eng
	if c.sharded {
		eng = c.eng.NewDomain(name)
		if c.cfg.Speculate {
			// The whole host + NIC stack journals itself incrementally
			// (SpecTouch/SpecUndo), so the domain-level checkpoint is empty.
			eng.EnableSpeculation(specSaveNil, specRestoreNil)
		}
	}
	n := newNode(c, eng, name, len(c.nodes))
	c.nodes = append(c.nodes, n)
	return n
}

// Nodes returns the cluster's nodes in creation order.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// AddSwitch creates a crossbar switch with the configured port count. In
// domain mode the switch is its own event domain (a boundary domain: every
// cable at it is a shard boundary).
func (c *Cluster) AddSwitch(name string) *Switch {
	return c.AddSwitchPorts(name, c.cfg.Switch.Ports)
}

// AddSwitchPorts creates a crossbar switch with an explicit port count
// (topology generators size leaf and spine crossbars differently).
func (c *Cluster) AddSwitchPorts(name string, ports int) *Switch {
	eng := c.eng
	if c.sharded {
		eng = c.eng.NewDomain(name)
		if c.cfg.Speculate {
			// The crossbar, its links and the packet pool journal themselves
			// (fabric/spec wiring); no eager domain checkpoint is needed.
			eng.EnableSpeculation(specSaveNil, specRestoreNil)
		}
	}
	swCfg := c.cfg.Switch
	swCfg.Ports = ports
	s := &Switch{sw: fabric.NewSwitch(eng, name, swCfg), eng: eng}
	c.switches = append(c.switches, s)
	return s
}

// Connect cables a node's interface into a switch port.
func (c *Cluster) Connect(n *Node, s *Switch, port int) error {
	if n == nil || s == nil {
		return fmt.Errorf("%w: nil node or switch", ErrBadArgument)
	}
	l := fabric.NewLinkEngines(n.eng, s.eng, c.cfg.Link, n.chip, s.sw)
	if err := s.sw.AttachLink(port, l); err != nil {
		return err
	}
	n.chip.Attach(l.EndFor(n.chip))
	n.link = l
	c.links = append(c.links, l)
	return nil
}

// ConnectSwitches cables two switches together (a trunk).
func (c *Cluster) ConnectSwitches(a, b *Switch, portA, portB int) error {
	_, err := c.ConnectSwitchesLink(a, b, portA, portB)
	return err
}

// ConnectSwitchesLink is ConnectSwitches returning the trunk's cable, so
// fault-injection harnesses can cut it.
func (c *Cluster) ConnectSwitchesLink(a, b *Switch, portA, portB int) (*fabric.Link, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("%w: nil switch", ErrBadArgument)
	}
	l := fabric.NewLinkEngines(a.eng, b.eng, c.cfg.Link, a.sw, b.sw)
	if err := a.sw.AttachLink(portA, l); err != nil {
		return nil, err
	}
	if err := b.sw.AttachLink(portB, l); err != nil {
		return nil, err
	}
	c.links = append(c.links, l)
	return l, nil
}

// Boot brings the cluster up: it loads the MCP into every interface, runs
// the GM mapper from the first node, distributes identities and route
// tables, and stores the authoritative copies in each driver for the FTD's
// use. Boot advances virtual time (MCP loads take their real ~500 ms each,
// in parallel; the mapping protocol takes a few ms more).
func (c *Cluster) Boot() (mapper.Result, error) {
	if len(c.nodes) == 0 {
		return mapper.Result{}, fmt.Errorf("%w: no nodes", ErrBadArgument)
	}
	loaded := 0
	for _, n := range c.nodes {
		// The load completion fires inside the node's domain; fold the
		// shared counter on the control domain via Control.
		eng := n.eng
		n.driver.LoadMCP(func() { eng.Control(func() { loaded++ }) })
	}
	deadline := c.eng.Now() + c.cfg.Driver.MCPLoadTime + sim.Millisecond
	c.eng.RunUntil(deadline)
	if loaded != len(c.nodes) {
		return mapper.Result{}, fmt.Errorf("gm: %d/%d MCP loads finished", loaded, len(c.nodes))
	}

	res, err := c.runMapperSync()
	if err != nil {
		return mapper.Result{}, err
	}
	if len(res.IDs) != len(c.nodes) {
		return res, fmt.Errorf("gm: mapper found %d interfaces, cluster has %d",
			len(res.IDs), len(c.nodes))
	}

	c.finishBoot(res)
	return res, nil
}

// finishBoot installs a boot-time mapping, arms the configured control
// plane and lets the config packets settle. Shared by Boot and BootStatic.
func (c *Cluster) finishBoot(res mapper.Result) {
	c.applyMapResult(res)
	c.booted = true
	switch {
	case c.cfg.ControlPlane == ControlPlaneGossip:
		c.startGossipPlane(res)
	case c.cfg.NetWatch.Enabled:
		c.netwatch = core.NewNetWatch(c.eng, c.cfg.NetWatch)
		c.netwatch.SetRemap(c.netwatchRemap)
		for _, n := range c.nodes {
			// The driver raises net-fault suspicions from the node's own
			// domain; the watchdog is control-domain state, so the report
			// crosses over via Control (inline on a legacy cluster).
			eng := n.eng
			n.driver.SetOnNetFault(func(target NodeID) {
				eng.Control(func() { c.netwatch.Suspect(target) })
			})
		}
	}
	// Let the config packets and any stragglers settle.
	c.eng.RunFor(2 * c.cfg.Mapper.RoundTimeout)
}

// gossipSeedSpace offsets the agents' DeriveRNG index range away from the
// indices other layers draw from the same cluster seed.
const gossipSeedSpace = 0x6055_0000

// startGossipPlane replicates the boot map into a membership agent on every
// node and starts the probe rounds. Everything an agent ever does —
// timers, verdicts, route installs — happens on its own node's domain
// against that node's own driver and MCP, which is why the plane needs no
// Control crossings and stays bit-for-bit identical at every shard count.
func (c *Cluster) startGossipPlane(res mapper.Result) {
	// The anchor-relative link-state database: the mapping node's own table
	// reaches every member, and the anchor itself gets the empty route.
	anchor := make(map[NodeID][]byte, len(res.IDs))
	for id, r := range res.Routes[res.MapperID] {
		anchor[id] = r
	}
	anchor[res.MapperID] = nil
	members := make([]NodeID, 0, len(c.nodes))
	for _, n := range c.nodes {
		members = append(members, c.knownIDs[n.m.UID()])
	}
	for i, n := range c.nodes {
		node := n
		id := c.knownIDs[node.m.UID()]
		// The agent seed is a pure function of (cluster seed, node index),
		// never drawn from a domain generator: the plane's schedule must not
		// depend on how the engine was sharded.
		ag := gossip.New(node.eng, c.cfg.Gossip, sim.DeriveRNG(c.cfg.Seed, gossipSeedSpace+uint64(i)).Uint64())
		ag.SetTransport(func(route, payload []byte) { node.m.RawTransmit(route, payload) })
		ag.SetHooks(gossip.Hooks{
			Dead: func(peer NodeID, routes map[NodeID][]byte) {
				node.setPeerUnreachable(peer)
				node.driver.SetRoutes(id, routes)
				node.m.UploadRoutes(routes)
			},
			Alive: func(peer NodeID, routes map[NodeID][]byte) {
				node.resetPeer(peer)
				node.driver.SetRoutes(id, routes)
				node.m.UploadRoutes(routes)
			},
		})
		node.m.SetGossipSink(ag.HandlePacket)
		// Path-health suspicions stay node-local: the stalled stream, the
		// agent and the targeted probe all live on this node's domain.
		node.driver.SetOnNetFault(ag.SuspectPath)
		ag.SeedView(id, members, anchor)
		c.gossipAgents = append(c.gossipAgents, ag)
	}
	for _, ag := range c.gossipAgents {
		ag.Start()
	}
}

// GossipAgents returns the per-node membership agents, index-aligned with
// Nodes (empty unless the gossip plane is selected and the cluster booted).
func (c *Cluster) GossipAgents() []*gossip.Agent {
	return append([]*gossip.Agent(nil), c.gossipAgents...)
}

// StaticRouteFunc supplies the route bytes from node index src to node index
// dst for BootStatic. It is never called with src == dst.
type StaticRouteFunc func(src, dst int) []byte

// BootStatic brings the cluster up with generator-computed routes instead of
// running the mapper's scout flood: MCPs load in parallel exactly as in
// Boot, then identities (NodeID = index + 1) and the supplied route tables
// are installed directly. Large regular fabrics (Clos, fat-tree) boot this
// way — the paper's mapper explores arbitrary topologies, which a
// 256-node all-to-all scout flood makes needlessly expensive when the
// generator already knows every minimal route.
func (c *Cluster) BootStatic(routes StaticRouteFunc) (mapper.Result, error) {
	if len(c.nodes) == 0 {
		return mapper.Result{}, fmt.Errorf("%w: no nodes", ErrBadArgument)
	}
	loaded := 0
	for _, n := range c.nodes {
		// The load completion fires inside the node's domain; fold the
		// shared counter on the control domain via Control.
		eng := n.eng
		n.driver.LoadMCP(func() { eng.Control(func() { loaded++ }) })
	}
	deadline := c.eng.Now() + c.cfg.Driver.MCPLoadTime + sim.Millisecond
	c.eng.RunUntil(deadline)
	if loaded != len(c.nodes) {
		return mapper.Result{}, fmt.Errorf("gm: %d/%d MCP loads finished", loaded, len(c.nodes))
	}
	res := mapper.Result{
		IDs:      make(map[uint64]gmproto.NodeID, len(c.nodes)),
		Routes:   make(map[gmproto.NodeID]map[gmproto.NodeID][]byte, len(c.nodes)),
		MapperID: 1,
	}
	for i, n := range c.nodes {
		res.IDs[n.m.UID()] = gmproto.NodeID(i + 1)
	}
	for src := range c.nodes {
		sid := gmproto.NodeID(src + 1)
		tbl := make(map[gmproto.NodeID][]byte, len(c.nodes)-1)
		for dst := range c.nodes {
			if dst == src {
				continue
			}
			r := routes(src, dst)
			if r == nil {
				return mapper.Result{}, fmt.Errorf("gm: no static route %d -> %d", src, dst)
			}
			tbl[gmproto.NodeID(dst+1)] = r
		}
		res.Routes[sid] = tbl
	}
	c.finishBoot(res)
	return res, nil
}

// Booted reports whether Boot completed.
func (c *Cluster) Booted() bool { return c.booted }

// MapResult returns the mapping produced by Boot.
func (c *Cluster) MapResult() mapper.Result { return c.mapRes }

// Remap re-runs the mapper (e.g. after a topology change) and refreshes
// every reachable driver's authoritative copy. Surviving nodes keep their
// identities (the prior assignment seeds the mapper).
func (c *Cluster) Remap() (mapper.Result, error) {
	if !c.booted {
		return mapper.Result{}, ErrNotBooted
	}
	res, err := c.runMapperSync()
	if err != nil {
		return mapper.Result{}, err
	}
	c.applyMapResult(res)
	return res, nil
}

// NetWatch returns the network watchdog daemon (nil unless enabled in the
// configuration and the cluster booted).
func (c *Cluster) NetWatch() *core.NetWatch { return c.netwatch }

// mapperCap returns the configured convergence cap.
func (c *Cluster) mapperCap() sim.Duration {
	if c.cfg.MapperConvergeTimeout > 0 {
		return c.cfg.MapperConvergeTimeout
	}
	return 10 * sim.Second
}

// mapperAttempts returns how many synchronous mapping attempts Boot and
// Remap may make in total.
func (c *Cluster) mapperAttempts() int {
	switch {
	case c.cfg.MapperRetries > 0:
		return 1 + c.cfg.MapperRetries
	case c.cfg.MapperRetries < 0:
		return 1
	default:
		return 4 // one try plus three retries
	}
}

// Backoff between synchronous mapping attempts: doubled per retry, capped.
const (
	mapperRetryBackoffBase = 50 * sim.Millisecond
	mapperRetryBackoffCap  = 500 * sim.Millisecond
)

// MapperTimeoutRetries counts the synchronous mapping attempts that hit the
// convergence cap and were retried.
func (c *Cluster) MapperTimeoutRetries() int { return c.mapperRetries }

// runMapperSync runs a mapping pass from the first node, pumping the engine
// until it converges or the cap expires. A capped attempt is retried after
// a capped backoff with twice the convergence budget — a cap hit usually
// means congestion or an unlucky flap window, not a dead fabric, and a
// one-shot failure here used to abort the whole boot. Used by Boot and
// Remap; the network watchdog, which lives *inside* simulation callbacks
// and cannot pump the engine, uses netwatchRemap instead.
func (c *Cluster) runMapperSync() (mapper.Result, error) {
	attempts := c.mapperAttempts()
	budget := c.mapperCap()
	backoff := mapperRetryBackoffBase
	for attempt := 1; ; attempt++ {
		mp := mapper.New(c.nodes[0].m, c.cfg.Mapper)
		if len(c.knownIDs) > 0 {
			mp.SetPrior(c.knownIDs)
		}
		var res mapper.Result
		var mapErr error
		finished := false
		mp.Run(func(r mapper.Result, err error) { res, mapErr, finished = r, err, true })
		deadline := c.eng.Now() + budget
		for !finished && c.eng.Now() < deadline {
			c.eng.RunFor(10 * sim.Millisecond)
		}
		if finished {
			if mapErr != nil {
				return mapper.Result{}, mapErr
			}
			return res, nil
		}
		mp.Abort()
		if attempt >= attempts {
			return mapper.Result{}, fmt.Errorf("gm: mapper did not converge (%d attempts)", attempts)
		}
		c.mapperRetries++
		c.eng.Tracef("cluster", "mapper attempt %d hit the %v cap; retrying after %v with a %v cap",
			attempt, budget, backoff, 2*budget)
		c.eng.RunFor(backoff)
		if backoff *= 2; backoff > mapperRetryBackoffCap {
			backoff = mapperRetryBackoffCap
		}
		budget *= 2
	}
}

// netwatchRemap is the watchdog's remap trigger: one asynchronous mapping
// pass, applied on completion, aborted at the convergence cap. It never
// pumps the engine (it runs inside a simulation callback).
func (c *Cluster) netwatchRemap(done func(ok bool)) {
	if c.remapBusy || len(c.nodes) == 0 {
		done(false)
		return
	}
	c.remapBusy = true
	mp := mapper.New(c.nodes[0].m, c.cfg.Mapper)
	mp.SetPrior(c.knownIDs)
	finished := false
	mapperEng := c.nodes[0].eng
	mp.Run(func(r mapper.Result, err error) {
		// The mapper completes on the mapping node's domain; applying the
		// result rewires every node, which is control-domain work.
		mapperEng.Control(func() {
			if finished {
				return
			}
			finished = true
			c.remapBusy = false
			if err != nil {
				done(false)
				return
			}
			c.applyMapResult(r)
			done(true)
		})
	})
	c.eng.AfterLabel(c.mapperCap(), "netwatch-remap-cap", func() {
		if finished {
			return
		}
		finished = true
		c.remapBusy = false
		mp.Abort()
		done(false)
	})
}

// applyMapResult installs a mapping into the cluster: driver authoritative
// copies and MCP tables for every mapped node, identity bookkeeping, and the
// unreachable/readmission state machine for nodes the map lost or regained.
func (c *Cluster) applyMapResult(res mapper.Result) {
	now := c.eng.Now()
	for uid, id := range res.IDs {
		c.knownIDs[uid] = id
	}

	// Classify this cluster's nodes against the map. Slice iteration keeps
	// event order deterministic.
	var toExpel, toReadmit []*Node
	for _, n := range c.nodes {
		uid := n.m.UID()
		if _, present := res.IDs[uid]; present {
			delete(c.missingSince, uid)
			if c.expelled[uid] {
				toReadmit = append(toReadmit, n)
			}
			continue
		}
		if c.expelled[uid] {
			continue
		}
		if _, known := c.knownIDs[uid]; !known {
			continue // never mapped; not our member (or pre-boot)
		}
		first, tracked := c.missingSince[uid]
		if !tracked {
			c.missingSince[uid] = now
			continue
		}
		if now-first >= c.cfg.NetWatch.UnreachableGrace {
			toExpel = append(toExpel, n)
		}
	}

	// Install the tables. A missing-but-in-grace peer (possibly mid-FTD-
	// recovery, invisible to scouts) keeps its old route in every table so
	// traffic toward it resumes the moment it comes back — the mapper's
	// in-band config replaced the MCP tables wholesale, so the merged table
	// is re-uploaded directly.
	for _, n := range c.nodes {
		uid := n.m.UID()
		id, present := res.IDs[uid]
		if !present {
			continue
		}
		tbl := make(map[NodeID][]byte, len(res.Routes[id]))
		for dest, r := range res.Routes[id] {
			tbl[dest] = r
		}
		old := n.driver.Routes()
		for guid := range c.missingSince {
			gid, known := c.knownIDs[guid]
			if !known || gid == id {
				continue
			}
			if _, have := tbl[gid]; have {
				continue
			}
			if r, ok := old[gid]; ok {
				tbl[gid] = r
			}
		}
		n.driver.SetRoutes(id, tbl)
		n.m.SetNodeID(id)
		n.m.UploadRoutes(tbl)
	}

	for _, n := range toExpel {
		c.expelNode(n)
	}
	for _, n := range toReadmit {
		c.readmitNode(n)
	}
	c.mapRes = res
}

// expelNode declares a node unreachable: every peer's pending and future
// sends toward it fail terminally (ErrPeerUnreachable / SendErrorUnreachable)
// instead of retransmitting forever, and symmetrically its own sends fail.
func (c *Cluster) expelNode(x *Node) {
	uid := x.m.UID()
	c.expelled[uid] = true
	delete(c.missingSince, uid)
	xid := c.knownIDs[uid]
	c.eng.Tracef("cluster", "node %s (id %d) declared unreachable", x.name, xid)
	for _, n := range c.nodes {
		if n == x {
			continue
		}
		n.setPeerUnreachable(xid)
		x.setPeerUnreachable(c.knownIDs[n.m.UID()])
	}
	if c.netwatch != nil {
		c.netwatch.NoteUnreachable()
	}
}

// readmitNode welcomes an expelled node back: the unreachable marks clear
// and the sequence streams between it and every peer reset in both
// directions — its terminal failures left gaps in the old streams, so
// first contact restarts each stream at sequence 1.
func (c *Cluster) readmitNode(x *Node) {
	uid := x.m.UID()
	delete(c.expelled, uid)
	xid := c.knownIDs[uid]
	c.eng.Tracef("cluster", "node %s (id %d) readmitted", x.name, xid)
	for _, n := range c.nodes {
		if n == x {
			continue
		}
		n.resetPeer(xid)
		x.resetPeer(c.knownIDs[n.m.UID()])
	}
	if c.netwatch != nil {
		c.netwatch.NoteReadmitted()
	}
}
