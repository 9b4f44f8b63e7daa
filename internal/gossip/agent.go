package gossip

import (
	"fmt"
	"sort"

	"repro/internal/gmproto"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Config tunes one membership agent. The defaults assume the simulated
// Myrinet's microsecond RTTs and the FTD's ~1.7 s (virtual) recovery: a
// recovering node is invisible to probes the whole time, so the suspicion
// timeout must comfortably outlast a recovery or the plane would expel
// nodes the FTD was about to bring back.
type Config struct {
	// ProbeInterval is the period of the probe round (one direct ping per
	// round, round-robin over the membership ring).
	ProbeInterval sim.Duration
	// ProbeTimeout is how long a ping may go unanswered before the probe
	// escalates to indirect ping-reqs, and the ping-reqs again before the
	// probe fails into suspicion.
	ProbeTimeout sim.Duration
	// IndirectProbes is how many relays a failed direct probe enlists.
	IndirectProbes int
	// SuspicionTimeout is how long a member stays suspect before the agent
	// moves to declare it dead. The suspect can refute at any point by
	// being heard (directly or through gossip) at a >= incarnation.
	SuspicionTimeout sim.Duration
	// ConfirmQuorum is how many distinct suspectors (the local agent plus
	// gossip-carried endorsements) a dead verdict needs. The requirement is
	// clamped to the members that could possibly endorse, so a two-node
	// cluster can still expel its only peer — and an isolated node, whose
	// suspicions nobody endorses, can never expel anyone.
	ConfirmQuorum int
	// DeadProbeInterval paces readmission probes of dead-marked members
	// (the gossip plane's analogue of the central watchdog's remap probes).
	// 0 disables them.
	DeadProbeInterval sim.Duration
	// MaxDeltas bounds the membership deltas piggybacked per datagram.
	MaxDeltas int
	// RetransmitMult scales each delta's dissemination budget
	// (RetransmitMult * ceil(log2(cluster size)) piggybacks per update).
	RetransmitMult int
}

// DefaultConfig returns the calibrated agent policy.
func DefaultConfig() Config {
	return Config{
		ProbeInterval:     50 * sim.Millisecond,
		ProbeTimeout:      500 * sim.Microsecond,
		IndirectProbes:    2,
		SuspicionTimeout:  3 * sim.Second,
		ConfirmQuorum:     2,
		DeadProbeInterval: 2 * sim.Second,
		MaxDeltas:         8,
		RetransmitMult:    3,
	}
}

func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = def.ProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = def.ProbeTimeout
	}
	if c.IndirectProbes < 0 {
		c.IndirectProbes = 0
	} else if c.IndirectProbes == 0 {
		c.IndirectProbes = def.IndirectProbes
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = def.SuspicionTimeout
	}
	if c.ConfirmQuorum <= 0 {
		c.ConfirmQuorum = def.ConfirmQuorum
	}
	if c.DeadProbeInterval < 0 {
		c.DeadProbeInterval = 0
	} else if c.DeadProbeInterval == 0 {
		c.DeadProbeInterval = def.DeadProbeInterval
	}
	if c.MaxDeltas <= 0 {
		c.MaxDeltas = def.MaxDeltas
	}
	if c.RetransmitMult <= 0 {
		c.RetransmitMult = def.RetransmitMult
	}
	return c
}

// Stats counts one agent's activity.
type Stats struct {
	ProbesSent       uint64 // direct pings launched
	AcksSent         uint64 // pings answered
	PingReqsSent     uint64 // indirect probes enlisted
	IndirectAcksSent uint64 // relayed acks forwarded
	Suspicions       uint64 // members this agent locally suspected
	PathSuspicions   uint64 // NET_FAULT_SUSPECTED reports fed in
	Refutations      uint64 // own-incarnation bumps against false suspicion
	DeadDeclared     uint64 // members marked dead (local verdicts + adopted)
	Readmissions     uint64 // dead members welcomed back
	DeltasCarried    uint64 // membership deltas piggybacked outbound
}

// String renders the counters compactly; shard-invariance fingerprints
// concatenate it per node.
func (s Stats) String() string {
	return fmt.Sprintf("probes=%d acks=%d pingreqs=%d iacks=%d susp=%d path=%d refute=%d dead=%d readmit=%d deltas=%d",
		s.ProbesSent, s.AcksSent, s.PingReqsSent, s.IndirectAcksSent,
		s.Suspicions, s.PathSuspicions, s.Refutations,
		s.DeadDeclared, s.Readmissions, s.DeltasCarried)
}

// Hooks are the agent's callbacks into the node it runs on. Both fire
// inside the node's own event domain and receive the agent's freshly
// recomputed local route table (live members only) — the cluster installs
// it into the driver/MCP and flips the peer's reachability, all node-local,
// which is what keeps the gossip plane bit-for-bit shard-invariant.
type Hooks struct {
	// Dead fires when a member is marked dead (local quorum verdict or an
	// adopted gossip verdict).
	Dead func(peer gmproto.NodeID, routes map[gmproto.NodeID][]byte)
	// Alive fires when a dead member is readmitted (heard again at a newer
	// incarnation).
	Alive func(peer gmproto.NodeID, routes map[gmproto.NodeID][]byte)
}

// member is one row of the replicated membership view.
type member struct {
	state       State
	inc         uint32
	suspectedAt sim.Time
	// endorsers are the distinct suspectors heard for the current
	// suspicion (this agent included when it suspects locally).
	endorsers map[gmproto.NodeID]bool
}

// update is one dissemination-queue entry: a delta with its remaining
// piggyback budget.
type update struct {
	d    Delta
	left int
}

// pathUpdate is a queued path-health suspicion with budget.
type pathUpdate struct {
	p    PathSuspicion
	left int
}

// pendingProbe is one in-flight probe awaiting its ack.
type pendingProbe struct {
	target   gmproto.NodeID
	indirect bool // already escalated to ping-reqs
	dead     bool // readmission probe of a dead member: no suspicion on failure
}

// relayEntry tracks a ping sent on a ping-req origin's behalf.
type relayEntry struct {
	origin  gmproto.NodeID
	origSeq uint32
	target  gmproto.NodeID
}

// Agent is one node's membership daemon. All methods run inside the node's
// event domain (simulation callbacks); the cluster feeds it received
// PTGossip payloads and NET_FAULT_SUSPECTED reports, and it speaks through
// the transport the cluster installs (raw source-routed datagrams).
type Agent struct {
	eng *sim.Engine
	cfg Config
	rng *sim.RNG

	self    gmproto.NodeID
	inc     uint32
	members map[gmproto.NodeID]*member
	ring    []gmproto.NodeID // sorted probe order, self excluded
	ringIdx int

	// anchor is the replicated link-state database: the boot map's
	// anchor-relative route to every member (nil for the anchor itself).
	// routeTo caches the spliced self-relative routes the agent sends on.
	anchor  map[gmproto.NodeID][]byte
	routeTo map[gmproto.NodeID][]byte

	send  func(route, payload []byte)
	hooks Hooks

	seq       uint32
	pending   map[uint32]*pendingProbe
	busy      map[gmproto.NodeID]bool // one in-flight probe per target
	relays    map[uint32]relayEntry
	updates   map[gmproto.NodeID]*update
	paths     map[gmproto.NodeID]*pathUpdate
	deadProbe bool // a readmission-probe sweep is scheduled

	started bool
	stopped bool
	stats   Stats

	// Speculation journaling (gossip spec.go).
	specMark uint64
	shadow   agentShadow
}

// New builds an agent on the node's event domain. The seed must be a pure
// function of (cluster seed, node index) so a gossip cluster stays
// deterministic at every shard count; the agent forks nothing from the
// domain's own generator.
func New(eng *sim.Engine, cfg Config, seed uint64) *Agent {
	return &Agent{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		rng:     sim.NewRNG(seed),
		members: make(map[gmproto.NodeID]*member),
		anchor:  make(map[gmproto.NodeID][]byte),
		routeTo: make(map[gmproto.NodeID][]byte),
		pending: make(map[uint32]*pendingProbe),
		busy:    make(map[gmproto.NodeID]bool),
		relays:  make(map[uint32]relayEntry),
		updates: make(map[gmproto.NodeID]*update),
		paths:   make(map[gmproto.NodeID]*pathUpdate),
	}
}

// SetTransport installs the datagram sender (the cluster wires it to the
// MCP's RawTransmit).
func (a *Agent) SetTransport(send func(route, payload []byte)) { a.send = send }

// SetHooks installs the membership-change callbacks.
func (a *Agent) SetHooks(h Hooks) { a.hooks = h }

// SeedView replicates the boot map into the agent: its own identity, the
// full member list, and the anchor-relative route database every member
// computes its local tables from. Call before Start.
func (a *Agent) SeedView(self gmproto.NodeID, members []gmproto.NodeID, anchor map[gmproto.NodeID][]byte) {
	a.self = self
	for _, id := range members {
		a.members[id] = &member{state: StateAlive}
		if id != self {
			a.ring = append(a.ring, id)
		}
	}
	sort.Slice(a.ring, func(i, j int) bool { return a.ring[i] < a.ring[j] })
	for id, r := range anchor {
		a.anchor[id] = append([]byte(nil), r...)
	}
	for _, id := range a.ring {
		if r, err := routing.SpliceRoute(a.anchor[self], a.anchor[id]); err == nil {
			a.routeTo[id] = r
		}
	}
}

// Start arms the probe loop, staggered by a seed-derived jitter so the
// cluster's agents don't tick in lockstep.
func (a *Agent) Start() {
	if a.started || len(a.ring) == 0 {
		return
	}
	a.specTouch()
	a.started = true
	a.eng.AfterLabel(a.rng.Duration(a.cfg.ProbeInterval), "gossip-round", a.tick)
}

// Stop quiesces the agent: timers still fire but do nothing.
func (a *Agent) Stop() {
	a.specTouch()
	a.stopped = true
}

// Stats returns a snapshot of the agent's counters.
func (a *Agent) Stats() Stats { return a.stats }

// Members snapshots the agent's membership view (self excluded).
func (a *Agent) Members() map[gmproto.NodeID]State {
	out := make(map[gmproto.NodeID]State, len(a.members))
	for id, m := range a.members {
		if id != a.self {
			out[id] = m.state
		}
	}
	return out
}

// RouteTable computes the node's current local route table: a spliced
// route to every non-dead member. Suspicion is not expulsion — a suspect
// keeps its route until the quorum verdict lands.
func (a *Agent) RouteTable() map[gmproto.NodeID][]byte {
	live := make([]gmproto.NodeID, 0, len(a.members))
	for id, m := range a.members {
		if m.state != StateDead {
			live = append(live, id)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	return routing.TableFor(a.self, live, a.anchor)
}

// SuspectPath feeds one NET_FAULT_SUSPECTED report (the node's reliable
// streams toward about are stalling) into the plane: the agent probes the
// peer out of round immediately and gossips the path suspicion so other
// members verify too — the central plane's debounced remap becomes a
// cluster-wide burst of targeted probes.
func (a *Agent) SuspectPath(about gmproto.NodeID) {
	if a.stopped || about == a.self {
		return
	}
	m := a.members[about]
	if m == nil || m.state == StateDead {
		return
	}
	a.specTouch()
	a.stats.PathSuspicions++
	a.paths[about] = &pathUpdate{p: PathSuspicion{From: a.self, About: about}, left: a.cfg.RetransmitMult}
	a.probe(about, false)
}

// --- probe loop ---

func (a *Agent) tick() {
	if a.stopped {
		return
	}
	a.specTouch()
	// Round-robin over the ring, skipping dead members and targets with a
	// probe already in flight.
	for i := 0; i < len(a.ring); i++ {
		id := a.ring[a.ringIdx%len(a.ring)]
		a.ringIdx++
		m := a.members[id]
		if m.state == StateDead || a.busy[id] {
			continue
		}
		a.probe(id, false)
		break
	}
	a.eng.AfterLabel(a.cfg.ProbeInterval+a.rng.Duration(a.cfg.ProbeInterval/4), "gossip-round", a.tick)
}

// probe launches one direct ping (dead=true for readmission probes, which
// do not raise suspicion when they fail).
func (a *Agent) probe(target gmproto.NodeID, dead bool) {
	if a.busy[target] {
		return
	}
	a.seq++
	s := a.seq
	a.pending[s] = &pendingProbe{target: target, dead: dead}
	a.busy[target] = true
	a.stats.ProbesSent++
	a.sendTo(target, &Message{Type: MsgPing, Seq: s})
	a.eng.AfterLabel(a.cfg.ProbeTimeout, "gossip-probe-timeout", func() { a.probeTimeout(s) })
}

func (a *Agent) probeTimeout(s uint32) {
	p := a.pending[s]
	if p == nil || a.stopped {
		return
	}
	a.specTouch()
	if !p.indirect && !p.dead && a.cfg.IndirectProbes > 0 {
		// Escalate: ask the next live ring members to probe on our behalf
		// (one bad path must not condemn a live peer).
		relays := a.pickRelays(p.target)
		if len(relays) > 0 {
			p.indirect = true
			for _, r := range relays {
				a.stats.PingReqsSent++
				a.sendTo(r, &Message{Type: MsgPingReq, Target: p.target, Seq: s})
			}
			a.eng.AfterLabel(2*a.cfg.ProbeTimeout, "gossip-probe-timeout", func() { a.probeTimeout(s) })
			return
		}
	}
	delete(a.pending, s)
	delete(a.busy, p.target)
	if !p.dead {
		a.suspectLocal(p.target)
	}
}

// pickRelays returns up to IndirectProbes live members other than target.
func (a *Agent) pickRelays(target gmproto.NodeID) []gmproto.NodeID {
	var out []gmproto.NodeID
	for _, id := range a.ring {
		if id == target || a.members[id].state == StateDead {
			continue
		}
		out = append(out, id)
		if len(out) >= a.cfg.IndirectProbes {
			break
		}
	}
	return out
}

// --- suspicion / agreement / verdicts ---

// suspectLocal records a failed probe: alive -> suspect with this agent as
// the first endorser, and the suspicion gossiped with its origin attached.
func (a *Agent) suspectLocal(target gmproto.NodeID) {
	m := a.members[target]
	if m == nil || m.state == StateDead {
		return
	}
	if m.state == StateAlive {
		m.state = StateSuspect
		m.suspectedAt = a.eng.Now()
		m.endorsers = map[gmproto.NodeID]bool{a.self: true}
		a.stats.Suspicions++
		a.enqueue(Delta{Node: target, From: a.self, Inc: m.inc, State: StateSuspect})
		a.armSuspicionCheck(target)
		return
	}
	m.endorsers[a.self] = true
}

func (a *Agent) armSuspicionCheck(target gmproto.NodeID) {
	a.eng.AfterLabel(a.cfg.SuspicionTimeout, "gossip-suspicion", func() { a.checkSuspicion(target) })
}

// checkSuspicion decides a suspect's fate at timeout: enough distinct
// endorsers and it is declared dead; otherwise the agent keeps campaigning
// (re-gossips the suspicion) and re-arms. An isolated agent — nobody
// endorses its suspicions — can never expel a peer this way.
func (a *Agent) checkSuspicion(target gmproto.NodeID) {
	if a.stopped {
		return
	}
	a.specTouch()
	m := a.members[target]
	if m == nil || m.state != StateSuspect {
		return
	}
	if a.eng.Now()-m.suspectedAt < a.cfg.SuspicionTimeout {
		// Refuted and re-suspected since; the newer check is armed.
		return
	}
	// Quorum: distinct suspectors, clamped to those who could endorse
	// (this agent plus every non-dead member that is not the accused).
	possible := 1
	for id, mm := range a.members {
		if id != a.self && id != target && mm.state != StateDead {
			possible++
		}
	}
	needed := a.cfg.ConfirmQuorum
	if needed > possible {
		needed = possible
	}
	if len(m.endorsers) >= needed {
		a.markDead(target, m.inc)
		return
	}
	a.enqueue(Delta{Node: target, From: a.self, Inc: m.inc, State: StateSuspect})
	a.armSuspicionCheck(target)
}

func (a *Agent) markDead(x gmproto.NodeID, inc uint32) {
	m := a.members[x]
	if m == nil || m.state == StateDead {
		return
	}
	m.state = StateDead
	m.inc = inc
	m.endorsers = nil
	a.stats.DeadDeclared++
	a.eng.Tracef("gossip", "node %d: member %d declared dead (inc %d)", a.self, x, inc)
	a.enqueue(Delta{Node: x, From: a.self, Inc: inc, State: StateDead})
	if a.hooks.Dead != nil {
		a.hooks.Dead(x, a.RouteTable())
	}
	a.scheduleDeadProbe()
}

func (a *Agent) readmit(x gmproto.NodeID, inc uint32) {
	m := a.members[x]
	if m == nil || m.state != StateDead {
		return
	}
	m.state = StateAlive
	m.inc = inc
	a.stats.Readmissions++
	a.eng.Tracef("gossip", "node %d: member %d readmitted (inc %d)", a.self, x, inc)
	a.enqueue(Delta{Node: x, From: a.self, Inc: inc, State: StateAlive})
	if a.hooks.Alive != nil {
		a.hooks.Alive(x, a.RouteTable())
	}
}

// clearSuspicion returns a suspect to alive at incarnation inc.
func (a *Agent) clearSuspicion(x gmproto.NodeID, inc uint32) {
	m := a.members[x]
	if m == nil || m.state != StateSuspect {
		return
	}
	m.state = StateAlive
	m.inc = inc
	m.endorsers = nil
}

// scheduleDeadProbe arms the readmission sweep while any member is dead.
func (a *Agent) scheduleDeadProbe() {
	if a.cfg.DeadProbeInterval <= 0 || a.deadProbe {
		return
	}
	a.deadProbe = true
	a.eng.AfterLabel(a.cfg.DeadProbeInterval, "gossip-dead-probe", func() {
		a.specTouch()
		a.deadProbe = false
		if a.stopped {
			return
		}
		anyDead := false
		for _, id := range a.ring {
			if a.members[id].state != StateDead {
				continue
			}
			anyDead = true
			a.probe(id, true)
		}
		if anyDead {
			a.scheduleDeadProbe()
		}
	})
}

// --- wire in/out ---

// HandlePacket ingests one received PTGossip payload (the MCP's gossip
// sink). Everything kept is copied out before return.
func (a *Agent) HandlePacket(payload []byte) {
	if a.stopped {
		return
	}
	msg, err := Decode(payload)
	if err != nil {
		return
	}
	a.specTouch()
	a.heardFrom(msg.From, msg.FromInc)
	for _, d := range msg.Deltas {
		a.applyDelta(d)
	}
	for _, p := range msg.Paths {
		a.applyPath(p)
	}
	switch msg.Type {
	case MsgPing:
		a.stats.AcksSent++
		a.sendTo(msg.From, &Message{Type: MsgAck, Target: a.self, Seq: msg.Seq})
	case MsgAck:
		if r, ok := a.relays[msg.Seq]; ok && r.target == msg.From {
			// A relayed ping came back: forward the ack to the origin.
			delete(a.relays, msg.Seq)
			a.stats.IndirectAcksSent++
			a.sendTo(r.origin, &Message{Type: MsgIndirectAck, Target: msg.From, Seq: r.origSeq})
			return
		}
		if p, ok := a.pending[msg.Seq]; ok && p.target == msg.From {
			delete(a.pending, msg.Seq)
			delete(a.busy, p.target)
		}
	case MsgIndirectAck:
		if p, ok := a.pending[msg.Seq]; ok && p.target == msg.Target {
			delete(a.pending, msg.Seq)
			delete(a.busy, p.target)
		}
	case MsgPingReq:
		if msg.Target == a.self || a.members[msg.Target] == nil {
			return
		}
		a.seq++
		rseq := a.seq
		a.relays[rseq] = relayEntry{origin: msg.From, origSeq: msg.Seq, target: msg.Target}
		a.sendTo(msg.Target, &Message{Type: MsgPing, Seq: rseq})
		a.eng.AfterLabel(2*a.cfg.ProbeTimeout, "gossip-relay-gc", func() {
			a.specTouch()
			delete(a.relays, rseq)
		})
	}
}

// heardFrom processes the implicit aliveness of a datagram's sender.
func (a *Agent) heardFrom(f gmproto.NodeID, inc uint32) {
	if f == a.self {
		return
	}
	m := a.members[f]
	if m == nil {
		return // not a member of this cluster's boot map
	}
	switch m.state {
	case StateDead:
		if inc > m.inc {
			a.readmit(f, inc)
		} else {
			// A zombie: keep the verdict flowing back so it learns it was
			// declared dead and refutes with a fresh incarnation.
			a.enqueue(Delta{Node: f, From: a.self, Inc: m.inc, State: StateDead})
		}
	case StateSuspect:
		if inc >= m.inc {
			// Direct contact refutes: gossip the rescue at its incarnation.
			a.clearSuspicion(f, inc)
			a.enqueue(Delta{Node: f, From: a.self, Inc: inc, State: StateAlive})
		}
	default:
		if inc > m.inc {
			m.inc = inc
		}
	}
}

// applyDelta merges one piggybacked membership update into the view, with
// SWIM's override order: alive(i) beats suspect/dead(j) iff i > j;
// suspect(i) beats alive(j) iff i >= j; dead(i) beats anything iff i >= j.
func (a *Agent) applyDelta(d Delta) {
	if d.Node == a.self {
		// Somebody thinks we are suspect or dead: refute by outbidding the
		// accusation's incarnation.
		if d.State != StateAlive && d.Inc >= a.inc {
			a.inc = d.Inc + 1
			a.stats.Refutations++
			a.enqueue(Delta{Node: a.self, From: a.self, Inc: a.inc, State: StateAlive})
		}
		return
	}
	m := a.members[d.Node]
	if m == nil {
		return
	}
	switch d.State {
	case StateAlive:
		if d.Inc <= m.inc {
			return
		}
		switch m.state {
		case StateDead:
			a.readmit(d.Node, d.Inc)
		case StateSuspect:
			a.clearSuspicion(d.Node, d.Inc)
			a.enqueue(d)
		default:
			m.inc = d.Inc
		}
	case StateSuspect:
		if m.state == StateDead || d.Inc < m.inc {
			return
		}
		if m.state == StateAlive {
			m.state = StateSuspect
			m.inc = d.Inc
			m.suspectedAt = a.eng.Now()
			m.endorsers = map[gmproto.NodeID]bool{d.From: true}
			a.enqueue(d)
			a.armSuspicionCheck(d.Node)
			// Verify for ourselves: our own failed probe adds this agent to
			// the endorser set, a successful one refutes cluster-wide.
			a.probe(d.Node, false)
			return
		}
		if !m.endorsers[d.From] {
			m.endorsers[d.From] = true
			a.enqueue(d)
		}
		if d.Inc > m.inc {
			m.inc = d.Inc
		}
	case StateDead:
		if m.state == StateDead || d.Inc < m.inc {
			return
		}
		// A peer's quorum already confirmed this death; adopt it.
		a.enqueue(d)
		a.markDead(d.Node, d.Inc)
	}
}

// applyPath reacts to a gossiped path suspicion: verify the accused peer
// with an out-of-round probe. Path reports are evidence about the fabric,
// not votes about the member, so they are not re-relayed here — the origin
// keeps gossiping its own report while the fault persists.
func (a *Agent) applyPath(p PathSuspicion) {
	if p.About == a.self || p.From == a.self {
		return
	}
	m := a.members[p.About]
	if m == nil || m.state == StateDead {
		return
	}
	a.probe(p.About, false)
}

// sendTo routes and transmits one datagram, attaching the dissemination
// payload.
func (a *Agent) sendTo(to gmproto.NodeID, msg *Message) {
	if a.send == nil {
		return
	}
	route, ok := a.routeTo[to]
	if !ok {
		return
	}
	msg.From = a.self
	msg.FromInc = a.inc
	msg.Deltas = a.takeDeltas()
	msg.Paths = a.takePaths()
	a.stats.DeltasCarried += uint64(len(msg.Deltas))
	a.send(route, msg.Encode())
}

// enqueue (re)queues a delta for dissemination with a fresh budget of
// RetransmitMult * ceil(log2(n)) piggybacks.
func (a *Agent) enqueue(d Delta) {
	budget := a.cfg.RetransmitMult * log2ceil(len(a.members))
	if budget < 1 {
		budget = 1
	}
	a.updates[d.Node] = &update{d: d, left: budget}
}

// takeDeltas drains up to MaxDeltas queued updates in node order.
func (a *Agent) takeDeltas() []Delta {
	if len(a.updates) == 0 {
		return nil
	}
	keys := make([]gmproto.NodeID, 0, len(a.updates))
	for id := range a.updates {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []Delta
	for _, id := range keys {
		if len(out) >= a.cfg.MaxDeltas {
			break
		}
		u := a.updates[id]
		out = append(out, u.d)
		u.left--
		if u.left <= 0 {
			delete(a.updates, id)
		}
	}
	return out
}

// takePaths drains queued path suspicions (same budgeting as deltas).
func (a *Agent) takePaths() []PathSuspicion {
	if len(a.paths) == 0 {
		return nil
	}
	keys := make([]gmproto.NodeID, 0, len(a.paths))
	for id := range a.paths {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []PathSuspicion
	for _, id := range keys {
		u := a.paths[id]
		out = append(out, u.p)
		u.left--
		if u.left <= 0 {
			delete(a.paths, id)
		}
	}
	return out
}

func log2ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v *= 2
		k++
	}
	return k
}
