package chaos

import (
	"bytes"
	"fmt"

	"repro/gm"
	"repro/internal/ckpt"
	"repro/internal/fabric"
	"repro/internal/gossip"
	"repro/internal/sim"
)

// The ACK hunt of hang, the drain hunt of huntBoundary, and the checkpoint
// cadence and drain budget of a KindPeriodicDeath victim.
const (
	ackHuntStep      = 500 * sim.Nanosecond
	ackHuntWindow    = 10 * sim.Millisecond
	drainHuntStep    = 50 * sim.Microsecond
	drainHuntWindow  = 20 * sim.Millisecond
	periodicInterval = 500 * sim.Microsecond
	periodicBudget   = 200 * sim.Microsecond
)

// kindRow is one fault class: the name EventKind.String prints and the
// injector that runs at the event's instant.
type kindRow struct {
	name   string
	inject func(t *trial, ev Event)
}

// faultKinds is the fault-class table, indexed by EventKind: a new class is
// one constant and one row.
var faultKinds = [...]kindRow{
	KindHang: {"hang", func(t *trial, ev Event) { t.hang(ev.Node) }},
	KindDualHang: {"dual-hang", func(t *trial, ev Event) {
		t.hang(ev.Node)
		t.hang(ev.Node2)
	}},
	KindHangDuringRecovery: {"hang-during-recovery", (*trial).hangDuringRecovery},
	KindLinkFlap: {"link-flap", func(t *trial, ev Event) {
		t.flap(t.nodes[ev.Node].Link(), ev.Window)
	}},
	KindLinkDegrade: {"link-degrade", func(t *trial, ev Event) {
		l := t.nodes[ev.Node].Link()
		l.SetFaults(ev.Profile, ev.Seed)
		t.cl.After(ev.Window, func() { l.SetFaults(fabric.FaultProfile{}, 0) })
	}},
	KindPortDeath: {"port-death", func(t *trial, ev Event) {
		// BuildDualSwitch deals the nodes alternately across its switches.
		s, p := t.switches[0], ev.Node
		if t.tcfg.DualSwitch {
			s, p = t.switches[ev.Node%2], ev.Node/2
		}
		s.SetPortDead(p, true)
		t.cl.After(ev.Window, func() { s.SetPortDead(p, false) })
	}},
	KindReloadFailure: {"reload-failure", func(t *trial, ev Event) {
		if t.mode == gm.ModeFTGM {
			// Only the FTD has a reload-retry path; the naive baseline
			// would simply never come back.
			t.nodes[ev.Node].Driver().SetMCPLoadFailures(ev.Failures)
		}
		t.hang(ev.Node)
	}},
	KindTrunkDeath: {"trunk-death", (*trial).killTrunk},
	KindPartition: {"partition", func(t *trial, ev Event) {
		t.nodes[ev.Node].Link().SetUp(false)
	}},
	KindMapperDeath: {"mapper-death", func(t *trial, ev Event) {
		// A hard hang cancels the chip's timers: the FTD's watchdog never
		// fires and nothing reloads the node. The schemes are judged on
		// what they do for the survivors.
		t.midRemap(ev, func() {
			t.aud.ExcuseSource(t.nodes[ev.Node].ID())
			t.nodes[ev.Node].InjectHardHang()
		})
	}},
	KindHostDeath: {"host-death", func(t *trial, ev Event) {
		t.killAndRevive(ev.Node, ev.Window, false)
	}},
	KindMapperRebirth: {"mapper-rebirth", func(t *trial, ev Event) {
		t.midRemap(ev, func() { t.killAndRevive(ev.Node, ev.Revive, true) })
	}},
	KindPeriodicDeath: {"periodic-ckpt", func(t *trial, ev Event) {
		t.killFromChain(ev.Node, ev.Window)
	}},
}

// row returns k's table row; a kind outside the table has an empty one.
func (k EventKind) row() kindRow {
	if k < 0 || int(k) >= len(faultKinds) {
		return kindRow{}
	}
	return faultKinds[k]
}

// trial is one chaos trial: a booted cluster under audited all-to-all
// traffic that runs one fault schedule and is then harvested. RunTrial is
// newTrial, run(PlanEvents(...)), harvest; any other schedule runs the same
// way.
type trial struct {
	tcfg     TrialConfig
	mode     gm.Mode
	cl       *gm.Cluster
	nodes    []*gm.Node
	switches []*gm.Switch // the crossbar, or the dual-switch pair S1, S2
	trunks   []*fabric.Link
	aud      *Auditor
	ports    []*portCell
	// chains holds the frames each KindPeriodicDeath victim has shipped.
	chains map[int]*ckptChain
	// rng has drawn the cluster seed and nothing else: PlanEvents draws
	// the trial's plan from the rest.
	rng         *sim.RNG
	start, stop sim.Time // the traffic window
	res         TrialResult
}

// newTrial builds and boots the cluster, opens every node's audited port
// with its receive buffers, and starts the traffic pumps.
func newTrial(seed uint64, index int, mode gm.Mode, tcfg TrialConfig) (*trial, error) {
	tcfg = tcfg.withDefaults()
	t := &trial{
		tcfg:   tcfg,
		mode:   mode,
		aud:    NewAuditor(),
		chains: make(map[int]*ckptChain),
		rng:    sim.DeriveRNG(seed, uint64(index)),
		res:    TrialResult{Trial: index},
	}
	gcfg := gm.DefaultConfig(mode)
	gcfg.Seed = t.rng.Uint64() | 1
	gcfg.Host.SendTokens = tcfg.SendTokens
	// Deep outages queue thousands of shadow tokens; keep the handler's
	// per-token cost from dominating the recovery (as the availability
	// mission does).
	gcfg.Host.RecoveryPerToken = 0
	gcfg.NetWatch.Enabled = tcfg.NetWatch
	gcfg.ControlPlane = tcfg.ControlPlane
	gcfg.Shards = tcfg.Shards
	gcfg.Speculate = tcfg.Speculate
	t.cl = gm.NewCluster(gcfg)
	if err := t.cable(); err != nil {
		return nil, err
	}
	if _, err := t.cl.Boot(); err != nil {
		return nil, fmt.Errorf("chaos: boot: %w", err)
	}
	t.ports = make([]*portCell, tcfg.Nodes)
	for i, n := range t.nodes {
		p, err := n.OpenPort(tcfg.Port)
		if err != nil {
			return nil, err
		}
		t.ports[i] = &portCell{eng: n.Engine(), p: p}
		t.attach(n, p)
		for j := 0; j < 512; j++ {
			if err := p.ProvideReceiveBuffer(uint32(tcfg.MsgBytes), gm.PriorityLow); err != nil {
				return nil, err
			}
		}
	}
	t.start = t.cl.Now()
	t.stop = t.start + tcfg.Traffic
	for i := range t.nodes {
		t.startPump(i)
	}
	return t, nil
}

// cable builds the topology: one crossbar with node i on port i, or the
// redundant two-switch fabric of gm.BuildDualSwitch.
func (t *trial) cable() error {
	if t.tcfg.DualSwitch {
		d, err := gm.BuildDualSwitch(t.cl, t.tcfg.Nodes, t.tcfg.Trunks)
		if err != nil {
			return err
		}
		t.nodes, t.trunks = d.Nodes, d.Trunks
		t.switches = []*gm.Switch{d.S1, d.S2}
		return nil
	}
	t.nodes = make([]*gm.Node, t.tcfg.Nodes)
	for i := range t.nodes {
		t.nodes[i] = t.cl.AddNode(fmt.Sprintf("n%d", i))
	}
	sw := t.cl.AddSwitch("sw")
	for i, n := range t.nodes {
		if err := t.cl.Connect(n, sw, i); err != nil {
			return err
		}
	}
	t.switches = []*gm.Switch{sw}
	return nil
}

// attach wires the audited receive handler onto a port (at open, and again
// onto every revive-rebuilt handle). The handler runs on the receiver's own
// domain; with speculation armed it decodes in place — the buffer is
// recycled the moment the handler returns — and defers the accounting
// through the journaled control queue, so a delivery executed in a
// rolled-back span is never counted (the replay re-issues it). Without
// speculation the historical inline path is kept, bit for bit.
func (t *trial) attach(n *gm.Node, p *gm.Port) {
	self, eng := n.ID(), n.Engine()
	p.SetReceiveHandler(func(ev gm.RecvEvent) {
		if t.tcfg.Speculate {
			rec := DecodeDelivery(self, t.tcfg.Port, ev)
			eng.Control(func() { t.aud.CommitDelivery(rec) })
		} else {
			t.aud.RecordDelivery(self, t.tcfg.Port, ev)
		}
		_ = p.RecycleReceiveBuffer(ev.Data, gm.PriorityLow)
	})
}

// startPump starts node i's traffic: one send every SendEvery to the other
// nodes round-robin, staggered so the pumps don't tick in lockstep. The
// port is read through its cell on every tick: a host-death restore swaps
// in a rebuilt handle, and the pump must follow it (the old handle is
// permanently closed).
func (t *trial) startPump(i int) {
	src := t.nodes[i]
	turn := 0
	var pump func()
	pump = func() {
		if t.cl.Now() >= t.stop {
			return
		}
		dst := t.nodes[(i+1+turn%(t.tcfg.Nodes-1))%t.tcfg.Nodes]
		turn++
		key := StreamKey{Src: src.ID(), SrcPort: t.tcfg.Port, Dst: dst.ID(), DstPort: t.tcfg.Port}
		buf := t.aud.NewMessage(key, t.tcfg.MsgBytes)
		var cb gm.SendCallback
		if t.tcfg.DualSwitch || t.tcfg.NetWatch || t.tcfg.ControlPlane == gm.ControlPlaneGossip {
			// Network-fault trials can fail sends terminally (expelled
			// peers); the auditor excuses what the library disowned.
			// Single-switch trials keep the historical nil callback so
			// their accounting is bit-identical to earlier campaigns.
			// The callback runs on the sender's domain; a speculating
			// trial defers the accounting past the span (buf is
			// app-owned and immutable, so the decode can wait too).
			eng := src.Engine()
			cb = func(st gm.SendStatus) {
				if st != gm.SendOK {
					if t.tcfg.Speculate {
						eng.Control(func() { t.aud.RecordSendFailure(buf) })
					} else {
						t.aud.RecordSendFailure(buf)
					}
				}
			}
		}
		if err := t.ports[i].p.Send(dst.ID(), t.tcfg.Port, gm.PriorityLow, buf, cb); err != nil {
			t.aud.Unsend(key)
		}
		t.cl.After(t.tcfg.SendEvery, pump)
	}
	t.cl.After(sim.Duration(i+1)*37*sim.Microsecond, pump)
}

// run injects schedule into the trial's traffic window and drains: the
// periodic checkpointers its KindPeriodicDeath victims need start first,
// then every event's injector is scheduled at its instant. A kind outside
// the table injects nothing.
func (t *trial) run(schedule []Event) {
	for _, ev := range schedule {
		if ev.Kind == KindPeriodicDeath {
			t.startPeriodic(ev.Node)
		}
	}
	for _, ev := range schedule {
		if inject := ev.Kind.row().inject; inject != nil {
			t.cl.At(ev.At, func() { inject(t, ev) })
		}
	}
	t.res.Events = schedule
	t.cl.RunUntil(t.stop)
	// Drain: recoveries and Go-Back-N repair run until the auditor sees
	// every send delivered, or the settle budget runs out (a broken scheme
	// never drains — that is the finding, not an error). A rebirth trial
	// can satisfy the auditor while the revived node's own agent is still
	// mid-readmission of the peers it buried during its death, so the loop
	// also waits for membership agreement to settle (for a genuinely
	// partitioned live node, running out of budget is again the finding).
	deadline := t.stop + t.tcfg.MaxSettle
	for !t.settled() && t.cl.Now() < deadline {
		t.cl.Run(t.tcfg.SettleStep)
	}
}

// settled reports whether every send is delivered or excused and the
// gossip views have converged.
func (t *trial) settled() bool {
	if !t.aud.Complete() {
		return false
	}
	expelled, gaps := t.gossipDefects()
	return expelled == 0 && gaps == 0
}

// gossipDefects judges the membership views over the nodes still running:
// liveExpelled counts live peers a live node's agent holds dead, routeGaps
// live peers missing from a live node's installed route table. Both are
// zero without a gossip plane, and both zero is convergence.
func (t *trial) gossipDefects() (liveExpelled, routeGaps uint64) {
	for i, ag := range t.cl.GossipAgents() {
		if !t.nodes[i].Running() {
			continue // a dead node's view judges nothing
		}
		view := ag.Members()
		routes := t.nodes[i].Driver().Routes()
		for j, peer := range t.nodes {
			if j == i || !peer.Running() {
				continue
			}
			if view[peer.ID()] == gossip.StateDead {
				liveExpelled++
			}
			if _, ok := routes[peer.ID()]; !ok {
				routeGaps++
			}
		}
	}
	return liveExpelled, routeGaps
}

// poll runs check now and then every step of virtual time until check
// reports that polling is over: its condition held and was acted on, or the
// fault folded away.
func (t *trial) poll(step sim.Duration, check func() (over bool)) {
	var tick func()
	tick = func() {
		if !check() {
			t.cl.After(step, tick)
		}
	}
	tick()
}

// doHang hangs node i's running processor right now; in GM mode an
// external watchdog notices after NaiveDetection and performs the paper's
// §3 baseline restart (stock GM itself would just stay down forever).
func (t *trial) doHang(i int) {
	n := t.nodes[i]
	n.InjectHang()
	if t.mode != gm.ModeFTGM {
		t.cl.After(t.tcfg.NaiveDetection, func() {
			if !n.Running() {
				n.NaiveRestart(nil)
			}
		})
	}
}

// hang arms a processor hang on the node's next transmitted ACK: it polls
// the node's AcksSent counter every ackHuntStep and fires on the first
// increment, or anyway after ackHuntWindow of silence. That is the
// adversarial instant of Figure 5: stock GM has ACKed arrival but not yet
// committed the message to host memory, so the message is lost; FTGM's
// delayed ACK (§4.1) makes the same timing a mere retransmission.
func (t *trial) hang(i int) {
	n := t.nodes[i]
	base := n.MCPStats().AcksSent
	deadline := t.cl.Now() + ackHuntWindow
	t.poll(ackHuntStep, func() bool {
		if !n.Running() {
			return true // already hung or mid-reload; the fault folds in
		}
		if n.MCPStats().AcksSent == base && t.cl.Now() < deadline {
			return false
		}
		t.doHang(i)
		return true
	})
}

// hangDuringRecovery injects KindHangDuringRecovery: the second hang waits
// for the first to land and then for the reloaded MCP to run again.
func (t *trial) hangDuringRecovery(ev Event) {
	t.hang(ev.Node)
	n, landed := t.nodes[ev.Node], false
	t.cl.After(sim.Millisecond, func() {
		t.poll(sim.Millisecond, func() bool {
			landed = landed || !n.Running()
			if !landed || !n.Running() {
				return false
			}
			t.doHang(ev.Node)
			return true
		})
	})
}

// flap cuts a cable now and raises it after window.
func (t *trial) flap(l *fabric.Link, window sim.Duration) {
	l.SetUp(false)
	t.cl.After(window, func() { l.SetUp(true) })
}

// midRemap flaps the cable of the event's Node2 to open an active remap
// window, and runs die on the mapping node halfway through it.
func (t *trial) midRemap(ev Event, die func()) {
	t.flap(t.nodes[ev.Node2].Link(), ev.Window)
	t.cl.After(ev.Window/2, die)
}

// killTrunk injects KindTrunkDeath. Severing the last live trunk would be
// a full partition of half the cluster, not an alternate-route scenario.
func (t *trial) killTrunk(ev Event) {
	if ev.Node >= len(t.trunks) {
		return
	}
	live := 0
	for _, l := range t.trunks {
		if l.Up() {
			live++
		}
	}
	if l := t.trunks[ev.Node]; l.Up() && live > 1 {
		l.SetUp(false)
	}
}

// huntBoundary is a host death's drain protocol: it polls node i every
// drainHuntStep for a message boundary at which ready also holds, and runs
// kill there. A node already hung or dead folds the fault in. If no such
// instant comes within drainHuntWindow the kill is skipped — under heavy
// compound faults a boundary may never come, and a skipped kill is a valid
// plan, not an error. A recovery in flight is no boundary and can outlast
// the window, so it restarts the window.
func (t *trial) huntBoundary(i int, ready func() bool, kill func()) {
	n := t.nodes[i]
	deadline := t.cl.Now() + drainHuntWindow
	t.poll(drainHuntStep, func() bool {
		if !n.Running() || n.Dead() {
			return true
		}
		if n.Drained() && ready() {
			kill()
			return true
		}
		if n.Recovering() {
			deadline = t.cl.Now() + drainHuntWindow
		}
		return t.cl.Now() >= deadline
	})
}

// killAndRevive injects KindHostDeath, or with rejoin KindMapperRebirth's
// death. The checkpoint goes through the versioned wire codec, so the
// revive consumes exactly the bytes a standby host would hold.
func (t *trial) killAndRevive(i int, delay sim.Duration, rejoin bool) {
	n := t.nodes[i]
	t.huntBoundary(i, func() bool { return true }, func() {
		ck, err := n.Checkpoint()
		if err != nil {
			return
		}
		enc := ck.Encode()
		dec, err := ckpt.Decode(enc)
		if err != nil {
			return
		}
		t.res.Checkpoints++
		t.res.CheckpointBytes += uint64(len(enc))
		if rejoin {
			// Rejoin disowns the checkpointed in-flight sends by design:
			// the peers reset the streams when they expelled the victim.
			t.aud.ExcuseSource(n.ID())
		}
		n.Kill()
		t.revive(i, delay, dec, rejoin)
	})
}

// ckptChain is the frames a periodic checkpointer has shipped: the latest
// base and the deltas since.
type ckptChain struct {
	base   []byte
	deltas [][]byte
}

// startPeriodic runs node i's incremental checkpointer for the whole trial,
// shipping its frames into the trial's chain for the node. The sink runs
// on the victim's own domain (conservatively, or at barrier commit under
// speculation), so the appends follow the auditor idiom — deferred through
// the journaled control queue when speculating, inline otherwise. Frames
// for one node commit oldest-first, so chain order is the emission order
// either way.
func (t *trial) startPeriodic(i int) {
	if _, ok := t.chains[i]; ok {
		return
	}
	ch := &ckptChain{}
	t.chains[i] = ch
	n := t.nodes[i]
	eng := n.Engine()
	sink := func(f gm.PeriodicFrame) {
		// Bytes are only valid during the call; the chain owns a copy.
		b := append([]byte(nil), f.Bytes...)
		rec := func() {
			if f.Kind == gm.FrameBase {
				ch.base = b
				ch.deltas = ch.deltas[:0]
			} else {
				ch.deltas = append(ch.deltas, b)
			}
			t.res.PeriodicFrames++
			t.res.PeriodicBytes += uint64(len(b))
		}
		if t.tcfg.Speculate {
			eng.Control(rec)
		} else {
			rec()
		}
	}
	t.cl.After(sim.Microsecond, func() {
		if n.Running() && !n.Dead() {
			_ = n.StartPeriodicCheckpoint(periodicInterval, periodicBudget, sink)
		}
	})
}

// killFromChain injects KindPeriodicDeath, the incremental-checkpoint
// variant of killAndRevive: its boundary must also find the shipped chain
// caught up with the checkpointer (every emitted frame landed in the
// trial's copy).
func (t *trial) killFromChain(i int, delay sim.Duration) {
	n, ch := t.nodes[i], t.chains[i]
	if ch == nil {
		return
	}
	caughtUp := func() bool {
		return ch.base != nil && uint64(1+len(ch.deltas)) == n.PeriodicCheckpointStats().Frames
	}
	t.huntBoundary(i, caughtUp, func() {
		// Snapshot the chain before forcing: the forced frame also goes
		// through the sink (possibly deferred under speculation), and the
		// replay list must hold it exactly once.
		replay := append([][]byte(nil), ch.deltas...)
		frame, emitted, err := n.ForceCheckpointFrame()
		if err != nil {
			return // checkpointer already stopped (earlier kill); fold in
		}
		if emitted {
			replay = append(replay, append([]byte(nil), frame...))
		}
		replayed, err := ckpt.ReplayChain(ch.base, replay)
		if err != nil {
			t.res.PeriodicChainMismatches++
			return
		}
		fresh, err := n.Checkpoint()
		if err != nil {
			return
		}
		if !bytes.Equal(fresh.Encode(), replayed.Encode()) {
			t.res.PeriodicChainMismatches++
		}
		n.Kill()
		t.revive(i, delay, replayed, false)
	})
}

// revive brings killed node i back from ck after delay — Restore into the
// same epoch, or Rejoin after an expulsion — reattaching the trial's port
// to the rebuilt handle and counting the revive once it completes. The
// done callback fires on the victim's domain; a speculating trial defers
// the count past the span, so a revive completed inside a rolled-back span
// is counted exactly once — by its replay.
func (t *trial) revive(i int, delay sim.Duration, ck *ckpt.Checkpoint, rejoin bool) {
	n := t.nodes[i]
	t.cl.After(delay, func() {
		reattach := func(pm map[gm.PortID]*gm.Port) {
			if p, ok := pm[t.tcfg.Port]; ok {
				t.ports[i].set(p)
				t.attach(n, p)
			}
		}
		back, count := n.Restore, &t.res.HostRestores
		if rejoin {
			back, count = n.Rejoin, &t.res.HostRejoins
		}
		done := func() { *count++ }
		if t.tcfg.Speculate {
			eng := n.Engine()
			done = func() { eng.Control(func() { *count++ }) }
		}
		_ = back(ck, reattach, done)
	})
}

// harvest sums the trial's counters into its result, then shuts the
// cluster down.
func (t *trial) harvest() TrialResult {
	res := t.res
	res.Audit = t.aud.Report()
	for _, n := range t.nodes {
		if f := n.FTD(); f != nil {
			st := f.Stats()
			res.Recoveries += st.Recoveries
			res.FalseAlarms += st.FalseAlarms
			res.ReloadRetries += st.ReloadRetries
			res.RecoveryRestarts += st.RecoveryRestarts
			res.RecoveryFailures += st.Failures
		}
		ds := n.Driver().Stats()
		res.SuppressedFatals += ds.SuppressedFatals
		res.NaiveRestarts += ds.NaiveRestarts
		res.NetFaultReports += ds.NetFaultReports
		ls := n.LinkStats()
		res.FaultDrops += ls.FaultDropped
		res.Corruptions += ls.Corrupted
		ms := n.MCPStats()
		res.Retransmits += ms.Retransmits
		res.NetFaultSuspicions += ms.NetFaultSuspicions
		res.UnreachableFails += ms.UnreachableFails
		if l := n.Link(); l != nil {
			// The switch-to-node direction carries injected damage too.
			ls1 := l.Stats(1)
			res.FaultDrops += ls1.FaultDropped
			res.Corruptions += ls1.Corrupted
		}
	}
	if nw := t.cl.NetWatch(); nw != nil {
		st := nw.Stats()
		res.NetSuspicions = st.Suspicions
		res.NetIncidents = st.Incidents
		res.NetRemaps = st.Remaps
		res.NetRemapFailures = st.RemapFailures
		res.NetProbes = st.Probes
		res.NetUnreachable = st.Unreachable
		res.NetReadmissions = st.Readmissions
	}
	for _, ag := range t.cl.GossipAgents() {
		st := ag.Stats()
		res.GossipProbes += st.ProbesSent
		res.GossipSuspicions += st.Suspicions
		res.GossipDeadDeclared += st.DeadDeclared
		res.GossipReadmissions += st.Readmissions
	}
	res.GossipLiveExpelled, res.GossipRouteGaps = t.gossipDefects()
	for i, n := range t.nodes {
		if t.chains[i] == nil {
			continue
		}
		// Drain-budget accounting survives the kill: Kill deactivates the
		// checkpointer but keeps its stats block for post-mortem harvest.
		st := n.PeriodicCheckpointStats()
		res.PeriodicSkips += st.Skips
		res.PeriodicMaxPause = max(res.PeriodicMaxPause, st.MaxPause)
	}
	for _, s := range t.switches {
		res.SwitchDeadDrops += s.Stats().DroppedDead
	}
	res.SpecCommits, res.SpecRollbacks, _, _ = t.cl.Engine().SpecStats()
	// Counters are harvested; quiesce the trial so every pooled packet the
	// cluster still holds — rings, in-service handlers, in-flight deliveries
	// — returns to the arena instead of leaking with the abandoned engine.
	// 50 ms of drain covers the longest cable occupancy by orders of
	// magnitude. Runs after harvesting, so results are unaffected.
	t.cl.Shutdown(50 * gm.Millisecond)
	return res
}

// portCell holds one node's live port handle. The pump reads it from the
// control domain; a host-death revive swaps in the rebuilt handle from the
// victim's own domain. The swap is node-domain state, so on a speculating
// trial it journals itself like any other domain-resident mutation
// (DESIGN.md §16): a rolled-back revive rolls the handle back too, and the
// replayed revive installs the replayed port.
type portCell struct {
	eng    *sim.Engine
	mark   uint64
	p      *gm.Port
	shadow *gm.Port
}

func (c *portCell) SpecSave()    { c.shadow = c.p }
func (c *portCell) SpecRestore() { c.p = c.shadow }

func (c *portCell) set(p *gm.Port) {
	c.eng.SpecTouch(&c.mark, c)
	c.p = p
}
