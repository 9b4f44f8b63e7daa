package chaos

import (
	"bytes"
	"fmt"

	"repro/gm"
	"repro/internal/ckpt"
	"repro/internal/fabric"
	"repro/internal/gossip"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// ACK-hunt parameters: an armed hang polls its target's AcksSent counter
// every ackHuntStep and fires on the first increment (or unconditionally
// after ackHuntWindow of silence), landing the hang in the ACKed-but-not-
// committed window that Figure 5 exploits.
const (
	ackHuntStep   = 500 * sim.Nanosecond
	ackHuntWindow = 10 * sim.Millisecond
)

// Drain-hunt parameters: a host death waits for the victim to reach a
// message boundary (the drain protocol) before checkpointing. If the node
// never drains inside the window the injection folds away — under heavy
// compound faults a boundary may never come, and a skipped kill is a valid
// plan, not an error. A recovery in flight is no boundary, and can outlast
// the window: the window restarts when it ends.
const (
	drainHuntStep   = 50 * sim.Microsecond
	drainHuntWindow = 20 * sim.Millisecond
)

// CampaignConfig shapes a chaos campaign: Trials independent clusters,
// each living through its own injection plan, fanned out over Workers.
type CampaignConfig struct {
	Trials  int
	Workers int // 0 = GOMAXPROCS
	Mode    gm.Mode
	Trial   TrialConfig
}

// DefaultCampaignConfig is a 4-trial FTGM campaign.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{Trials: 4, Mode: gm.ModeFTGM, Trial: DefaultTrialConfig()}
}

// TrialResult is one trial's full accounting. Results are pure functions
// of (campaign seed, trial index): the determinism tests compare them
// bit-for-bit across worker counts.
type TrialResult struct {
	Trial  int
	Events []Event
	Audit  AuditReport

	// FTD activity summed over all nodes (zero in GM mode).
	Recoveries       uint64
	FalseAlarms      uint64
	ReloadRetries    uint64
	RecoveryRestarts uint64
	RecoveryFailures uint64
	SuppressedFatals uint64
	NaiveRestarts    uint64

	// Fabric damage totals.
	FaultDrops      uint64 // packets eaten by injected link profiles
	Corruptions     uint64 // payload bit flips injected on links
	SwitchDeadDrops uint64 // packets into dead ports / downed links

	Retransmits uint64 // Go-Back-N repair work across all nodes

	// Network-fault activity: detection counters are live in every FTGM
	// trial; the watchdog counters are zero unless TrialConfig.NetWatch.
	NetFaultSuspicions uint64 // MCP path-health reports raised to hosts
	NetFaultReports    uint64 // NET_FAULT_SUSPECTED interrupts drivers forwarded
	UnreachableFails   uint64 // sends terminally failed against expelled peers
	NetSuspicions      uint64 // watchdog: suspicion reports received
	NetIncidents       uint64 // watchdog: debounce windows opened
	NetRemaps          uint64 // watchdog: successful automatic remaps
	NetRemapFailures   uint64 // watchdog: remap attempts that failed
	NetProbes          uint64 // watchdog: readmission probes while peers expelled
	NetUnreachable     uint64 // watchdog: peers expelled as unreachable
	NetReadmissions    uint64 // watchdog: expelled peers readmitted

	// Gossip-plane activity, summed over all agents (zero unless
	// TrialConfig.ControlPlane is gm.ControlPlaneGossip).
	GossipProbes       uint64 // direct pings launched
	GossipSuspicions   uint64 // local probe-failure suspicions raised
	GossipDeadDeclared uint64 // dead verdicts recorded (local + adopted)
	GossipReadmissions uint64 // dead members welcomed back
	// End-of-trial convergence defects, judged over the nodes still
	// running: a live node marked dead by a live node's agent, and a live
	// node missing from a live node's installed route table. A healthy
	// gossip trial ends with both at zero — distributed agreement expelled
	// exactly the dead, and every survivor rebuilt a full route set.
	GossipLiveExpelled uint64
	GossipRouteGaps    uint64

	// Host-death activity (KindHostDeath / KindMapperRebirth trials).
	Checkpoints     uint64 // recovery anchors serialized at a drain boundary
	CheckpointBytes uint64 // total encoded checkpoint size
	HostRestores    uint64 // completed same-epoch restores (KindHostDeath)
	HostRejoins     uint64 // completed post-expulsion rejoins (KindMapperRebirth)

	// Incremental-checkpoint activity (KindPeriodicDeath trials): frames
	// shipped by the victims' periodic checkpointers, the bounded-drain
	// accounting, and the chain-replay verification verdict (a mismatch
	// means ReplayChain over the shipped frames did not re-encode
	// bit-identical to a fresh full checkpoint at the kill instant).
	PeriodicFrames          uint64
	PeriodicBytes           uint64
	PeriodicSkips           uint64
	PeriodicMaxPause        sim.Duration
	PeriodicChainMismatches uint64

	// Speculation activity (zero unless TrialConfig.Speculate): spans the
	// barrier committed and rolled back. Both are pure functions of the
	// window schedule, so they are bit-identical across shard counts.
	SpecCommits   uint64
	SpecRollbacks uint64
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Seed        uint64
	Mode        string
	Trials      []TrialResult
	Total       AuditReport
	CleanTrials int
	// AllExactlyOnce is the campaign verdict: every trial's auditor
	// reported exactly-once in-order delivery.
	AllExactlyOnce bool
}

// Run executes the campaign. Trial i derives its generator from
// sim.DeriveRNG(seed, i), so results are identical at any worker count.
func Run(seed uint64, cfg CampaignConfig) (CampaignResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	trials, err := parallel.Map(cfg.Trials, cfg.Workers, func(i int) (TrialResult, error) {
		return RunTrial(seed, i, cfg.Mode, cfg.Trial)
	})
	if err != nil {
		return CampaignResult{}, err
	}
	res := CampaignResult{Seed: seed, Mode: modeName(cfg.Mode), Trials: trials, AllExactlyOnce: true}
	for _, tr := range trials {
		res.Total.merge(tr.Audit)
		if tr.Audit.ExactlyOnceInOrder {
			res.CleanTrials++
		} else {
			res.AllExactlyOnce = false
		}
	}
	res.Total.ExactlyOnceInOrder = res.AllExactlyOnce && res.Total.Sent > 0
	return res, nil
}

func modeName(m gm.Mode) string {
	if m == gm.ModeFTGM {
		return "FTGM"
	}
	return "GM"
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

// RunTrial builds one cluster, drives the all-to-all traffic, applies the
// trial's injection plan, drains, and audits.
func RunTrial(seed uint64, index int, mode gm.Mode, tcfg TrialConfig) (TrialResult, error) {
	tcfg = tcfg.withDefaults()
	rng := sim.DeriveRNG(seed, uint64(index))
	res := TrialResult{Trial: index}

	gcfg := gm.DefaultConfig(mode)
	gcfg.Seed = rng.Uint64() | 1
	gcfg.Host.SendTokens = tcfg.SendTokens
	// Deep outages queue thousands of shadow tokens; keep the handler's
	// per-token cost from dominating the recovery (as the availability
	// mission does).
	gcfg.Host.RecoveryPerToken = 0
	gcfg.NetWatch.Enabled = tcfg.NetWatch
	gcfg.ControlPlane = tcfg.ControlPlane
	gcfg.Shards = tcfg.Shards
	gcfg.Speculate = tcfg.Speculate

	cl := gm.NewCluster(gcfg)
	var (
		nodes    []*gm.Node
		switches []*gm.Switch
		trunks   []*fabric.Link
		nodePort func(i int) (*gm.Switch, int)
	)
	if tcfg.DualSwitch {
		d, err := gm.BuildDualSwitch(cl, tcfg.Nodes, tcfg.Trunks)
		if err != nil {
			return res, err
		}
		nodes, trunks = d.Nodes, d.Trunks
		switches = []*gm.Switch{d.S1, d.S2}
		nodePort = func(i int) (*gm.Switch, int) {
			if i%2 == 1 {
				return d.S2, i / 2
			}
			return d.S1, i / 2
		}
	} else {
		nodes = make([]*gm.Node, tcfg.Nodes)
		for i := range nodes {
			nodes[i] = cl.AddNode(fmt.Sprintf("n%d", i))
		}
		sw := cl.AddSwitch("sw")
		for i, n := range nodes {
			if err := cl.Connect(n, sw, i); err != nil {
				return res, err
			}
		}
		switches = []*gm.Switch{sw}
		nodePort = func(i int) (*gm.Switch, int) { return sw, i }
	}
	if _, err := cl.Boot(); err != nil {
		return res, fmt.Errorf("chaos: boot: %w", err)
	}

	aud := NewAuditor()
	// attach wires the audited receive handler onto a port (at open, and
	// again onto every revive-rebuilt handle). The handler runs on the
	// receiver's own domain; with speculation armed it decodes in place —
	// the buffer is recycled the moment the handler returns — and defers
	// the accounting through the journaled control queue, so a delivery
	// executed in a rolled-back span is never counted (the replay re-issues
	// it). Without speculation the historical inline path is kept, bit for
	// bit.
	attach := func(n *gm.Node, p *gm.Port) {
		self, eng := n.ID(), n.Engine()
		p.SetReceiveHandler(func(ev gm.RecvEvent) {
			if tcfg.Speculate {
				rec := DecodeDelivery(self, tcfg.Port, ev)
				eng.Control(func() { aud.CommitDelivery(rec) })
			} else {
				aud.RecordDelivery(self, tcfg.Port, ev)
			}
			_ = p.RecycleReceiveBuffer(ev.Data, gm.PriorityLow)
		})
	}
	ports := make([]*portCell, tcfg.Nodes)
	for i, n := range nodes {
		p, err := n.OpenPort(tcfg.Port)
		if err != nil {
			return res, err
		}
		ports[i] = &portCell{eng: n.Engine(), p: p}
		attach(n, p)
		for j := 0; j < 512; j++ {
			if err := p.ProvideReceiveBuffer(uint32(tcfg.MsgBytes), gm.PriorityLow); err != nil {
				return res, err
			}
		}
	}

	// Traffic: each node sends to the other nodes round-robin, staggered
	// so the pumps don't tick in lockstep.
	start := cl.Now()
	stop := start + tcfg.Traffic
	for i := range nodes {
		// The port is read through the slice on every tick: a host-death
		// restore swaps a rebuilt handle into ports[i], and the pump must
		// follow it (the old handle is permanently closed).
		src, i := nodes[i], i
		turn := 0
		var pump func()
		pump = func() {
			if cl.Now() >= stop {
				return
			}
			dst := nodes[(i+1+turn%(tcfg.Nodes-1))%tcfg.Nodes]
			turn++
			key := StreamKey{Src: src.ID(), SrcPort: tcfg.Port, Dst: dst.ID(), DstPort: tcfg.Port}
			buf := aud.NewMessage(key, tcfg.MsgBytes)
			var cb gm.SendCallback
			if tcfg.DualSwitch || tcfg.NetWatch || tcfg.ControlPlane == gm.ControlPlaneGossip {
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
						if tcfg.Speculate {
							eng.Control(func() { aud.RecordSendFailure(buf) })
						} else {
							aud.RecordSendFailure(buf)
						}
					}
				}
			}
			if err := ports[i].p.Send(dst.ID(), tcfg.Port, gm.PriorityLow, buf, cb); err != nil {
				aud.Unsend(key)
			}
			cl.After(tcfg.SendEvery, pump)
		}
		cl.After(sim.Duration(i+1)*37*sim.Microsecond, pump)
	}

	// doHang injects one processor hang right now; in GM mode an external
	// watchdog notices after NaiveDetection and performs the paper's §3
	// baseline restart (stock GM itself would just stay down forever).
	doHang := func(i int) {
		n := nodes[i]
		if !n.Running() {
			return // already hung or mid-reload; the fault folds in
		}
		n.InjectHang()
		if mode != gm.ModeFTGM {
			cl.After(tcfg.NaiveDetection, func() {
				if !n.Running() {
					n.NaiveRestart(nil)
				}
			})
		}
	}
	// hang arms a processor hang on the node's next transmitted ACK — the
	// adversarial instant of Figure 5: stock GM has ACKed arrival but not
	// yet committed the message to host memory, so the message is lost;
	// FTGM's delayed ACK (§4.1) makes the same timing a mere
	// retransmission. If the node stays quiet the hang fires anyway after
	// a grace window.
	hang := func(i int) {
		n := nodes[i]
		if !n.Running() {
			return
		}
		base := n.MCPStats().AcksSent
		deadline := cl.Now() + ackHuntWindow
		var hunt func()
		hunt = func() {
			if !n.Running() {
				return // another event hung it first; the fault folds in
			}
			if n.MCPStats().AcksSent != base || cl.Now() >= deadline {
				doHang(i)
				return
			}
			cl.After(ackHuntStep, hunt)
		}
		hunt()
	}

	// killAndRevive implements the host-death drain protocol: poll the
	// victim for a message boundary, serialize its recovery anchor through
	// the versioned wire codec (the restore consumes exactly the bytes a
	// standby host would hold), kill it, and schedule the revival — Restore
	// after a standby spin-up delay, or Rejoin once the control plane has
	// buried it.
	killAndRevive := func(i int, delay sim.Duration, rejoin bool) {
		n := nodes[i]
		deadline := cl.Now() + drainHuntWindow
		var hunt func()
		hunt = func() {
			if !n.Running() || n.Dead() {
				return // already hung or dead; the fault folds in
			}
			if !n.Drained() {
				if n.Recovering() {
					deadline = cl.Now() + drainHuntWindow
				}
				if cl.Now() >= deadline {
					return // no message boundary came; skip this kill
				}
				cl.After(drainHuntStep, hunt)
				return
			}
			ck, err := n.Checkpoint()
			if err != nil {
				return
			}
			enc := ck.Encode()
			dec, err := ckpt.Decode(enc)
			if err != nil {
				return
			}
			res.Checkpoints++
			res.CheckpointBytes += uint64(len(enc))
			if rejoin {
				// Rejoin disowns the checkpointed in-flight sends by design:
				// the peers reset the streams when they expelled the victim.
				aud.ExcuseSource(n.ID())
			}
			n.Kill()
			cl.After(delay, func() {
				reattach := func(pm map[gm.PortID]*gm.Port) {
					p, ok := pm[tcfg.Port]
					if !ok {
						return
					}
					ports[i].set(p)
					attach(n, p)
				}
				// The done callbacks fire on the victim's domain; a
				// speculating trial defers the counter past the span, so
				// a revive completed inside a rolled-back span is counted
				// exactly once — by its replay.
				onDone := func(fn func()) func() {
					if !tcfg.Speculate {
						return fn
					}
					eng := n.Engine()
					return func() { eng.Control(fn) }
				}
				if rejoin {
					_ = n.Rejoin(dec, reattach, onDone(func() { res.HostRejoins++ }))
				} else {
					_ = n.Restore(dec, reattach, onDone(func() { res.HostRestores++ }))
				}
			})
		}
		hunt()
	}

	// Periodic-checkpoint chains: one per KindPeriodicDeath victim. The sink
	// runs on the victim's own domain (conservatively, or at barrier commit
	// under speculation), so trial-local appends follow the auditor idiom —
	// deferred through the journaled control queue when speculating, inline
	// otherwise. Frames for one node commit oldest-first, so chain order is
	// the emission order either way.
	type ckptChain struct {
		base   []byte
		deltas [][]byte
	}
	const (
		periodicInterval = 500 * sim.Microsecond
		periodicBudget   = 200 * sim.Microsecond
	)
	chains := make(map[int]*ckptChain)
	startPeriodic := func(i int) {
		if _, ok := chains[i]; ok {
			return
		}
		ch := &ckptChain{}
		chains[i] = ch
		n := nodes[i]
		eng := n.Engine()
		sink := func(f gm.PeriodicFrame) {
			// Bytes are only valid during the call; the chain owns a copy.
			b := append([]byte(nil), f.Bytes...)
			kind := f.Kind
			rec := func() {
				if kind == gm.FrameBase {
					ch.base = b
					ch.deltas = ch.deltas[:0]
				} else {
					ch.deltas = append(ch.deltas, b)
				}
				res.PeriodicFrames++
				res.PeriodicBytes += uint64(len(b))
			}
			if tcfg.Speculate {
				eng.Control(rec)
			} else {
				rec()
			}
		}
		cl.After(sim.Microsecond, func() {
			if n.Running() && !n.Dead() {
				_ = n.StartPeriodicCheckpoint(periodicInterval, periodicBudget, sink)
			}
		})
	}

	// killFromChain is the incremental-checkpoint variant of killAndRevive:
	// the hunt additionally waits for the shipped chain to catch up with the
	// checkpointer (every emitted frame landed in the trial's copy), forces a
	// final delta at the drain boundary, verifies base+chain replay against a
	// fresh full checkpoint bit for bit, kills the victim, and revives it
	// from the replayed chain — the restore consumes only bytes a standby
	// host could have accumulated frame by frame.
	killFromChain := func(i int, delay sim.Duration) {
		n := nodes[i]
		ch := chains[i]
		if ch == nil {
			return
		}
		deadline := cl.Now() + drainHuntWindow
		var hunt func()
		hunt = func() {
			if !n.Running() || n.Dead() {
				return // already hung or dead; the fault folds in
			}
			st := n.PeriodicCheckpointStats()
			caughtUp := ch.base != nil && uint64(1+len(ch.deltas)) == st.Frames
			if !n.Drained() || !caughtUp {
				if n.Recovering() {
					deadline = cl.Now() + drainHuntWindow
				}
				if cl.Now() >= deadline {
					return // no drained-and-caught-up instant came; skip
				}
				cl.After(drainHuntStep, hunt)
				return
			}
			// Snapshot the chain before forcing: the forced frame also goes
			// through the sink (possibly deferred under speculation), and the
			// replay list must hold it exactly once.
			replay := make([][]byte, len(ch.deltas))
			copy(replay, ch.deltas)
			frame, emitted, err := n.ForceCheckpointFrame()
			if err != nil {
				return // checkpointer already stopped (earlier kill); fold in
			}
			if emitted {
				replay = append(replay, append([]byte(nil), frame...))
			}
			replayed, err := ckpt.ReplayChain(ch.base, replay)
			if err != nil {
				res.PeriodicChainMismatches++
				return
			}
			fresh, err := n.Checkpoint()
			if err != nil {
				return
			}
			if !bytes.Equal(fresh.Encode(), replayed.Encode()) {
				res.PeriodicChainMismatches++
			}
			n.Kill()
			cl.After(delay, func() {
				reattach := func(pm map[gm.PortID]*gm.Port) {
					p, ok := pm[tcfg.Port]
					if !ok {
						return
					}
					ports[i].set(p)
					attach(n, p)
				}
				onDone := func() { res.HostRestores++ }
				if tcfg.Speculate {
					eng := n.Engine()
					onDone = func() { eng.Control(func() { res.HostRestores++ }) }
				}
				_ = n.Restore(replayed, reattach, onDone)
			})
		}
		hunt()
	}

	plan := PlanEvents(rng, tcfg, start)
	for _, ev := range plan {
		if ev.Kind == KindPeriodicDeath {
			startPeriodic(ev.Node)
		}
	}
	for _, ev := range plan {
		ev := ev
		cl.At(ev.At, func() {
			switch ev.Kind {
			case KindHang:
				hang(ev.Node)
			case KindDualHang:
				hang(ev.Node)
				hang(ev.Node2)
			case KindHangDuringRecovery:
				hang(ev.Node)
				n := nodes[ev.Node]
				// Wait for the armed hang to land, then for the reloaded
				// MCP to start running again: the second hang lands inside
				// the FTD's table-restore window.
				var waitDown, waitUp func()
				waitDown = func() {
					if n.Running() {
						cl.After(sim.Millisecond, waitDown)
						return
					}
					waitUp()
				}
				waitUp = func() {
					if !n.Running() {
						cl.After(sim.Millisecond, waitUp)
						return
					}
					doHang(ev.Node)
				}
				cl.After(sim.Millisecond, waitDown)
			case KindLinkFlap:
				l := nodes[ev.Node].Link()
				l.SetUp(false)
				cl.After(ev.Window, func() { l.SetUp(true) })
			case KindLinkDegrade:
				l := nodes[ev.Node].Link()
				l.SetFaults(ev.Profile, ev.Seed)
				cl.After(ev.Window, func() { l.SetFaults(fabric.FaultProfile{}, 0) })
			case KindPortDeath:
				s, p := nodePort(ev.Node)
				s.SetPortDead(p, true)
				cl.After(ev.Window, func() { s.SetPortDead(p, false) })
			case KindTrunkDeath:
				if ev.Node >= len(trunks) {
					return
				}
				live := 0
				for _, l := range trunks {
					if l.Up() {
						live++
					}
				}
				// Never sever the last live trunk: that is a full partition
				// of half the cluster, not an alternate-route scenario.
				if trunks[ev.Node].Up() && live > 1 {
					trunks[ev.Node].SetUp(false)
				}
			case KindPartition:
				nodes[ev.Node].Link().SetUp(false)
			case KindReloadFailure:
				if mode == gm.ModeFTGM {
					// Only the FTD has a reload-retry path; the naive
					// baseline would simply never come back.
					nodes[ev.Node].Driver().SetMCPLoadFailures(ev.Failures)
				}
				hang(ev.Node)
			case KindMapperDeath:
				// The flap opens an active remap window...
				l := nodes[ev.Node2].Link()
				l.SetUp(false)
				cl.After(ev.Window, func() { l.SetUp(true) })
				// ...and mid-window the mapping node dies for good: a hard
				// hang cancels the chip's timers, so the FTD's watchdog can
				// never fire and nothing ever reloads it. Its unfinished
				// sends are excused — the schemes are judged on what they
				// do for the survivors.
				cl.After(ev.Window/2, func() {
					aud.ExcuseSource(nodes[ev.Node].ID())
					nodes[ev.Node].InjectHardHang()
				})
			case KindHostDeath:
				killAndRevive(ev.Node, ev.Window, false)
			case KindPeriodicDeath:
				killFromChain(ev.Node, ev.Window)
			case KindMapperRebirth:
				// The flap opens an active remap window, exactly like
				// KindMapperDeath...
				l := nodes[ev.Node2].Link()
				l.SetUp(false)
				cl.After(ev.Window, func() { l.SetUp(true) })
				// ...and mid-window the mapping node dies — but this time
				// with a checkpoint taken at the drain boundary, and a
				// revival scheduled for long after the gossip plane's dead
				// verdict. The rejoin must be a genuine readmission under
				// live traffic.
				cl.After(ev.Window/2, func() { killAndRevive(ev.Node, ev.Revive, true) })
			}
		})
	}
	res.Events = plan

	cl.RunUntil(stop)
	// gossipConverged mirrors the end-of-trial view judgment: no live
	// node's agent may still hold a live peer as dead or be missing its
	// route. A rebirth trial can satisfy the auditor while the revived
	// node's own agent is still mid-readmission of the peers it buried
	// during its death; the drain loop keeps running until membership
	// agreement settles too (or the budget runs out — for a genuinely
	// partitioned live node that is the finding, not an error).
	gossipConverged := func() bool {
		agents := cl.GossipAgents()
		if len(agents) == 0 {
			return true
		}
		for i, ag := range agents {
			if !nodes[i].Running() {
				continue
			}
			view := ag.Members()
			routes := nodes[i].Driver().Routes()
			for j, peer := range nodes {
				if j == i || !peer.Running() {
					continue
				}
				if view[peer.ID()] == gossip.StateDead {
					return false
				}
				if _, ok := routes[peer.ID()]; !ok {
					return false
				}
			}
		}
		return true
	}
	// Drain: recoveries and Go-Back-N repair run until the auditor sees
	// every send delivered, or the settle budget runs out (a broken
	// scheme never drains — that is the finding, not an error).
	deadline := stop + tcfg.MaxSettle
	for (!aud.Complete() || !gossipConverged()) && cl.Now() < deadline {
		cl.Run(tcfg.SettleStep)
	}

	res.Audit = aud.Report()
	for _, n := range nodes {
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
	if nw := cl.NetWatch(); nw != nil {
		st := nw.Stats()
		res.NetSuspicions = st.Suspicions
		res.NetIncidents = st.Incidents
		res.NetRemaps = st.Remaps
		res.NetRemapFailures = st.RemapFailures
		res.NetProbes = st.Probes
		res.NetUnreachable = st.Unreachable
		res.NetReadmissions = st.Readmissions
	}
	if agents := cl.GossipAgents(); len(agents) > 0 {
		for i, ag := range agents {
			st := ag.Stats()
			res.GossipProbes += st.ProbesSent
			res.GossipSuspicions += st.Suspicions
			res.GossipDeadDeclared += st.DeadDeclared
			res.GossipReadmissions += st.Readmissions
			if !nodes[i].Running() {
				continue // a dead node's view judges nothing
			}
			view := ag.Members()
			routes := nodes[i].Driver().Routes()
			for j, peer := range nodes {
				if j == i || !peer.Running() {
					continue
				}
				if view[peer.ID()] == gossip.StateDead {
					res.GossipLiveExpelled++
				}
				if _, ok := routes[peer.ID()]; !ok {
					res.GossipRouteGaps++
				}
			}
		}
	}
	for i := range nodes {
		if _, ok := chains[i]; !ok {
			continue
		}
		// Drain-budget accounting survives the kill: Kill deactivates the
		// checkpointer but keeps its stats block for post-mortem harvest.
		st := nodes[i].PeriodicCheckpointStats()
		res.PeriodicSkips += st.Skips
		if st.MaxPause > res.PeriodicMaxPause {
			res.PeriodicMaxPause = st.MaxPause
		}
	}
	for _, s := range switches {
		res.SwitchDeadDrops += s.Stats().DroppedDead
	}
	res.SpecCommits, res.SpecRollbacks, _, _ = cl.Engine().SpecStats()
	// Counters are harvested; quiesce the trial so every pooled packet the
	// cluster still holds — rings, in-service handlers, in-flight deliveries
	// — returns to the arena instead of leaking with the abandoned engine.
	// 50 ms of drain covers the longest cable occupancy by orders of
	// magnitude. Runs after harvesting, so results are unaffected.
	cl.Shutdown(50 * gm.Millisecond)
	return res, nil
}
