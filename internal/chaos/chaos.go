// Package chaos is a deterministic fault-injection layer for the simulated
// Myrinet/GM cluster: a seed-split scheduler composes hangs, lossy and
// flapping links, dead switch ports, reload failures, and
// hang-during-recovery into a live gm.Cluster while a stream auditor
// records every send and delivery and judges exactly-once, in-order
// delivery at campaign end. The paper's fault model (§4.3) stops at a
// single LANai hang; chaos campaigns exercise the compound faults real
// deployments see, which is exactly where untested recovery paths hide.
//
// Everything is a pure function of the campaign seed: trial i draws from
// sim.DeriveRNG(seed, i), so a campaign fanned out over any number of
// workers is bit-for-bit identical to the serial run.
package chaos

import (
	"fmt"

	"repro/gm"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// EventKind enumerates the injectable fault classes.
type EventKind int

// Fault classes. Each composes with the others: the scheduler can hang a
// node whose link is mid-flap, kill a switch port during a recovery, etc.
const (
	// KindHang hangs one node's network processor (the paper's §4.3 path).
	KindHang EventKind = iota + 1
	// KindDualHang hangs two distinct nodes at the same instant.
	KindDualHang
	// KindHangDuringRecovery hangs a node, waits for its reloaded MCP to
	// start running again, and hangs it again — landing the second fault
	// inside the FTD's table-restore window.
	KindHangDuringRecovery
	// KindLinkFlap cuts a node's cable and raises it after a window.
	KindLinkFlap
	// KindLinkDegrade installs a lossy/corrupting fault profile on a
	// node's cable for a window (CRC-detectable corruption: Go-Back-N's
	// job to absorb).
	KindLinkDegrade
	// KindPortDeath kills the node's crossbar port for a window.
	KindPortDeath
	// KindReloadFailure arranges the next MCP reloads to fail, then hangs
	// the node, exercising the FTD's retry/backoff path.
	KindReloadFailure
	// KindTrunkDeath permanently kills one inter-switch trunk of a
	// dual-switch topology, forcing the network watchdog to remap onto the
	// surviving trunk (requires TrialConfig.DualSwitch). The injector skips
	// the kill if it would sever the last live trunk.
	KindTrunkDeath
	// KindPartition permanently cuts one node's cable (never node 0, which
	// hosts the mapper): with no alternate path the watchdog must expel the
	// node and fail its traffic terminally instead of stalling.
	KindPartition
	// KindMapperDeath is the control-plane killer: a link flap on a victim
	// node opens an active remap window, and mid-window node 0 — the
	// mapping node, whose MCP anchors every central remap — dies for good
	// (watchdog-invisible hard hang, never reloaded). The central plane's
	// repair path dies with it; the gossip plane must keep exactly-once
	// delivery among the survivors and expel exactly the dead node. The
	// injector excuses node 0's unfinished sends with Auditor.ExcuseSource
	// (a dead sender has no delivery contract left).
	KindMapperDeath
	// KindHostDeath kills a whole host (not just its interface) mid-burst:
	// the injector waits for the victim to reach a message boundary,
	// checkpoints its recovery anchor through the ckpt wire codec, and kills
	// it — library state, handlers and daemons all gone. After Window (the
	// standby's spin-up delay) the slot is restored from the checkpoint and
	// the auditor still demands exactly-once in-order delivery: the victim's
	// unacknowledged receives ride the peers' Go-Back-N windows, its own
	// unacknowledged sends are re-posted from the checkpoint. The outage is
	// shorter than any expulsion verdict, so the membership planes must hold
	// their fire.
	KindHostDeath
	// KindMapperRebirth is mapper death with an afterlife: the mapping node
	// is checkpointed, killed mid-remap-window like KindMapperDeath, and
	// revived from the checkpoint after Revive — long past the gossip
	// plane's dead verdict, so the revival is a genuine readmission under
	// live traffic (dead-probe, alive rumor, stream resets on both sides,
	// route reinstallation). Requires the gossip control plane; the central
	// plane cannot readmit its own dead anchor. The victim's in-flight sends
	// are excused: rejoin disowns them by design.
	KindMapperRebirth
	// KindPeriodicDeath is host death under the incremental checkpoint
	// pipeline: the victim runs Node.StartPeriodicCheckpoint for the whole
	// trial, shipping base+delta frames to a (simulated) standby as it goes.
	// The injector waits for the chain to catch up at a drained instant,
	// forces a final delta, kills the host mid-burst, and revives the slot
	// from ckpt.ReplayChain over the shipped frames — verifying along the way
	// that the replayed chain re-encodes bit-identical to the full checkpoint
	// the victim would have cut at the same instant. Exactly-once in-order
	// delivery is audited exactly as for KindHostDeath.
	KindPeriodicDeath
)

// String names the kind: its row of the fault-class table.
func (k EventKind) String() string {
	if name := k.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("kind?%d", int(k))
}

// allKinds returns the classes a default trial injects, in injection-plan
// order. The rest are opted into through TrialConfig.Kinds; KindTrunkDeath
// and KindPartition need TrialConfig.DualSwitch.
func allKinds() []EventKind {
	return []EventKind{
		KindHang, KindDualHang, KindHangDuringRecovery,
		KindLinkFlap, KindLinkDegrade, KindPortDeath, KindReloadFailure,
	}
}

// NetFaultKinds returns the network-fault classes exercised on dual-switch
// topologies.
func NetFaultKinds() []EventKind {
	return []EventKind{KindTrunkDeath, KindPartition}
}

// Event is one planned fault injection.
type Event struct {
	At   sim.Time
	Kind EventKind
	// Node is the primary target (index into the trial's node list, which
	// is also the node's switch port).
	Node int
	// Node2 is the second target of a dual hang.
	Node2 int
	// Window is how long a flap/degrade/port-death lasts.
	Window sim.Duration
	// Profile is the installed link misbehavior for a degrade.
	Profile fabric.FaultProfile
	// Seed drives the degrade profile's own fault decisions.
	Seed uint64
	// Failures is how many MCP reloads fail for a reload-failure event.
	Failures int
	// Revive is the delay from a mapper-rebirth kill to the rejoin — long
	// enough that the gossip plane has declared the victim dead.
	Revive sim.Duration
}

func (e Event) String() string {
	s := fmt.Sprintf("%v %s n%d", e.At, e.Kind, e.Node)
	switch e.Kind {
	case KindDualHang:
		s += fmt.Sprintf("+n%d", e.Node2)
	case KindLinkFlap, KindLinkDegrade, KindPortDeath:
		s += fmt.Sprintf(" for %v", e.Window)
	case KindReloadFailure:
		s += fmt.Sprintf(" x%d", e.Failures)
	case KindTrunkDeath:
		s = fmt.Sprintf("%v %s t%d", e.At, e.Kind, e.Node)
	case KindMapperDeath:
		s += fmt.Sprintf(" (flap n%d for %v)", e.Node2, e.Window)
	case KindHostDeath, KindPeriodicDeath:
		s += fmt.Sprintf(" standby %v", e.Window)
	case KindMapperRebirth:
		s += fmt.Sprintf(" (flap n%d for %v, revive after %v)", e.Node2, e.Window, e.Revive)
	}
	return s
}

// TrialConfig shapes one chaos trial: an all-to-all traffic pattern on a
// single-switch or (DualSwitch) two-switch cluster with Events faults
// injected into the traffic window.
type TrialConfig struct {
	// Nodes is the cluster size (on one switch, node i cables into port i).
	Nodes int
	// Port is the GM port each node opens.
	Port gm.PortID
	// Traffic is the send window; injections land inside it.
	Traffic sim.Duration
	// SendEvery is each node's send period (round-robin destinations).
	SendEvery sim.Duration
	// MsgBytes is the audited message size (>= MinMsgBytes).
	MsgBytes int
	// Events is the number of injections; kinds rotate through Kinds, so
	// Events >= len(Kinds) guarantees every class occurs.
	Events int
	// Kinds are the enabled fault classes (nil = allKinds).
	Kinds []EventKind
	// SettleStep/MaxSettle bound the post-traffic drain loop: the trial
	// runs until the auditor sees every send delivered or MaxSettle of
	// virtual time elapses (a broken scheme never drains).
	SettleStep sim.Duration
	MaxSettle  sim.Duration
	// NaiveDetection is the external-watchdog delay assumed for stock GM
	// (which has no detection of its own): each hang is followed by a
	// NaiveRestart after this long.
	NaiveDetection sim.Duration
	// SendTokens sizes each port's token pool; outages queue sends in the
	// shadow store, so the pool must cover the deepest backlog.
	SendTokens int
	// DualSwitch builds the redundant two-switch topology (gm.BuildDualSwitch)
	// instead of the single crossbar, enabling KindTrunkDeath/KindPartition.
	DualSwitch bool
	// Trunks is the inter-switch trunk count in dual-switch trials (0 = 2).
	Trunks int
	// NetWatch enables the network watchdog daemon (detection always runs;
	// this controls whether anything acts on the suspicion reports).
	NetWatch bool
	// ControlPlane selects the cluster's post-boot repair plane. The zero
	// value (central) keeps earlier campaigns bit-identical; with
	// gm.ControlPlaneGossip the trial runs a membership agent per node and
	// NetWatch is ignored (the planes are mutually exclusive).
	ControlPlane gm.ControlPlane
	// Shards runs the trial's cluster in domain mode with this many
	// executors (0 = the classic single-engine cluster). Results are
	// bit-for-bit identical for every value >= 1.
	Shards int
	// Speculate arms speculative run-ahead on the sharded cluster
	// (gm.Config.Speculate, DESIGN.md §16): node and switch domains may
	// execute past their conservative window bound, with the barrier
	// committing or rolling the span back. The trial's own accounting —
	// the auditor and the revive counters — defers its commits to the
	// control domain so a rolled-back delivery is never counted. Results
	// stay bit-for-bit identical to the conservative run. Ignored when
	// Shards == 0.
	Speculate bool
}

// DefaultTrialConfig is a 4-node cluster under 2 seconds of all-to-all
// traffic with one injection of every fault class.
func DefaultTrialConfig() TrialConfig {
	return TrialConfig{
		Nodes:          4,
		Port:           2,
		Traffic:        2 * sim.Second,
		SendEvery:      sim.Millisecond,
		MsgBytes:       32,
		Events:         len(allKinds()),
		SettleStep:     250 * sim.Millisecond,
		MaxSettle:      120 * sim.Second,
		NaiveDetection: 300 * sim.Millisecond,
		SendTokens:     16384,
	}
}

// withDefaults normalizes zero fields.
func (c TrialConfig) withDefaults() TrialConfig {
	def := DefaultTrialConfig()
	if c.Nodes < 2 {
		c.Nodes = def.Nodes
	}
	if c.Traffic <= 0 {
		c.Traffic = def.Traffic
	}
	if c.SendEvery <= 0 {
		c.SendEvery = def.SendEvery
	}
	if c.MsgBytes < MinMsgBytes {
		c.MsgBytes = def.MsgBytes
	}
	if c.Events <= 0 {
		c.Events = def.Events
	}
	if len(c.Kinds) == 0 {
		c.Kinds = allKinds()
	}
	if c.SettleStep <= 0 {
		c.SettleStep = def.SettleStep
	}
	if c.MaxSettle <= 0 {
		c.MaxSettle = def.MaxSettle
	}
	if c.NaiveDetection <= 0 {
		c.NaiveDetection = def.NaiveDetection
	}
	if c.SendTokens <= 0 {
		c.SendTokens = def.SendTokens
	}
	if c.DualSwitch && c.Trunks <= 0 {
		c.Trunks = 2
	}
	return c
}

// PlanEvents draws a deterministic injection plan from rng: kinds rotate
// through cfg.Kinds (so every enabled class occurs when Events >= len),
// each event jittered inside its own slot of the traffic window. The plan
// depends only on the generator state and the config — not on the cluster
// or the mode — so GM and FTGM trials of the same seed face identical
// fault sequences.
func PlanEvents(rng *sim.RNG, cfg TrialConfig, start sim.Time) []Event {
	cfg = cfg.withDefaults()
	warmup := cfg.Traffic / 10
	span := cfg.Traffic - 2*warmup
	slot := span / sim.Duration(cfg.Events)
	events := make([]Event, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		ev := Event{
			Kind: cfg.Kinds[i%len(cfg.Kinds)],
			At:   start + warmup + slot*sim.Duration(i) + rng.Duration(slot),
			Node: rng.Intn(cfg.Nodes),
		}
		switch ev.Kind {
		case KindDualHang:
			ev.Node2 = (ev.Node + 1 + rng.Intn(cfg.Nodes-1)) % cfg.Nodes
		case KindLinkFlap:
			ev.Window = 5*sim.Millisecond + rng.Duration(40*sim.Millisecond)
		case KindLinkDegrade:
			ev.Window = 50*sim.Millisecond + rng.Duration(200*sim.Millisecond)
			ev.Profile = fabric.FaultProfile{
				DropProb:    0.05 + 0.25*rng.Float64(),
				CorruptProb: 0.05 + 0.15*rng.Float64(),
				// Post-seal damage only: the receiver's CRC check catches
				// and drops it, and Go-Back-N retransmits. Pre-seal
				// (undetectable) corruption is inherently undeliverable-
				// correctly and is exercised by the fabric tests instead.
			}
			ev.Seed = rng.Uint64()
		case KindPortDeath:
			ev.Window = 10*sim.Millisecond + rng.Duration(50*sim.Millisecond)
		case KindReloadFailure:
			ev.Failures = 1 + rng.Intn(2)
		case KindTrunkDeath:
			// Node is a trunk index here; the injector refuses to sever
			// the last live trunk.
			if cfg.Trunks > 0 {
				ev.Node = rng.Intn(cfg.Trunks)
			}
		case KindPartition:
			// Never partition node 0: it hosts the mapper, and a fabric
			// with no mapper cannot remap at all (a different failure mode
			// than the one under test).
			ev.Node = 1 + rng.Intn(cfg.Nodes-1)
		case KindMapperDeath:
			// Node is always the mapping node; Node2 is the flap victim
			// whose outage opens the remap window the death lands in.
			ev.Node = 0
			ev.Node2 = 1 + rng.Intn(cfg.Nodes-1)
			ev.Window = 20*sim.Millisecond + rng.Duration(30*sim.Millisecond)
		case KindHostDeath, KindPeriodicDeath:
			// Never node 0: killing the mapping node is KindMapperDeath /
			// KindMapperRebirth territory. Window is the standby spin-up
			// delay between the kill and the restore (from the replayed
			// chain, for KindPeriodicDeath).
			ev.Node = 1 + rng.Intn(cfg.Nodes-1)
			ev.Window = 2*sim.Millisecond + rng.Duration(8*sim.Millisecond)
		case KindMapperRebirth:
			// Placed early in the traffic window (not in its rotation slot):
			// the revival lands Revive after the kill and must still find
			// live traffic to be readmitted under.
			ev.At = start + warmup + rng.Duration(warmup)
			ev.Node = 0
			ev.Node2 = 1 + rng.Intn(cfg.Nodes-1)
			ev.Window = 20*sim.Millisecond + rng.Duration(30*sim.Millisecond)
			ev.Revive = 4*sim.Second + rng.Duration(sim.Second)
		}
		events = append(events, ev)
	}
	return events
}
