package gm

import (
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/host"
	"repro/internal/lanai"
	"repro/internal/mcp"
	"repro/internal/sim"
)

// Node is one cluster member: a host (CPU + PCI bus + pinned memory) with a
// LANai interface card running the control program, its device driver, and
// — in FTGM mode — the fault tolerance daemon standing guard.
type Node struct {
	cluster *Cluster
	name    string
	index   int
	// eng is the node's event domain: the whole host + NIC stack schedules
	// here. On a legacy (unsharded) cluster it is the cluster engine.
	eng *sim.Engine

	pci    *host.PCIBus
	chip   *lanai.Chip
	m      *mcp.MCP
	driver *core.Driver
	ftd    *core.FTD
	link   *fabric.Link

	cpu    host.CPUAccount
	rxAcks *core.RxAckTable

	ports map[PortID]*Port

	// unreachable marks peers the network watchdog declared dead: Send
	// rejects them synchronously (ErrPeerUnreachable) until readmission.
	unreachable map[NodeID]bool

	// dead marks a host that was killed (Kill): every library structure is
	// gone and the interface is down until Restore/Rejoin revives the slot.
	dead bool
	// reviveGen increments on every Kill; the deferred stages of a revive
	// carry the generation they started under and become inert if another
	// death lands while they are still in flight.
	reviveGen uint64

	// pendingRecoveries counts ports whose FAULT_DETECTED handler has not
	// finished yet after a NIC hang, pendingRevive those of a host revive
	// (a hang can land inside a revive's handler window); each caller
	// completes when its own count returns to zero.
	pendingRecoveries int
	pendingRevive     int
	// recoveryBusyUntil serializes the handlers on the single host CPU:
	// with several open ports, per-process recovery time grows with the
	// port count ("the rest of the recovery time depends on the number of
	// open ports at the time of failure", §5.2).
	recoveryBusyUntil sim.Time

	// pc drives periodic background checkpointing (gm periodic.go); nil
	// until StartPeriodicCheckpoint. ckptEpoch is the monotonic dirty-mark
	// epoch the port stamps compare against: it survives Start/Stop cycles
	// so stale marks from an earlier run never read dirty.
	pc        *periodicCkpt
	ckptEpoch uint64

	// Speculation journaling (gm spec.go).
	specMark   uint64
	specShadow nodeShadow

	// Recovered is invoked when every port of the node finished its
	// FAULT_DETECTED handler after a recovery.
	Recovered func()
}

func newNode(c *Cluster, eng *sim.Engine, name string, index int) *Node {
	n := &Node{
		cluster:     c,
		name:        name,
		index:       index,
		eng:         eng,
		rxAcks:      core.NewRxAckTable(),
		ports:       make(map[PortID]*Port),
		unreachable: make(map[NodeID]bool),
	}
	n.rxAcks.Bind(eng)
	n.pci = host.NewPCIBus(eng, name+"/pci", c.cfg.PCI)
	n.chip = lanai.New(eng, name+"/lanai", c.cfg.Lanai, n.pci)
	n.m = mcp.New(n.chip, c.cfg.MCP, c.cfg.Mode)
	n.m.SetUID(uint64(index + 1))
	n.driver = core.NewDriver(n.m, c.cfg.Driver)
	if c.cfg.Mode == ModeFTGM {
		n.ftd = core.NewFTD(n.driver, c.cfg.FTD)
	}
	return n
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Engine returns the node's event domain (the cluster engine on an
// unsharded cluster). Traffic generators that drive a node directly — e.g.
// per-node tick loops in the scale harness — must schedule here, not on the
// control engine, so their events execute inside the node's domain.
func (n *Node) Engine() *sim.Engine { return n.eng }

// ID returns the node's mapper-assigned identity (valid after Boot).
func (n *Node) ID() NodeID { return n.m.NodeID() }

// CPU returns the host-CPU accounting of this node's process.
func (n *Node) CPU() *host.CPUAccount { return &n.cpu }

// PCI returns the node's PCI bus (for utilization metrics).
func (n *Node) PCI() *host.PCIBus { return n.pci }

// MCPStats returns the interface's protocol counters.
func (n *Node) MCPStats() mcp.Stats { return n.m.Stats() }

// ChipStats returns the interface's hardware counters.
func (n *Node) ChipStats() lanai.Stats { return n.chip.Stats() }

// FTD returns the node's fault tolerance daemon (nil in GM mode).
func (n *Node) FTD() *core.FTD { return n.ftd }

// Driver returns the node's device driver.
func (n *Node) Driver() *core.Driver { return n.driver }

// Hung reports whether the interface processor is hung.
func (n *Node) Hung() bool { return n.chip.Hung() }

// Running reports whether the interface processor is executing the MCP.
func (n *Node) Running() bool { return n.chip.Running() }

// SetLinkUp raises or cuts the node's cable (topology-change experiments).
func (n *Node) SetLinkUp(up bool) {
	if n.link != nil {
		n.link.SetUp(up)
	}
}

// Link returns the node's cable into the fabric (nil before Connect).
// Chaos schedulers use it to install fault profiles.
func (n *Node) Link() *fabric.Link { return n.link }

// LinkStats returns a snapshot of the node-to-switch direction's traffic
// counters (zero value before Connect).
func (n *Node) LinkStats() fabric.LinkStats {
	if n.link == nil {
		return fabric.LinkStats{}
	}
	return n.link.Stats(0)
}

// OpenPort opens a GM port on the node and returns its handle.
func (n *Node) OpenPort(id PortID) (*Port, error) {
	if !n.cluster.booted {
		return nil, ErrNotBooted
	}
	if n.dead {
		return nil, ErrNodeDead
	}
	if int(id) >= MaxPorts {
		return nil, fmt.Errorf("%w: port %d", ErrBadArgument, id)
	}
	if _, open := n.ports[id]; open {
		return nil, fmt.Errorf("%w: port %d already open", ErrBadArgument, id)
	}
	p := n.buildPort(id)
	if err := n.driver.OpenPort(id, p.mcpSink); err != nil {
		return nil, err
	}
	n.specTouch()
	n.ports[id] = p
	return p, nil
}

// buildPort constructs a Port and its deferred dispatchers without touching
// the driver or the node's port table (OpenPort and the checkpoint-restore
// path share it). Every dispatcher checks p.open: a host death (Kill) or an
// explicit close must leave whatever is still queued inert.
func (n *Node) buildPort(id PortID) *Port {
	p := &Port{
		node:       n,
		id:         id,
		shadow:     core.NewShadowStore(id),
		sendTokens: n.cluster.cfg.Host.SendTokens,
		callbacks:  make(map[uint64]SendCallback),
		open:       true,
	}
	p.shadow.Bind(n.eng)
	eng := n.eng
	p.tokPend = sim.NewDeferred(eng, "gmtok", func(tok gmproto.RecvToken) {
		if !p.open || p.recovering > 0 {
			return // the FAULT_DETECTED handler re-posts the shadow copy
		}
		_ = p.node.m.HostPostRecvToken(p.id, tok)
	})
	p.recvPend = sim.NewDeferred(eng, "gmrecv", func(d recvDispatch) {
		if !p.open {
			return
		}
		if d.poll {
			p.enqueuePoll(d.ev)
			return
		}
		if p.recvHandler != nil {
			p.recvHandler(RecvEvent{
				Data:    d.ev.Data,
				Src:     d.ev.Src,
				SrcPort: d.ev.SrcPort,
				Prio:    d.ev.Prio,
				Seq:     d.ev.Seq,
			})
		}
	})
	p.cbPend = sim.NewDeferred(eng, "gmcb", func(d cbDispatch) {
		if !p.open {
			return
		}
		d.cb(d.status)
	})
	p.postPend = sim.NewDeferred(eng, "gmpost", func(tok gmproto.SendToken) {
		if !p.open || p.recovering > 0 {
			// The FAULT_DETECTED handler will re-post the whole shadow
			// queue in sequence order; posting now would overtake the
			// restored messages. A closed port has nothing to post to.
			return
		}
		// If the interface is down the post fails; the shadow copy will be
		// restored to the reloaded LANai by the FAULT_DETECTED handler.
		_ = p.node.m.HostPostSend(tok)
	})
	return p
}

// ClosePort closes a port.
func (n *Node) ClosePort(id PortID) {
	if p, ok := n.ports[id]; ok {
		n.specTouch()
		p.specTouch()
		p.open = false
		if n.pc != nil && n.pc.s.active {
			n.pc.s.removedSince[id] = true
		}
		n.driver.ClosePort(id)
		delete(n.ports, id)
	}
}

// PeerUnreachable reports whether the network watchdog has declared a peer
// unreachable from this node.
func (n *Node) PeerUnreachable(peer NodeID) bool { return n.unreachable[peer] }

// setPeerUnreachable marks a peer dead: the MCP terminally fails every
// pending send toward it and rejects new ones; the library rejects sends at
// the API boundary.
func (n *Node) setPeerUnreachable(peer NodeID) {
	if peer == 0 || n.unreachable[peer] {
		return
	}
	n.specTouch()
	n.unreachable[peer] = true
	n.m.FailPeer(peer)
}

// resetPeer clears a peer's unreachable state and forgets the sequence
// streams between the two nodes in both directions (MCP streams, shadow
// sequence generators, receive ACK table): the peer's expulsion left gaps in
// the old streams, so first contact after readmission restarts at 1. Each
// port opens a new epoch toward the peer at its current token cursor.
func (n *Node) resetPeer(peer NodeID) {
	if peer == 0 {
		return
	}
	n.specTouch()
	delete(n.unreachable, peer)
	n.m.ResetPeerStreams(peer)
	n.rxAcks.Forget(peer)
	for _, p := range n.ports {
		p.specTouch()
		p.markCkpt()
		p.shadow.ResetPeerSeqs(peer)
		epochs := make(map[NodeID]uint64, len(p.peerEpoch)+1)
		maps.Copy(epochs, p.peerEpoch)
		epochs[peer] = p.nextToken
		p.peerEpoch = epochs
	}
}

// --- Fault injection (experiment entry points) ---

// InjectHang hangs the network processor now, recording the injection
// instant on the FTD timeline (FTGM mode).
func (n *Node) InjectHang() {
	if n.ftd != nil {
		n.ftd.MarkFault()
	}
	n.m.InjectHang()
}

// InjectHardHang hangs the processor *and* its timer/interrupt logic — the
// rare failure the watchdog cannot see (§4.2).
func (n *Node) InjectHardHang() {
	if n.ftd != nil {
		n.ftd.MarkFault()
	}
	n.m.InjectHardHang()
}

// InjectSendCorruption corrupts the next transmitted fragment (preSeal
// damage evades the CRC; post-seal damage is caught and retransmitted).
func (n *Node) InjectSendCorruption(bit int, preSeal bool) {
	n.m.InjectSendCorruption(bit, preSeal)
}

// InjectCheckpointPause models one round of classical whole-state
// checkpointing, the "crude way" §4 of the paper rejects: the network
// processor is occupied for nicBusy (quiescing and snapshotting its state)
// while pciBytes of interface + application state cross the PCI bus to
// stable storage. Message handling stalls behind the pause; the experiment
// harness uses this to quantify what the rejected design would cost.
func (n *Node) InjectCheckpointPause(nicBusy sim.Duration, pciBytes int) {
	n.chip.Exec(nicBusy, func() {})
	if pciBytes > 0 {
		n.pci.Transfer(pciBytes, nil)
	}
}

// NaiveRestart performs the baseline recovery of §3 (driver reload without
// state restoration), then — like a stock GM application would — re-posts
// the send tokens whose callbacks have not fired and re-provides the
// outstanding receive buffers. Sequence state is gone: the reloaded MCP
// renumbers from scratch, which is exactly what Figures 4 and 5 exploit.
func (n *Node) NaiveRestart(done func()) {
	n.driver.NaiveRestart(func() {
		for _, id := range n.driver.OpenPorts() {
			p := n.ports[id]
			if p == nil {
				continue
			}
			p.reRegisterRegions()
			for _, tok := range p.shadow.OutstandingRecvs() {
				_ = n.m.HostPostRecvToken(id, tok)
			}
			for _, tok := range p.shadow.OutstandingSends() {
				tok.HasSeq = false // the naive path has no sequence backup
				tok.Seq = 0
				_ = n.m.HostPostSend(tok)
			}
		}
		if done != nil {
			done()
		}
	})
}

// --- Event plumbing ---

// dispatchRecovery runs one port's FAULT_DETECTED handler: the §4.4
// sequence, with the Table 3 per-process cost, serialized on the host CPU.
// A NIC hang (Port.Unknown) and a host restore (revive) both run it. While
// it runs, the port's fresh sends and receive buffers wait in the shadow
// store and the node is not drained; the handler re-posts them in order.
// pending counts the caller's unfinished handlers; done runs when it returns
// to zero.
func (n *Node) dispatchRecovery(p *Port, pending *int, done func()) {
	cfg := n.cluster.cfg.Host
	n.specTouch()
	p.specTouch()
	n.cpu.SpecTouch(n.eng)
	*pending++
	p.recovering++
	nsend, nrecv := p.shadow.Counts()
	handlerCost := cfg.RecoveryHandlerBase +
		sim.Duration(nsend+nrecv)*cfg.RecoveryPerToken +
		cfg.RecoverySeqUpload + cfg.RecoveryReopen
	n.cpu.Charge(handlerCost)
	start := n.eng.Now()
	if n.recoveryBusyUntil > start {
		start = n.recoveryBusyUntil
	}
	end := start + handlerCost
	n.recoveryBusyUntil = end
	gen := n.reviveGen
	n.eng.At(end, func() {
		if n.reviveGen != gen {
			return // the host died inside the handler window
		}
		n.specTouch()
		p.specTouch()
		// Handlers on one port finish in dispatch order, and only the last
		// re-posts: the MCP was reloaded again under an earlier one, whose
		// re-post would hand every token to it twice.
		if p.recovering--; p.recovering == 0 {
			// Re-pin the directed-send regions with the reloaded MCP.
			p.reRegisterRegions()
			// Restore the LANai's receive token queue from the backup
			// copy: "the LANai send and receive token queue is restored
			// using the process' backup copy" (§4.4).
			for _, tok := range p.shadow.OutstandingRecvs() {
				_ = n.m.HostPostRecvToken(p.id, tok)
			}
			// Update the LANai with the last sequence number received on
			// each stream so it ACKs/NACKs correctly (§4.4).
			n.m.RestoreRxSeqs(n.rxAcks.Snapshot())
			// Re-post unacknowledged sends — including any issued while the
			// handler ran — with their original host-generated sequence
			// numbers; the receiver discards any the fault window already
			// delivered.
			for _, tok := range p.shadow.OutstandingSends() {
				if tok.ID <= p.peerEpoch[tok.Dest] {
					// Its stream was reset by the peer's readmission:
					// fail it as FailPeer would have done.
					p.mcpSink(gmproto.Event{Type: gmproto.EvSendError, Port: p.id,
						TokenID: tok.ID, Status: gmproto.SendErrorUnreachable})
					continue
				}
				_ = n.m.HostPostSend(tok)
			}
		}
		if *pending--; *pending == 0 {
			done()
		}
	})
}

// hangRecovered completes a NIC-hang recovery once every port's handler has
// finished: the timeline's processes-done phase, then Recovered.
func (n *Node) hangRecovered() {
	if n.ftd != nil {
		n.ftd.SpecTouch()
		n.ftd.Timeline().Mark(core.PhaseProcessesDone, n.eng.Now())
	}
	if n.Recovered != nil {
		n.Recovered()
	}
}
