package gm

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/gmproto"
)

// Host-failure tolerance: endpoint checkpoint/restart.
//
// The paper's continuous backup (§4.1) keeps the recovery anchor — shadow
// token queues, host-generated sequence streams, the per-stream ACK table —
// in host memory, where it survives an interface hang. This file extends the
// same anchor across host death: Checkpoint serializes it through the
// internal/ckpt wire codec at a drained instant, Kill models the host (and
// with it the interface) dying, and Restore stands a replacement process up
// on the same slot: it rebuilds the library from the checkpoint against a
// freshly loaded MCP, then runs each port through the same FAULT_DETECTED
// handler a NIC hang uses (§4.4). Rejoin is the post-expulsion variant:
// identity and routes come from the checkpoint, but the inter-peer protocol
// state starts over, matching the stream resets the peers performed when
// they expelled the node (DESIGN.md §15).

// Host-fault errors.
var (
	// ErrNotDrained means the endpoint has committed work still in flight
	// toward the application; checkpointing now could lose an acknowledged
	// message. Retry after the deferred dispatchers and poll queues drain.
	ErrNotDrained = errors.New("gm: node not drained")
	// ErrNodeDead rejects library calls against a killed host.
	ErrNodeDead = errors.New("gm: node is dead")
	// ErrNodeAlive rejects Restore/Rejoin on a host that was never killed.
	ErrNodeAlive = errors.New("gm: node is alive")
	// ErrCheckpointMismatch means the checkpoint belongs to a different node
	// slot (interface UID disagreement).
	ErrCheckpointMismatch = errors.New("gm: checkpoint does not match this node slot")
)

// Dead reports whether the host has been killed and not yet revived.
func (n *Node) Dead() bool { return n.dead }

// Drained reports whether the endpoint sits at a message boundary: no
// deferred dispatcher of any open port holds work, no polling-mode receive
// queue holds undelivered events, and no recovery is mid-flight — neither a
// FAULT_DETECTED handler nor an FTD cycle that has woken but not yet posted
// FAULT_DETECTED. The condition matters because of the delayed ACK (§4.1):
// the MCP releases a message's ACK only after the host tables commit, and
// the windows where a committed-and-ACKed message has not yet reached the
// application are the port's deferred receive dispatch and — on a polling
// port — the receive queue the application has not yet drained with
// Receive. With every dispatcher and poll queue empty, everything the node
// has acknowledged has also been delivered; whatever is still inside the
// MCP is unacknowledged and the senders' Go-Back-N windows re-deliver it
// after a restore.
func (n *Node) Drained() bool {
	if n.dead || n.Recovering() {
		return false
	}
	for _, p := range n.ports {
		if !p.idle() {
			return false
		}
	}
	return true
}

// Recovering reports whether a recovery is in flight: the FTD has woken and
// not yet posted FAULT_DETECTED, or a FAULT_DETECTED handler — of a NIC
// hang or of a revive — has not finished.
func (n *Node) Recovering() bool {
	return n.pendingRecoveries > 0 || n.pendingRevive > 0 || n.ftd != nil && n.ftd.Busy()
}

// idle reports whether the port's host-side pipeline is empty: no
// FAULT_DETECTED handler pending, no undelivered poll-queue event, and no
// deferred dispatcher holding work.
func (p *Port) idle() bool {
	return p.recovering == 0 && len(p.pollQueue) == 0 &&
		p.tokPend.Pending() == 0 && p.recvPend.Pending() == 0 &&
		p.cbPend.Pending() == 0 && p.postPend.Pending() == 0
}

// Checkpoint assembles the node's recovery anchor at a drained instant:
// interface identity, the authoritative route table, the receive ACK table,
// and per open port the token cursor, the outstanding shadow send/receive
// tokens in posting order, the sequence-stream cursors and the registered
// directed-send regions (geometry and contents: an acknowledged deposit
// lives only in the region buffer, so the bytes are part of the anchor).
// It is the delta from nothing — the anchor captured against an empty
// chain tip, applied to an empty checkpoint — so it is exactly what a
// replayed periodic chain reconstructs. Refuses with ErrNotDrained while
// committed work is still in flight to the application.
func (n *Node) Checkpoint() (*ckpt.Checkpoint, error) {
	if n.dead {
		return nil, ErrNodeDead
	}
	if !n.Drained() {
		return nil, ErrNotDrained
	}
	var a anchorArena
	c := &ckpt.Checkpoint{UID: n.m.UID(), NodeID: n.m.NodeID()}
	if err := c.Apply(n.captureAnchor(&a, nil)); err != nil {
		return nil, err
	}
	return c, nil
}

// anchorArena is the storage a capture fills: the frame and the scratch
// slices it sorts through. Pooled by the periodic checkpointer so that a
// steady-state capture allocates nothing.
type anchorArena struct {
	delta   ckpt.Delta
	ids     []NodeID
	streams []gmproto.StreamID
	recvs   []gmproto.RecvToken
}

// captureAnchor fills a.delta with every part of the recovery anchor that
// differs from the chain tip: a replaced route table, the advanced (or, after
// a Forget, all) receive-commit entries, a full record of every dirty port
// with the bytes of its dirty regions, and the ports closed since the tip.
// A nil tip is the empty chain, against which everything differs. The frame
// aliases live state (route hops, send payloads, region buffers) until the
// next capture; Delta.AppendTo and Checkpoint.Apply copy what they keep.
func (n *Node) captureAnchor(a *anchorArena, tip *periodicState) *ckpt.Delta {
	d := &a.delta
	d.Reset()
	d.UID, d.NodeID = n.m.UID(), n.m.NodeID()

	if tip == nil || n.driver.RoutesVersion() != tip.routesVer {
		d.RoutesReplaced = true
		routes := n.driver.Routes()
		a.ids = a.ids[:0]
		for id := range routes {
			a.ids = append(a.ids, id)
		}
		slices.Sort(a.ids)
		for _, id := range a.ids {
			d.Routes = append(d.Routes, ckpt.Route{Node: id, Hops: routes[id]})
		}
	}

	a.streams = a.streams[:0]
	if tip == nil || n.rxAcks.Replaced() {
		d.RxReplaceAll = true
		a.streams = n.rxAcks.AppendAllStreams(a.streams)
	} else {
		a.streams = n.rxAcks.AppendDirtyStreams(a.streams)
	}
	for _, id := range a.streams {
		d.RxAcks = append(d.RxAcks, ckpt.RxAck{Stream: id, Seq: n.rxAcks.Last(id)})
	}

	for id := PortID(0); int(id) < MaxPorts; id++ {
		if tip.removed(id) {
			// A reopen inside the interval also lands in Ports below;
			// Apply processes removals first.
			d.Removed = append(d.Removed, id)
		}
		p := n.ports[id]
		if p == nil || !tip.dirty(p) {
			continue
		}
		fresh := tip.fresh(id)
		pd := d.NextPort()
		pd.Port = id
		pd.NextToken = p.nextToken
		pd.NextRegion = p.nextRegion
		pd.SendTokens = p.shadow.AppendOutstandingSends(pd.SendTokens[:0])
		a.recvs = p.shadow.AppendOutstandingRecvs(a.recvs[:0])
		pd.RecvTokens = pd.RecvTokens[:0]
		for _, rt := range a.recvs {
			pd.RecvTokens = append(pd.RecvTokens, ckpt.RecvTokenCheckpoint{
				ID: rt.ID, Size: rt.Size, Prio: rt.Prio, BufLen: uint32(len(rt.Buf)),
			})
		}
		pd.SeqStreams = p.shadow.AppendSeqStreams(pd.SeqStreams[:0])
		pd.Regions = pd.Regions[:0]
		for i, r := range p.regions {
			rd := pd.NextRegionDelta()
			rd.ID = r.ID
			rd.Dirty = fresh || i < len(p.regionMarks) && p.regionMarks[i] == n.ckptEpoch
			rd.Data = nil
			if rd.Dirty {
				rd.Data = r.Buf
			}
		}
	}
	return d
}

// Kill models host death: the machine powers off, taking the interface —
// processor, timers, interrupt logic — down with it, and every library
// structure (ports, handlers, callbacks, shadow copies, ACK tables)
// vanishes. Peers see silence, not a FATAL; their Go-Back-N windows hold
// the unacknowledged traffic until the slot is revived. Idempotent.
func (n *Node) Kill() {
	if n.dead {
		return
	}
	n.specTouch()
	n.dead = true
	n.reviveGen++
	// Host death takes the periodic checkpointer with it: its scheduled
	// events go inert (generation mismatch) and the chain ends here. The
	// frozen-port state dies with the MCP's port table below.
	if n.pc != nil && n.pc.s.active {
		n.pc.s.active = false
		n.pc.s.emitting = false
	}
	n.m.InjectHardHang()
	// The FTD and the driver are host software: a cycle or an MCP load in
	// flight dies with the host, and the revive loads the MCP itself.
	if n.ftd != nil {
		n.ftd.Halt()
	}
	n.driver.Halt()
	for id, p := range n.ports {
		p.specTouch()
		p.open = false
		p.recvHandler, p.alarmHandler = nil, nil
		p.callbacks = nil
		p.pollQueue = nil
		n.driver.ClosePort(id)
	}
	n.ports = make(map[PortID]*Port)
	n.rxAcks = core.NewRxAckTable()
	n.rxAcks.Bind(n.eng)
	n.unreachable = make(map[NodeID]bool)
	n.pendingRecoveries, n.pendingRevive = 0, 0
	n.recoveryBusyUntil = 0
	n.eng.Tracef("node", "%s host killed", n.name)
}

// Restore revives a killed slot from a checkpoint with full state
// reinstatement: the replacement host reloads the MCP, reinstalls identity
// and routes from the checkpoint (its own memory starts empty), rebuilds
// each port's shadow store, token cursor, sequence streams and directed-send
// regions (contents included), reopens the ports and calls reattach. Each
// port then runs the FAULT_DETECTED handler (§4.4): register the regions,
// re-post the outstanding receive tokens, upload the receive sequence
// table, and re-post the outstanding sends with their original sequence
// numbers. Peers that kept their stream state dedup anything the fault
// window already delivered, so delivery stays exactly-once and in-order.
//
// reattach runs as soon as the restored ports exist and before any token is
// re-posted: the replacement process installs its receive handlers there
// (handler closures do not survive host death). The same applies to send
// completion callbacks: a checkpointed outstanding send is re-posted and
// completes, but its pre-death callback closure is gone and nothing fires
// unless the reattach hook re-arms one via Port.SetSendCompletion (the ids
// come from Port.OutstandingSendIDs). Applications that pace their pipeline
// on completions must re-arm or they will stall after a restore. Sends and
// receive buffers issued from reattach until done are held and re-posted by
// the handler after the restored ones, and the node does not read as
// drained until done fires, when the last handler finishes. Restore must
// land before the control plane expels the node; after an expulsion use
// Rejoin.
func (n *Node) Restore(c *ckpt.Checkpoint, reattach func(ports map[PortID]*Port), done func()) error {
	return n.revive(c, false, reattach, done)
}

// Rejoin revives a killed slot after the cluster expelled it: identity,
// routes and port shape come from the checkpoint, but the inter-peer
// protocol state — sequence streams, receive ACK table, outstanding sends —
// starts over. The peers forgot both stream directions when they expelled
// the node, so a symmetric restart at sequence 1 is the only consistent
// revival: reinstating the old cursors would wedge every stream (the peers
// NACK unknown high sequences and dup-drop restarted low ones). The
// checkpointed outstanding sends are disowned, exactly as the auditor's
// ExcuseSource contract expects of a dead sender.
func (n *Node) Rejoin(c *ckpt.Checkpoint, reattach func(ports map[PortID]*Port), done func()) error {
	return n.revive(c, true, reattach, done)
}

func (n *Node) revive(c *ckpt.Checkpoint, fresh bool, reattach func(ports map[PortID]*Port), done func()) error {
	if !n.dead {
		return ErrNodeAlive
	}
	if c == nil || c.UID != n.m.UID() {
		return ErrCheckpointMismatch
	}
	if err := n.checkAnchor(c); err != nil {
		return err
	}
	routes := make(map[NodeID][]byte, len(c.Routes))
	for _, r := range c.Routes {
		routes[r.Node] = append([]byte(nil), r.Hops...)
	}
	n.specTouch()
	n.driver.SetRoutes(c.NodeID, routes)
	n.dead = false
	gen := n.reviveGen
	n.eng.Tracef("node", "%s host revive begins (fresh=%v)", n.name, fresh)
	n.chip.Reset()
	n.chip.ClearSRAM()
	n.driver.LoadMCP(func() {
		if n.dead || n.reviveGen != gen {
			return // another death landed while the MCP was loading
		}
		n.specTouch()
		n.m.UploadRoutes(n.driver.Routes())
		n.m.RegisterPageTable(n.driver.PageTable().Len())
		if !fresh {
			// Kill left an empty table behind.
			for _, a := range c.RxAcks {
				n.rxAcks.Update(a.Stream, a.Seq)
			}
		}
		finish := func() {
			n.driver.ClearFatal()
			n.eng.Tracef("node", "%s host revive complete", n.name)
			if done != nil {
				done()
			}
		}
		restored := make(map[PortID]*Port, len(c.Ports))
		for _, pc := range c.Ports {
			p, err := n.restorePort(pc, fresh)
			if err != nil {
				n.eng.Tracef("node", "%s revive: reopen port %d: %v", n.name, pc.Port, err)
				continue
			}
			n.ports[pc.Port] = p
			restored[pc.Port] = p
			n.dispatchRecovery(p, &n.pendingRevive, finish)
		}
		// The replacement process attaches its handlers before any token is
		// re-posted: a retransmission landing between reopen and re-post is
		// NACKed for lack of a receive token, never committed unseen.
		if reattach != nil {
			reattach(restored)
		}
		if len(restored) == 0 {
			finish()
		}
	})
	return nil
}

// checkAnchor rejects, before a revive changes any state, a checkpoint it
// could not reinstate faithfully: a port id out of range, repeated or out
// of order, more outstanding sends than a port's token pool, or a repeated
// region id.
func (n *Node) checkAnchor(c *ckpt.Checkpoint) error {
	for i, pc := range c.Ports {
		switch {
		case int(pc.Port) >= MaxPorts:
			return fmt.Errorf("%w: checkpoint port %d out of range", ErrBadArgument, pc.Port)
		case i > 0 && pc.Port <= c.Ports[i-1].Port:
			return fmt.Errorf("%w: checkpoint port %d repeated or out of order", ErrBadArgument, pc.Port)
		case len(pc.SendTokens) > n.cluster.cfg.Host.SendTokens:
			return fmt.Errorf("%w: checkpoint port %d holds %d sends, the token pool is %d",
				ErrBadArgument, pc.Port, len(pc.SendTokens), n.cluster.cfg.Host.SendTokens)
		}
		for j, r := range pc.Regions {
			for _, q := range pc.Regions[:j] {
				if q.ID == r.ID {
					return fmt.Errorf("%w: checkpoint port %d repeats region %d", ErrBadArgument, pc.Port, r.ID)
				}
			}
		}
	}
	return nil
}

// restorePort rebuilds one port skeleton from its checkpoint record and
// reopens it with the driver: token cursor, shadow tokens, sequence cursors,
// and the directed-send regions with their page-table pins. The MCP-side
// steps are left to the FAULT_DETECTED handler. Restore reinstates the
// region contents (acknowledged deposits exist only there); Rejoin (fresh)
// keeps the geometry — region ids are application-level rendezvous — but
// zeroes the bytes and disowns the sends and sequence cursors.
func (n *Node) restorePort(pc ckpt.PortCheckpoint, fresh bool) (*Port, error) {
	p := n.buildPort(pc.Port)
	p.nextToken = pc.NextToken
	p.nextRegion = pc.NextRegion
	if !fresh {
		for _, tok := range pc.SendTokens {
			p.shadow.AddSendToken(tok)
		}
		for _, ss := range pc.SeqStreams {
			p.shadow.RestoreSeq(ss.Node, ss.Prio, ss.Last)
		}
		p.sendTokens -= len(pc.SendTokens)
	}
	for _, rt := range pc.RecvTokens {
		p.shadow.AddRecvToken(gmproto.RecvToken{
			ID: rt.ID, Size: rt.Size, Prio: rt.Prio, Buf: make([]byte, rt.BufLen),
		})
	}
	if err := n.driver.OpenPort(pc.Port, p.mcpSink); err != nil {
		return nil, err
	}
	for _, rc := range pc.Regions {
		r := &Region{ID: rc.ID, Buf: make([]byte, len(rc.Data))}
		if !fresh {
			copy(r.Buf, rc.Data)
		}
		n.driver.PageTable().SpecTouch(n.eng)
		_ = n.driver.PageTable().PinRange(int(p.id), uint64(r.ID)<<32, uint64(len(r.Buf)))
		p.regions = append(p.regions, r)
	}
	return p, nil
}
