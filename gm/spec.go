package gm

import (
	"repro/internal/core"
	"repro/internal/gmproto"
	"repro/internal/sim"
)

// Speculation journaling (sim spec.go). The gm library is node-domain event
// code — sends, receive dispatch, recovery handlers and host-fault revival
// all run as simulation callbacks on the owning node's engine — so once the
// node domain speculates, every library mutation must be restorable.
//
// The library keeps two first-touch shadows: portShadow for the per-port
// state a message touches (token cursor, callback table, poll queue, stats)
// and nodeShadow for the colder node-level state (port table, unreachable
// set, recovery bookkeeping, the rxAcks table pointer a host death swaps
// out). The heavy per-message structures — the §4.1 shadow store and the
// receive ACK table — journal themselves with per-operation undo logs
// (core/spec.go) and only need Bind calls here; the deferred dispatchers
// journal themselves inside sim.Deferred. Both shadows reuse their map and
// slice capacity across spans, so a warm touch allocates nothing.
//
// Discipline: SpecTouch at the top of every mutating method, before the
// first mutation — and again at the top of every closure that runs in a
// LATER span (recovery completions, revive stages), because the save taken
// when the closure was scheduled does not cover the span it fires in.
//
// Application state is out of scope: receive handlers and send-completion
// callbacks run inside the span, and a workload driven on a speculating node
// domain must journal its own mutable state (see the co-simulated monitor
// domains in internal/experiments/scale.go for the idiom).

// specSaveNil / specRestoreNil are the sim.Engine.EnableSpeculation hooks of
// a fully journaled domain: every component checkpoints itself incrementally
// through SpecTouch/SpecUndo, so the domain-level eager checkpoint carries
// nothing.
func specSaveNil() any   { return nil }
func specRestoreNil(any) {}

// portShadow is the restore image of a Port's library-level state.
type portShadow struct {
	open       bool
	sendTokens int
	nextToken  uint64
	polling    bool
	recovering int
	peerEpoch  map[NodeID]uint64
	nextRegion uint32
	// regionsLen suffices for the regions slice: between spans it only ever
	// appends (RegisterMemory, revival), so restore is a truncation.
	regionsLen int
	stats      PortStats
	// Periodic-checkpoint dirty bits. regionMarks is value-copied: entries
	// are overwritten in place (markRegion), not only appended.
	ckptMark    uint64
	regionMarks []uint64

	callbacks map[uint64]SendCallback
	// pollQ copies the queue's live region; restore rebuilds it canonically.
	// (Receive advances the head by reslicing, so positions inside the
	// backing array are unobservable.)
	pollQ []gmproto.Event
}

func (p *Port) specTouch() { p.node.eng.SpecTouch(&p.specMark, p) }

// SpecSave / SpecRestore implement sim.SpecSaver.
func (p *Port) SpecSave() {
	sh := &p.specShadow
	sh.open = p.open
	sh.sendTokens = p.sendTokens
	sh.nextToken = p.nextToken
	sh.polling = p.polling
	sh.recovering = p.recovering
	sh.peerEpoch = p.peerEpoch
	sh.nextRegion = p.nextRegion
	sh.regionsLen = len(p.regions)
	sh.stats = p.stats
	sh.ckptMark = p.ckptMark
	sh.regionMarks = append(sh.regionMarks[:0], p.regionMarks...)
	if sh.callbacks == nil {
		sh.callbacks = make(map[uint64]SendCallback, len(p.callbacks))
	} else {
		clear(sh.callbacks)
	}
	for id, cb := range p.callbacks {
		sh.callbacks[id] = cb
	}
	sh.pollQ = append(sh.pollQ[:0], p.pollQueue...)
}

func (p *Port) SpecRestore() {
	sh := &p.specShadow
	p.open = sh.open
	p.sendTokens = sh.sendTokens
	p.nextToken = sh.nextToken
	p.polling = sh.polling
	p.recovering = sh.recovering
	p.peerEpoch = sh.peerEpoch
	p.nextRegion = sh.nextRegion
	p.stats = sh.stats
	p.ckptMark = sh.ckptMark
	p.regionMarks = append(p.regionMarks[:0], sh.regionMarks...)
	// A Kill inside the span nils the callback table; the pre-span table was
	// always non-nil (buildPort), so rebuild it on that path.
	if p.callbacks == nil {
		p.callbacks = make(map[uint64]SendCallback, len(sh.callbacks))
	} else {
		clear(p.callbacks)
	}
	for id, cb := range sh.callbacks {
		p.callbacks[id] = cb
	}
	p.pollQueue = append(p.pollQueue[:0], sh.pollQ...)
	if len(p.regions) > sh.regionsLen {
		for i := sh.regionsLen; i < len(p.regions); i++ {
			p.regions[i] = nil
		}
		p.regions = p.regions[:sh.regionsLen]
	}
}

// nodeShadow is the restore image of the Node's library-level state. The
// ports live in a fixed array (PortID < MaxPorts), so saving them copies at
// most eight pointers.
type nodeShadow struct {
	rxAcks            *core.RxAckTable
	dead              bool
	reviveGen         uint64
	pendingRecoveries int
	pendingRevive     int
	recoveryBusyUntil sim.Time

	ports       [MaxPorts]*Port
	unreachable map[NodeID]bool

	// Periodic checkpointer: the instance pointer plus a value copy of its
	// journaled state block. The encode arenas are deliberately outside the
	// copy — a rolled-back span re-executes deterministically and rebuilds
	// them with identical bytes.
	pc        *periodicCkpt
	pcs       periodicState
	ckptEpoch uint64
}

func (n *Node) specTouch() { n.eng.SpecTouch(&n.specMark, n) }

// SpecSave / SpecRestore implement sim.SpecSaver.
func (n *Node) SpecSave() {
	sh := &n.specShadow
	sh.rxAcks = n.rxAcks
	sh.dead = n.dead
	sh.reviveGen = n.reviveGen
	sh.pendingRecoveries = n.pendingRecoveries
	sh.pendingRevive = n.pendingRevive
	sh.recoveryBusyUntil = n.recoveryBusyUntil
	sh.ports = [MaxPorts]*Port{}
	for id, p := range n.ports {
		sh.ports[id] = p
	}
	if sh.unreachable == nil {
		sh.unreachable = make(map[NodeID]bool, len(n.unreachable))
	} else {
		clear(sh.unreachable)
	}
	for id, v := range n.unreachable {
		sh.unreachable[id] = v
	}
	sh.pc = n.pc
	if n.pc != nil {
		sh.pcs = n.pc.s
	}
	sh.ckptEpoch = n.ckptEpoch
}

func (n *Node) SpecRestore() {
	sh := &n.specShadow
	n.rxAcks = sh.rxAcks
	n.dead = sh.dead
	n.reviveGen = sh.reviveGen
	n.pendingRecoveries = sh.pendingRecoveries
	n.pendingRevive = sh.pendingRevive
	n.recoveryBusyUntil = sh.recoveryBusyUntil
	// Kill replaces the port map wholesale; map identity is unobservable, so
	// restoring the contents into whichever map the node holds is exact.
	clear(n.ports)
	for id, p := range sh.ports {
		if p != nil {
			n.ports[PortID(id)] = p
		}
	}
	clear(n.unreachable)
	for id, v := range sh.unreachable {
		n.unreachable[id] = v
	}
	n.pc = sh.pc
	if n.pc != nil {
		n.pc.s = sh.pcs
	}
	n.ckptEpoch = sh.ckptEpoch
}
