package mcp

// Speculation journaling for the MCP (the sim spec.go undo-journal contract,
// DESIGN.md §16). The MCP is the densest mutable state on a node domain, so
// it checkpoints at several granularities rather than as one deep copy:
//
//   - one core saver for the scalars, the pending-work rings (live regions,
//     rebuilt canonically at head 0 on rollback), the container headers and
//     the record pools;
//   - per-stream / per-message / per-reassembly / per-port savers, so a span
//     that brushes one stream does not copy them all;
//   - raw undo records for in-place table and map edits. A stream-chain
//     record carries the address of the link it overwrote (a table slot or
//     a stream's next field; a pointer boxes without allocating, a slice
//     header would not) rather than the MCP field, because a LoadAndStart
//     or a table growth later in the same span may replace the field
//     wholesale — the undo must edit the array it recorded, and the core
//     saver separately restores the field.
//
// Touch discipline: every externally reachable mutating entry point — host
// API calls, ISR/timer callbacks, dispatch callbacks, the retransmission
// timer body — touches the core and whatever fine-grained objects it
// mutates before the first write. Internal helpers rely on their callers'
// touches only where every caller is enumerated here; elsewhere they touch
// redundantly (a touch after the first is one pointer compare).

import (
	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/sim"
)

// mcpShadow is the core restore image.
type mcpShadow struct {
	nodeID           gmproto.NodeID
	gen              uint64
	nextMsgID        uint32
	pageTableEntries int
	recvScheduled    bool
	sendScheduled    bool
	adoptNackSeq     bool
	corruptNextSend  int
	loaded           bool
	stats            Stats

	// Saved by reference: wholesale replacement (LoadAndStart, UploadRoutes,
	// table growth) is undone by restoring the header; in-place inserts and
	// deletes are journaled as raw records at the mutation site.
	routes    [][]byte
	tx        []*txStream
	rx        []*rxStream
	deadPeers map[gmproto.NodeID]bool

	ports     [gmproto.MaxPorts]*portState
	alarms    []alarmReq
	inService []*fabric.Packet

	svcQ     []svcItem
	commitQ  []dmaCommit
	ctrlQ    []ctrlItem
	evQ      []evItem
	rawQ     []*fabric.Packet
	deliverQ []deliverItem
	edmaQ    []deliverItem
	fragQ    []*txStream
	// fragDMA and fragProcA relative to the ring head.
	fragDMA, fragProcA int

	msgPool []*txMsg
	pmPool  []*partialMsg
}

func (m *MCP) specTouch() { m.eng.SpecTouch(&m.specMark, m) }

func (m *MCP) touchTx(s *txStream)        { m.eng.SpecTouch(&s.specMark, s) }
func (m *MCP) touchRx(rs *rxStream)       { m.eng.SpecTouch(&rs.specMark, rs) }
func (m *MCP) touchMsg(msg *txMsg)        { m.eng.SpecTouch(&msg.specMark, msg) }
func (m *MCP) touchPort(ps *portState)    { m.eng.SpecTouch(&ps.specMark, ps) }
func (m *MCP) touchPartial(p *partialMsg) { m.eng.SpecTouch(&p.specMark, p) }

// SpecSave / SpecRestore implement sim.SpecSaver for the MCP core.
func (m *MCP) SpecSave() {
	sh := &m.shadow
	sh.nodeID, sh.gen, sh.nextMsgID = m.nodeID, m.gen, m.nextMsgID
	sh.pageTableEntries = m.pageTableEntries
	sh.recvScheduled, sh.sendScheduled = m.recvScheduled, m.sendScheduled
	sh.adoptNackSeq, sh.corruptNextSend, sh.loaded = m.adoptNackSeq, m.corruptNextSend, m.loaded
	sh.stats = m.stats
	sh.routes, sh.tx, sh.rx, sh.deadPeers = m.routes, m.tx, m.rx, m.deadPeers
	sh.ports = m.ports
	sh.alarms = append(sh.alarms[:0], m.alarms...)
	sh.inService = append(sh.inService[:0], m.inService...)
	sh.svcQ = append(sh.svcQ[:0], m.svcQ[m.svcHead:]...)
	sh.commitQ = append(sh.commitQ[:0], m.commitQ[m.commitHead:]...)
	sh.ctrlQ = append(sh.ctrlQ[:0], m.ctrlQ[m.ctrlHead:]...)
	sh.evQ = append(sh.evQ[:0], m.evQ[m.evHead:]...)
	sh.rawQ = append(sh.rawQ[:0], m.rawQ[m.rawHead:]...)
	sh.deliverQ = append(sh.deliverQ[:0], m.deliverQ[m.deliverHead:]...)
	sh.edmaQ = append(sh.edmaQ[:0], m.edmaQ[m.edmaHead:]...)
	sh.fragQ = append(sh.fragQ[:0], m.fragQ[m.fragHead:]...)
	sh.fragDMA, sh.fragProcA = m.fragDMA-m.fragHead, m.fragProcA-m.fragHead
	sh.msgPool = append(sh.msgPool[:0], m.msgPool...)
	sh.pmPool = append(sh.pmPool[:0], m.pmPool...)
}

func (m *MCP) SpecRestore() {
	sh := &m.shadow
	m.nodeID, m.gen, m.nextMsgID = sh.nodeID, sh.gen, sh.nextMsgID
	m.pageTableEntries = sh.pageTableEntries
	m.recvScheduled, m.sendScheduled = sh.recvScheduled, sh.sendScheduled
	m.adoptNackSeq, m.corruptNextSend, m.loaded = sh.adoptNackSeq, sh.corruptNextSend, sh.loaded
	m.stats = sh.stats
	m.routes, m.tx, m.rx, m.deadPeers = sh.routes, sh.tx, sh.rx, sh.deadPeers
	m.ports = sh.ports
	m.alarms = append(m.alarms[:0], sh.alarms...)
	// Zero stale tails before the rebuild so retained backing arrays cannot
	// pin packets or host buffers, then rebuild each ring at head 0. Slot
	// positions are unobservable (only pop order matters), so the canonical
	// shape replays bit-for-bit.
	for i := len(sh.inService); i < len(m.inService); i++ {
		m.inService[i] = nil
	}
	m.inService = append(m.inService[:0], sh.inService...)
	for i := len(sh.svcQ); i < len(m.svcQ); i++ {
		m.svcQ[i] = svcItem{}
	}
	m.svcQ, m.svcHead = append(m.svcQ[:0], sh.svcQ...), 0
	for i := len(sh.commitQ); i < len(m.commitQ); i++ {
		m.commitQ[i] = dmaCommit{}
	}
	m.commitQ, m.commitHead = append(m.commitQ[:0], sh.commitQ...), 0
	for i := len(sh.ctrlQ); i < len(m.ctrlQ); i++ {
		m.ctrlQ[i] = ctrlItem{}
	}
	m.ctrlQ, m.ctrlHead = append(m.ctrlQ[:0], sh.ctrlQ...), 0
	for i := len(sh.evQ); i < len(m.evQ); i++ {
		m.evQ[i] = evItem{}
	}
	m.evQ, m.evHead = append(m.evQ[:0], sh.evQ...), 0
	for i := len(sh.rawQ); i < len(m.rawQ); i++ {
		m.rawQ[i] = nil
	}
	m.rawQ, m.rawHead = append(m.rawQ[:0], sh.rawQ...), 0
	for i := len(sh.deliverQ); i < len(m.deliverQ); i++ {
		m.deliverQ[i] = deliverItem{}
	}
	m.deliverQ, m.deliverHead = append(m.deliverQ[:0], sh.deliverQ...), 0
	for i := len(sh.edmaQ); i < len(m.edmaQ); i++ {
		m.edmaQ[i] = deliverItem{}
	}
	m.edmaQ, m.edmaHead = append(m.edmaQ[:0], sh.edmaQ...), 0
	for i := len(sh.fragQ); i < len(m.fragQ); i++ {
		m.fragQ[i] = nil
	}
	m.fragQ, m.fragHead = append(m.fragQ[:0], sh.fragQ...), 0
	m.fragDMA, m.fragProcA = sh.fragDMA, sh.fragProcA
	for i := len(sh.msgPool); i < len(m.msgPool); i++ {
		m.msgPool[i] = nil
	}
	m.msgPool = append(m.msgPool[:0], sh.msgPool...)
	for i := len(sh.pmPool); i < len(m.pmPool); i++ {
		m.pmPool[i] = nil
	}
	m.pmPool = append(m.pmPool[:0], sh.pmPool...)
}

// --- per-object shadows ---

type txStreamShadow struct {
	nextSeq                                   uint32
	window                                    []*txMsg
	rtx                                       *sim.Event
	stalls                                    int
	txBusy, needSort, queued                  bool
	cur                                       *txMsg
	curIsRtx                                  bool
	curTotal, curNfrag, curFrag, curLo, curHi int
	curRoute                                  []byte
	rtxGen                                    uint64
	rtxAt                                     sim.Time
	nfailed                                   int
}

func (s *txStream) SpecSave() {
	sh := &s.shadow
	sh.nextSeq, sh.rtx, sh.stalls = s.nextSeq, s.rtx, s.stalls
	sh.txBusy, sh.needSort, sh.queued = s.txBusy, s.needSort, s.queued
	sh.cur, sh.curIsRtx = s.cur, s.curIsRtx
	sh.curTotal, sh.curNfrag, sh.curFrag = s.curTotal, s.curNfrag, s.curFrag
	sh.curLo, sh.curHi = s.curLo, s.curHi
	sh.curRoute, sh.rtxGen = s.curRoute, s.rtxGen
	sh.rtxAt, sh.nfailed = s.rtxAt, s.nfailed
	sh.window = append(sh.window[:0], s.window...)
}

func (s *txStream) SpecRestore() {
	sh := &s.shadow
	s.nextSeq, s.rtx, s.stalls = sh.nextSeq, sh.rtx, sh.stalls
	s.txBusy, s.needSort, s.queued = sh.txBusy, sh.needSort, sh.queued
	s.cur, s.curIsRtx = sh.cur, sh.curIsRtx
	s.curTotal, s.curNfrag, s.curFrag = sh.curTotal, sh.curNfrag, sh.curFrag
	s.curLo, s.curHi = sh.curLo, sh.curHi
	s.curRoute, s.rtxGen = sh.curRoute, sh.rtxGen
	s.rtxAt, s.nfailed = sh.rtxAt, sh.nfailed
	for i := len(sh.window); i < len(s.window); i++ {
		s.window[i] = nil
	}
	s.window = append(s.window[:0], sh.window...)
}

type txMsgShadow struct {
	tok                                gmproto.SendToken
	seq, msgID                         uint32
	inFlight, sending, needRtx, failed bool
}

func (msg *txMsg) SpecSave() {
	msg.shadow = txMsgShadow{tok: msg.tok, seq: msg.seq, msgID: msg.msgID,
		inFlight: msg.inFlight, sending: msg.sending, needRtx: msg.needRtx, failed: msg.failed}
}

func (msg *txMsg) SpecRestore() {
	sh := &msg.shadow
	msg.tok, msg.seq, msg.msgID = sh.tok, sh.seq, sh.msgID
	msg.inFlight, msg.sending, msg.needRtx, msg.failed = sh.inFlight, sh.sending, sh.needRtx, sh.failed
}

type rxStreamShadow struct {
	arrivedSeq, committedSeq uint32
	partial                  *partialMsg
}

func (rs *rxStream) SpecSave() {
	rs.shadow = rxStreamShadow{arrivedSeq: rs.arrivedSeq, committedSeq: rs.committedSeq, partial: rs.partial}
}

func (rs *rxStream) SpecRestore() {
	rs.arrivedSeq, rs.committedSeq, rs.partial = rs.shadow.arrivedSeq, rs.shadow.committedSeq, rs.shadow.partial
}

// partialShadow journals the reassembly record's header fields only. The
// buffer CONTENT is host memory and is deliberately not journaled: a rolled
// back fragment copy leaves bytes in the user buffer, but every read of
// them is gated on delivery events that roll back with the span, and the
// bit-for-bit replay re-copies the identical fragment (DESIGN.md §16).
type partialShadow struct {
	hdr                 gmproto.DataHeader
	buf                 []byte
	arrived, dmaDone    uint32
	tok                 gmproto.RecvToken
	committed, directed bool
}

func (p *partialMsg) SpecSave() {
	p.shadow = partialShadow{hdr: p.hdr, buf: p.buf, arrived: p.arrived, dmaDone: p.dmaDone,
		tok: p.tok, committed: p.committed, directed: p.directed}
}

func (p *partialMsg) SpecRestore() {
	sh := &p.shadow
	p.hdr, p.buf, p.arrived, p.dmaDone = sh.hdr, sh.buf, sh.arrived, sh.dmaDone
	p.tok, p.committed, p.directed = sh.tok, sh.committed, sh.directed
}

type portShadow struct {
	open       bool
	frozen     bool
	sendQ      []gmproto.SendToken
	recvTokens []gmproto.RecvToken
	frozenQ    []deliverItem
	sink       EventSink
	regions    map[uint32][]byte
}

func (ps *portState) SpecSave() {
	sh := &ps.shadow
	sh.open, sh.frozen = ps.open, ps.frozen
	sh.sink, sh.regions = ps.sink, ps.regions
	sh.sendQ = append(sh.sendQ[:0], ps.sendQ...)
	sh.recvTokens = append(sh.recvTokens[:0], ps.recvTokens...)
	sh.frozenQ = append(sh.frozenQ[:0], ps.frozenQ...)
}

func (ps *portState) SpecRestore() {
	sh := &ps.shadow
	ps.open, ps.frozen = sh.open, sh.frozen
	ps.sink, ps.regions = sh.sink, sh.regions
	for i := len(sh.sendQ); i < len(ps.sendQ); i++ {
		ps.sendQ[i] = gmproto.SendToken{}
	}
	ps.sendQ = append(ps.sendQ[:0], sh.sendQ...)
	for i := len(sh.recvTokens); i < len(ps.recvTokens); i++ {
		ps.recvTokens[i] = gmproto.RecvToken{}
	}
	ps.recvTokens = append(ps.recvTokens[:0], sh.recvTokens...)
	for i := len(sh.frozenQ); i < len(ps.frozenQ); i++ {
		ps.frozenQ[i] = deliverItem{}
	}
	ps.frozenQ = append(ps.frozenQ[:0], sh.frozenQ...)
}

// --- raw undo records for in-place table and map mutation ---

// txSlotUndo / rxSlotUndo put back one stream-chain link: a is its address,
// b the stream it held.
func txSlotUndo(a, b any, _, _ uint64) { *a.(**txStream) = b.(*txStream) }

func rxSlotUndo(a, b any, _, _ uint64) { *a.(**rxStream) = b.(*rxStream) }

func deadUndoInsert(a, _ any, v1, _ uint64) {
	delete(a.(map[gmproto.NodeID]bool), gmproto.NodeID(v1))
}

func deadUndoDelete(a, _ any, v1, _ uint64) {
	a.(map[gmproto.NodeID]bool)[gmproto.NodeID(v1)] = true
}

// regionUndoSet reverts ps.regions[v1]: v2==1 restores the previous buffer
// (boxed in b — a rare-path allocation, region registration is port setup),
// v2==0 removes the entry.
func regionUndoSet(a, b any, v1, v2 uint64) {
	mp := a.(map[uint32][]byte)
	if v2 == 0 {
		delete(mp, uint32(v1))
	} else {
		mp[uint32(v1)] = b.([]byte)
	}
}
