package mcp

import (
	"sort"

	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/sim"
)

// txStream is the sender side of one reliable stream: a Go-Back-N window of
// messages ordered by sequence number. In stock GM there is one stream per
// connection (remote node) and the MCP assigns sequence numbers; in FTGM
// there is one per (local port, remote node) and the host assigns them
// (§4.1).
type txStream struct {
	id      gmproto.StreamID // {remote node, local sending port}
	next    *txStream        // the node's next stream, in (port, prio) order
	nextSeq uint32           // next MCP-assigned seq (GM mode); last+1
	window  []*txMsg
	// win0 backs the window until it outgrows two messages, so a new
	// stream's first sends allocate nothing beyond the stream itself.
	win0 [2]*txMsg
	rtx  *sim.Event
	// stalls counts consecutive timeout-retransmit rounds with no ACK or
	// NACK heard: ordinary loss produces control traffic, a dead path
	// produces silence. At Config.NetFaultThreshold the MCP raises a
	// NET_FAULT_SUSPECTED report to the host.
	stalls int
	// txBusy serializes messages onto the wire: fragments of one message
	// go out back to back, and the next message starts only when the
	// previous one is fully injected. Go-Back-N at message granularity
	// requires in-order arrival of message starts; the wire is serial
	// anyway, so this costs no bandwidth.
	txBusy bool
	// needSort marks that the last service round appended a token out of
	// sequence order (restored tokens interleaved with fresh sends around
	// a recovery); the window is sorted once before pumping instead of
	// shifting per insert. ackPrefix relies on the window being sorted.
	needSort bool
	// nfailed counts window messages marked failed and not yet swept, so
	// the per-pump sweep can skip the window rewrite on the (overwhelmingly
	// common) failure-free path.
	nfailed int
	// rtxAt is the Go-Back-N timer's current deadline, 0 when disarmed.
	// Re-arming stores the new deadline instead of cancel+reschedule; the
	// queued event re-arms itself on an early fire. ACK-heavy traffic
	// re-arms per message, so this keeps timer churn out of the event heap.
	rtxAt sim.Time
	// queued marks the stream as already on the serviceSendQueues touched
	// list for the current round.
	queued bool

	// Fragment pipeline state for the message currently on the wire. txBusy
	// serializes messages, so one set of fields per stream suffices: at
	// most one fragment of a stream is in the MCP's fragQ at a time.
	cur          *txMsg
	curIsRtx     bool
	curTotal     int
	curNfrag     int
	curFrag      int
	curLo, curHi int
	curRoute     []byte

	// rtxFn is the cached retransmission-timer body; rtxGen is the MCP
	// generation it was armed under (a reload invalidates armed timers).
	rtxFn  func()
	rtxGen uint64

	// Speculation journaling (sim spec.go, DESIGN.md §16).
	specMark uint64
	shadow   txStreamShadow
}

type txMsg struct {
	tok      gmproto.SendToken
	seq      uint32
	msgID    uint32
	inFlight bool // fully transmitted at least once
	sending  bool // fragment chain in progress
	needRtx  bool // scheduled for retransmission (NACK or timeout)
	failed   bool // unroutable; swept out of the window lazily

	// Speculation journaling (sim spec.go, DESIGN.md §16).
	specMark uint64
	shadow   txMsgShadow
}

func (m *MCP) txStreamFor(id gmproto.StreamID) *txStream {
	s := m.txFind(id)
	if s == nil {
		s = &txStream{id: id}
		s.window = s.win0[:0]
		s.rtxFn = func() {
			m.touchTx(s)
			s.rtx = nil
			if m.gen != s.rtxGen || !m.chip.Running() {
				return
			}
			if now := m.eng.Now(); s.rtxAt > now {
				// The deadline moved forward since this event was scheduled
				// (an ACK or a fresh transmission re-armed the timer): hop to
				// the current deadline instead of firing.
				s.rtx = m.eng.AfterLabel(s.rtxAt-now, "rtx", s.rtxFn)
				return
			}
			if s.rtxAt == 0 {
				return // disarmed: the window drained while this event was queued
			}
			s.rtxAt = 0
			m.retransmitWindow(s)
		}
		if m.mode == ModeGM {
			// Stock GM's MCP picks the connection's initial sequence number
			// itself; a reloaded MCP starts a fresh sequence space that has
			// nothing to do with the receiver's expectation — the root of
			// the Figure 4 duplicate. Each load uses a distinct base
			// (standing in for the real MCP's arbitrary initialization).
			s.nextSeq = uint32(m.gen) * 100000
		}
		m.txInsert(s)
	}
	return s
}

func (m *MCP) rxStreamFor(id gmproto.StreamID) *rxStream {
	rs := m.rxFind(id)
	if rs == nil {
		rs = &rxStream{id: id}
		m.rxInsert(rs)
	}
	return rs
}

// The stream tables are indexed by remote NodeID (the mapper hands out the
// smallest unused IDs, so they are dense); each slot heads a chain of that
// node's streams sorted by (port, prio), the order FailPeer and
// ResetPeerStreams post their events in. tx and rx always have the same
// length.

// sizeTables makes the stream tables at least n slots long.
func (m *MCP) sizeTables(n int) {
	if n <= len(m.tx) {
		return
	}
	m.specTouch() // the core shadow holds the old slice headers
	m.tx = append(m.tx, make([]*txStream, n-len(m.tx))...)
	m.rx = append(m.rx, make([]*rxStream, n-len(m.rx))...)
}

func streamBefore(a, b gmproto.StreamID) bool {
	if a.Port != b.Port {
		return a.Port < b.Port
	}
	return a.Prio < b.Prio
}

func (m *MCP) txFind(id gmproto.StreamID) *txStream {
	if int(id.Node) < len(m.tx) {
		for s := m.tx[id.Node]; s != nil; s = s.next {
			if s.id == id {
				return s
			}
		}
	}
	return nil
}

func (m *MCP) rxFind(id gmproto.StreamID) *rxStream {
	if int(id.Node) < len(m.rx) {
		for rs := m.rx[id.Node]; rs != nil; rs = rs.next {
			if rs.id == id {
				return rs
			}
		}
	}
	return nil
}

// txInsert / rxInsert link a new stream into its node's chain. The link
// they overwrite — a table slot or a stream's next field — is journaled by
// address, so a rollback restores it in whichever array it lives.
func (m *MCP) txInsert(s *txStream) {
	m.sizeTables(int(s.id.Node) + 1)
	p := &m.tx[s.id.Node]
	for *p != nil && streamBefore((*p).id, s.id) {
		p = &(*p).next
	}
	m.eng.SpecUndo(txSlotUndo, p, *p, 0, 0)
	s.next, *p = *p, s
}

func (m *MCP) rxInsert(rs *rxStream) {
	m.sizeTables(int(rs.id.Node) + 1)
	p := &m.rx[rs.id.Node]
	for *p != nil && streamBefore((*p).id, rs.id) {
		p = &(*p).next
	}
	m.eng.SpecUndo(rxSlotUndo, p, *p, 0, 0)
	rs.next, *p = *p, rs
}

// route returns node's source route: nil when there is none, non-nil (and
// possibly empty, for a back-to-back cable) otherwise.
func (m *MCP) route(node gmproto.NodeID) []byte {
	if int(node) < len(m.routes) {
		return m.routes[node]
	}
	return nil
}

// serviceSendQueues drains every open port's send queue into the per-stream
// windows and pumps the touched streams.
func (m *MCP) serviceSendQueues() {
	m.specTouch()
	touched := m.touched[:0] // ordered: simulation must be deterministic
	for _, ps := range m.ports {
		if ps == nil || !ps.open {
			continue
		}
		// High-priority tokens are serviced ahead of queued low-priority
		// ones (GM's two non-preemptive priority levels, §3.1): an
		// in-flight low transfer is never preempted, but a waiting one is
		// overtaken. Two passes over the queue avoid building a reordered
		// copy on every doorbell.
		for pass := 0; pass < 2; pass++ {
			for _, tok := range ps.sendQ {
				if (tok.Prio == gmproto.PriorityHigh) != (pass == 0) {
					continue
				}
				if m.deadPeers[tok.Dest] {
					m.stats.UnreachableFails++
					m.completeToken(tok, tok.Seq, gmproto.SendErrorUnreachable)
					continue
				}
				id := gmproto.StreamID{Node: tok.Dest, Port: tok.SrcPort, Prio: tok.Prio}
				if m.mode == ModeGM {
					id.Port = gmproto.ConnectionPort
				}
				s := m.txStreamFor(id)
				m.touchTx(s)
				msg := m.getTxMsg()
				msg.tok, msg.msgID = tok, m.nextMsgID
				m.nextMsgID++
				if m.mode == ModeFTGM && tok.HasSeq {
					// Host-generated sequence number travels in the token; the
					// MCP "simply uses these sequence numbers rather than
					// generating its own" (§4.1).
					msg.seq = tok.Seq
					if tok.Seq >= s.nextSeq {
						s.nextSeq = tok.Seq + 1
					}
				} else {
					s.nextSeq++
					msg.seq = s.nextSeq
				}
				// Go-Back-N requires the window sorted by sequence number,
				// and restored tokens and fresh sends can arrive interleaved
				// around a recovery — but shifting the tail on every insert is
				// quadratic in the window size. Append, note disorder, and
				// sort once per touched stream below.
				if n := len(s.window); n > 0 && s.window[n-1].seq > msg.seq {
					s.needSort = true
				}
				s.window = append(s.window, msg)
				if !s.queued {
					s.queued = true
					touched = append(touched, s)
				}
			}
		}
		// Truncate in place, dropping the token payload references so the
		// retained backing array cannot pin host buffers.
		if len(ps.sendQ) > 0 {
			m.touchPort(ps)
		}
		for i := range ps.sendQ {
			ps.sendQ[i] = gmproto.SendToken{}
		}
		ps.sendQ = ps.sendQ[:0]
	}
	for _, s := range touched {
		s.queued = false
		if s.needSort {
			w := s.window
			sort.Slice(w, func(i, j int) bool { return w[i].seq < w[j].seq })
			s.needSort = false
		}
		m.pumpStream(s)
	}
	for i := range touched {
		touched[i] = nil
	}
	m.touched = touched[:0]
}

// sweepFailed drops unroutable messages from the window, recycling their
// records (they completed with an error when they were marked). With no
// failed messages pending it is a counter check, not a window walk.
func (m *MCP) sweepFailed(s *txStream) {
	if s.nfailed == 0 {
		return
	}
	m.touchTx(s)
	s.nfailed = 0
	w := s.window[:0]
	for _, msg := range s.window {
		if !msg.failed {
			w = append(w, msg)
			continue
		}
		m.freeTxMsg(s, msg)
	}
	s.window = w
}

// pumpStream starts transmission of the first window message that needs
// the wire (never sent, or marked for retransmission), oldest first.
func (m *MCP) pumpStream(s *txStream) {
	m.touchTx(s)
	m.sweepFailed(s)
	if s.txBusy {
		return
	}
	limit := m.cfg.WindowSize
	for i, msg := range s.window {
		if i >= limit {
			break
		}
		if msg.failed || msg.sending {
			continue
		}
		if !msg.inFlight || msg.needRtx {
			s.txBusy = true
			m.transmitMsg(s, msg, msg.inFlight)
			return
		}
	}
}

// transmitMsg runs the per-fragment send pipeline: SendProcA (token decode,
// DMA setup), host DMA of the fragment into SRAM, SendProcB (send_chunk:
// header build and packet injection). Fragments of one message go back to
// back; distinct messages pipeline through the window.
func (m *MCP) transmitMsg(s *txStream, msg *txMsg, isRtx bool) {
	m.specTouch()
	m.touchTx(s)
	m.touchMsg(msg)
	route := m.route(s.id.Node)
	if route == nil {
		if !m.deadPeers[s.id.Node] && isRtx {
			// An in-flight message had a route once; losing it transiently
			// (a remap just replaced the table) is not grounds for a
			// terminal drop. Park the message until the next timeout round.
			msg.needRtx = true
			s.txBusy = false
			m.armRtx(s)
			return
		}
		// No route: GM reports a failed send to the application. The
		// window slot is swept on the next pump (callers may be ranging
		// over the window right now).
		status := gmproto.SendErrorDropped
		if m.deadPeers[s.id.Node] {
			status = gmproto.SendErrorUnreachable
			m.stats.UnreachableFails++
		}
		m.completeSend(msg, status)
		msg.failed = true
		s.nfailed++
		s.txBusy = false
		m.pumpStream(s)
		return
	}
	if isRtx {
		m.stats.Retransmits++
	}
	msg.sending = true
	msg.needRtx = false
	total := len(msg.tok.Data)
	nfrag := (total + gmproto.MaxPacketPayload - 1) / gmproto.MaxPacketPayload
	if nfrag == 0 {
		nfrag = 1
	}
	s.cur = msg
	s.curIsRtx = isRtx
	s.curTotal = total
	s.curNfrag = nfrag
	s.curFrag = 0
	s.curRoute = route
	m.startFrag(s)
}

// startFrag queues SendProcA for the stream's current fragment and pushes
// the stream onto fragQ, whose cursors then carry the fragment through DMA
// and injection.
func (m *MCP) startFrag(s *txStream) {
	s.curLo = s.curFrag * gmproto.MaxPacketPayload
	s.curHi = s.curLo + gmproto.MaxPacketPayload
	if s.curHi > s.curTotal {
		s.curHi = s.curTotal
	}
	if !m.chip.Running() {
		// Exec would drop the slot; don't queue an orphan record.
		return
	}
	procA := m.cfg.SendProcA
	if s.curFrag == 0 && m.mode == ModeFTGM {
		procA += m.cfg.FTGMSendExtra
	}
	head := m.fragHead
	m.fragQ, m.fragHead = sim.SlideFIFO(m.fragQ, m.fragHead)
	m.fragDMA -= head - m.fragHead
	m.fragProcA -= head - m.fragHead
	m.fragQ = append(m.fragQ, s)
	m.chip.Exec(procA, m.fragProcAFn)
}

// fragProcADone starts the host DMA of the oldest fragment whose SendProcA
// slot just ended.
func (m *MCP) fragProcADone() {
	m.specTouch()
	s := m.fragQ[m.fragProcA]
	m.fragProcA++
	m.chip.HostDMA(s.curHi-s.curLo, m.fragDMAFn)
}

// fragDMADone queues SendProcB for the oldest fragment whose DMA just
// completed.
func (m *MCP) fragDMADone() {
	m.specTouch()
	m.fragDMA++
	m.chip.Exec(m.cfg.SendProcB, m.fragProcBFn)
}

// fragProcBDone injects the oldest fragment, whose SendProcB slot just
// ended, and retires it from the ring.
func (m *MCP) fragProcBDone() {
	m.specTouch()
	s := m.fragQ[m.fragHead]
	m.fragQ[m.fragHead] = nil
	m.fragHead++
	m.injectFrag(s)
}

// injectFrag is the send_chunk tail: build the fragment header, seal, and
// inject; then chain to the next fragment or finish the message.
func (m *MCP) injectFrag(s *txStream) {
	m.specTouch()
	m.touchTx(s)
	msg := s.cur
	m.touchMsg(msg)
	h := gmproto.DataHeader{
		Src:          m.nodeID,
		Dst:          s.id.Node,
		SrcPort:      msg.tok.SrcPort,
		DstPort:      msg.tok.DestPort,
		Prio:         msg.tok.Prio,
		Seq:          msg.seq,
		MsgID:        msg.msgID,
		MsgLen:       uint32(s.curTotal),
		Offset:       uint32(s.curLo),
		Directed:     msg.tok.Directed,
		RegionID:     msg.tok.RegionID,
		RemoteOffset: msg.tok.RemoteOffset,
	}
	pkt := fabric.GetPacketSpec(m.eng)
	// The route slice is interned, not copied: UploadRoutes installs fresh
	// copies per epoch and never mutates them, and switches only re-slice
	// pkt.Route, so every packet of a (stream, route-epoch) can alias one
	// backing array.
	pkt.Route = s.curRoute
	pkt.SrcLabel = m.chip.Name()
	pkt.Injected = m.eng.Now()
	// One copy per fragment: the pooled buffer holds only the header, and
	// Body references the pinned send buffer, which GM owns until the send
	// callback fires (DESIGN.md §11). The receive side's copy into the host
	// buffer is the only copy of these bytes.
	h.EncodeTo(pkt.Buf(gmproto.DataHeaderSize), nil)
	pkt.Body = msg.tok.Data[s.curLo:s.curHi:s.curHi]
	switch {
	case m.corruptNextSend > 0:
		// Pre-seal fault: the bit flipped while the fragment sat in SRAM,
		// before send_chunk computed the CRC — the damage passes the
		// link-level check and reaches the application (Table 1 "Messages
		// Corrupted").
		pkt.CorruptPayload(m.corruptNextSend, false)
		pkt.SealCRC()
		m.corruptNextSend = 0
	case m.corruptNextSend < 0:
		// Post-seal (wire-level) fault: the receiver's CRC check catches it
		// and Go-Back-N retransmits.
		pkt.SealCRC()
		pkt.CorruptPayload(-m.corruptNextSend, false)
		m.corruptNextSend = 0
	default:
		pkt.SealCRC()
	}
	m.stats.FragmentsSent++
	m.chip.TransmitPacket(pkt)
	if s.curFrag+1 < s.curNfrag {
		s.curFrag++
		m.startFrag(s)
		return
	}
	msg.sending = false
	msg.inFlight = true
	if !s.curIsRtx {
		m.stats.MsgsSent++
	}
	s.cur = nil
	m.armRtx(s)
	s.txBusy = false
	m.pumpStream(s)
}

// armRtx (re)arms the stream's Go-Back-N retransmission timer. Only the
// deadline is written; if an event is already queued (necessarily at or
// before the new deadline — deadlines only move forward), it will hop to the
// stored deadline when it fires, so a re-arm never touches the event heap.
func (m *MCP) armRtx(s *txStream) {
	m.touchTx(s)
	s.rtxGen = m.gen
	s.rtxAt = m.eng.Now() + m.cfg.RtxTimeout
	if s.rtx == nil {
		s.rtx = m.eng.AfterLabel(m.cfg.RtxTimeout, "rtx", s.rtxFn)
	}
}

// retransmitWindow marks every in-flight unacknowledged message of the
// stream for resend, oldest first (Go-Back-N on timeout).
func (m *MCP) retransmitWindow(s *txStream) {
	m.specTouch()
	m.touchTx(s)
	m.sweepFailed(s)
	any := false
	for i, msg := range s.window {
		if i >= m.cfg.WindowSize {
			break
		}
		if msg.inFlight && !msg.sending {
			m.touchMsg(msg)
			msg.needRtx = true
			any = true
		}
	}
	if any {
		s.stalls++
		if t := m.cfg.NetFaultThreshold; t > 0 && s.stalls >= t {
			// Consecutive silent timeouts: the path is likely dead, not
			// lossy. Report and re-arm so a still-dead path keeps reporting
			// (the watchdog debounces on its side).
			s.stalls = 0
			m.stats.NetFaultSuspicions++
			if m.onNetFault != nil {
				m.onNetFault(s.id.Node)
			}
		}
		m.pumpStream(s)
	} else if len(s.window) > 0 {
		m.armRtx(s)
	}
}

// handleAck processes a cumulative ACK: every message with seq <= AckSeq is
// complete; its send token is passed back to the process via an EvSent
// event, which triggers the application callback (§3.1).
func (m *MCP) handleAck(h gmproto.AckHeader) {
	id := gmproto.StreamID{Node: h.Src, Port: h.SrcPort, Prio: h.Prio}
	s := m.txFind(id)
	if s == nil {
		return
	}
	m.specTouch()
	m.touchTx(s)
	s.stalls = 0 // control traffic heard: the path is alive
	m.sweepFailed(s)
	m.ackPrefix(s, uint64(h.AckSeq)+1)
	if len(s.window) == 0 {
		// Disarm by deadline: the queued event (if any) self-clears when it
		// fires, avoiding a cancel/compact cycle per drained window.
		s.rtxAt = 0
	} else {
		m.armRtx(s)
	}
	m.pumpStream(s)
}

// ackPrefix completes every in-flight window message with seq < end (a
// cumulative acknowledgment; end is one past the highest acknowledged seq).
// The window is sorted by seq — serviceSendQueues sorts it when an append
// lands out of order, and NACK adoption renumbers it in order — so those
// messages all lie in a prefix. Only that prefix is walked: its
// not-in-flight entries keep their order, and one copy closes the gap, so an
// ACK costs O(acknowledged), not O(window).
func (m *MCP) ackPrefix(s *txStream, end uint64) {
	w := s.window
	kept, i := 0, 0
	for ; i < len(w) && uint64(w[i].seq) < end; i++ {
		msg := w[i]
		if !msg.inFlight {
			w[kept] = msg
			kept++
			continue
		}
		m.stats.MsgsAcked++
		m.completeSend(msg, gmproto.SendOK)
		m.freeTxMsg(s, msg)
	}
	if kept < i {
		s.window = w[:kept+copy(w[kept:], w[i:])]
	}
}

// handleNack processes a NACK carrying the receiver's expected sequence
// number. Messages below it are implicitly acknowledged; transmission
// restarts from the expected message (Go-Back-N).
//
// If the expected sequence number is not in the window and adoptNackSeq is
// set (a naive post-reload MCP that lost its sequence state), the pending
// messages are renumbered starting at the receiver's expectation — the
// Figure 4 behavior that delivers a duplicate message.
func (m *MCP) handleNack(h gmproto.AckHeader) {
	id := gmproto.StreamID{Node: h.Src, Port: h.SrcPort, Prio: h.Prio}
	s := m.txFind(id)
	if s == nil {
		return
	}
	m.specTouch()
	m.touchTx(s)
	s.stalls = 0 // control traffic heard: the path is alive
	m.sweepFailed(s)
	expected := h.AckSeq
	// Implicit cumulative ACK below the expectation.
	m.ackPrefix(s, uint64(expected))

	found := false
	for _, msg := range s.window {
		if msg.seq == expected {
			found = true
			break
		}
	}
	if !found {
		if m.adoptNackSeq && len(s.window) > 0 {
			for i, msg := range s.window {
				m.touchMsg(msg)
				msg.seq = expected + uint32(i)
				msg.inFlight = false
			}
			s.nextSeq = expected + uint32(len(s.window))
			m.pumpStream(s)
		}
		// The expected message is not here (e.g. its token has not been
		// restored yet after a recovery): retransmitting higher sequence
		// numbers can only provoke further NACKs, so wait.
		return
	}
	for i, msg := range s.window {
		if i >= m.cfg.WindowSize {
			break
		}
		if msg.seq >= expected && msg.inFlight && !msg.sending {
			m.touchMsg(msg)
			msg.needRtx = true
		}
	}
	m.pumpStream(s)
}

// completeSend posts the EvSent/EvSendError event that returns the send
// token to the process and fires its callback.
func (m *MCP) completeSend(msg *txMsg, status gmproto.SendStatus) {
	m.completeToken(msg.tok, msg.seq, status)
}

// completeToken is completeSend for a token that never got a window slot.
func (m *MCP) completeToken(tok gmproto.SendToken, seq uint32, status gmproto.SendStatus) {
	ps := m.port(tok.SrcPort)
	if ps == nil || !ps.open || ps.sink == nil {
		return
	}
	ev := gmproto.Event{
		Port:    tok.SrcPort,
		TokenID: tok.ID,
		Seq:     seq,
		Status:  status,
	}
	if status == gmproto.SendOK {
		ev.Type = gmproto.EvSent
	} else {
		ev.Type = gmproto.EvSendError
	}
	m.postEvent(ps.sink, ev)
}

// FailPeer terminally fails all pending traffic toward node and marks it
// unreachable: queued send tokens and window messages complete with
// SendErrorUnreachable, their tx streams are dropped, and later sends to
// node fail immediately — the graceful-degradation half of the network
// watchdog's verdict. ResetPeerStreams readmits the peer.
func (m *MCP) FailPeer(node gmproto.NodeID) {
	m.specTouch()
	if !m.deadPeers[node] {
		m.eng.SpecUndo(deadUndoInsert, m.deadPeers, nil, uint64(node), 0)
	}
	m.deadPeers[node] = true
	// Queued tokens that never reached a window.
	for _, ps := range m.ports {
		if ps == nil || !ps.open {
			continue
		}
		if len(ps.sendQ) > 0 {
			m.touchPort(ps)
		}
		keep := ps.sendQ[:0]
		for _, tok := range ps.sendQ {
			if tok.Dest == node {
				m.stats.UnreachableFails++
				m.completeToken(tok, tok.Seq, gmproto.SendErrorUnreachable)
				continue
			}
			keep = append(keep, tok)
		}
		ps.sendQ = keep
	}
	// Window messages, in the chain's (port, prio) order.
	if int(node) >= len(m.tx) {
		return
	}
	for s := m.tx[node]; s != nil; s = s.next {
		m.touchTx(s)
		if s.rtx != nil {
			s.rtx.Cancel()
			s.rtx = nil
		}
		for _, msg := range s.window {
			if msg.failed {
				continue
			}
			m.touchMsg(msg)
			if msg.sending {
				// The fragment chain goes on injecting this message after
				// the error completion hands its buffer back: the rest of
				// the chain reads a private copy (DESIGN.md §11).
				msg.tok.Data = append([]byte(nil), msg.tok.Data...)
			}
			msg.failed = true
			m.stats.UnreachableFails++
			m.completeSend(msg, gmproto.SendErrorUnreachable)
		}
		s.window = nil
		s.nfailed = 0
		s.rtxAt = 0
	}
	m.eng.SpecUndo(txSlotUndo, &m.tx[node], m.tx[node], 0, 0)
	m.tx[node] = nil
}

// ResetPeerStreams clears every piece of protocol state shared with node —
// tx windows, rx reassembly and sequence expectations, the unreachable mark
// — so a readmitted peer and this node meet again on fresh streams (both
// sides restart at sequence 1 via the FTGM first-contact path).
func (m *MCP) ResetPeerStreams(node gmproto.NodeID) {
	m.specTouch()
	if m.deadPeers[node] {
		m.eng.SpecUndo(deadUndoDelete, m.deadPeers, nil, uint64(node), 0)
	}
	delete(m.deadPeers, node)
	if int(node) >= len(m.tx) {
		return
	}
	for s := m.tx[node]; s != nil; s = s.next {
		m.touchTx(s)
		if s.rtx != nil {
			s.rtx.Cancel()
			s.rtx = nil
		}
		s.rtxAt = 0
	}
	m.eng.SpecUndo(txSlotUndo, &m.tx[node], m.tx[node], 0, 0)
	m.tx[node] = nil
	m.eng.SpecUndo(rxSlotUndo, &m.rx[node], m.rx[node], 0, 0)
	m.rx[node] = nil
}

// PeerUnreachable reports whether node is currently marked unreachable.
func (m *MCP) PeerUnreachable(node gmproto.NodeID) bool { return m.deadPeers[node] }

// sendControl emits an ACK or NACK packet toward a node. The header and its
// route wait in the ctrl ring for the AckProc slot; the cached callback
// builds and injects the packet, so a control send allocates nothing.
func (m *MCP) sendControl(h gmproto.AckHeader) {
	m.specTouch()
	route := m.route(h.Dst)
	if route == nil {
		return
	}
	if !m.chip.Running() {
		// Exec would drop the slot; don't queue an orphan record.
		return
	}
	m.ctrlQ, m.ctrlHead = sim.SlideFIFO(m.ctrlQ, m.ctrlHead)
	m.ctrlQ = append(m.ctrlQ, ctrlItem{h: h, route: route})
	m.chip.Exec(m.cfg.AckProc, m.ctrlFn)
}
