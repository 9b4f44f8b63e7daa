// Package core implements the paper's primary contribution: low-overhead
// fault tolerance for network-interface processor hangs (§3-§4). It
// provides
//
//   - the continuous host-side state backup ("checkpointing") of §4.1: the
//     shadow copies of the send and receive tokens in the LANai's
//     possession, the host-generated per-(port, remote-node) sequence-number
//     streams, and the receiver's per-(connection, port) ACK table;
//   - the device driver that loads the MCP and turns the watchdog's FATAL
//     interrupt into a fault-tolerance-daemon wakeup (§4.2-4.3);
//   - the fault tolerance daemon (FTD) itself, with the full recovery
//     sequence of §4.3 (magic-word verification, card reset, SRAM clear,
//     MCP reload, page-hash/route restoration, FAULT_DETECTED posting);
//   - a recovery timeline that reproduces the measurement points of
//     Figure 9 and Table 3;
//   - the naive restart baseline (driver reload without state restoration)
//     whose failures motivate the design (Figures 4 and 5).
package core

import (
	"cmp"
	"slices"

	"repro/internal/gmproto"
	"repro/internal/sim"
)

// ShadowStore is one port's backup copy of the state the LANai holds on its
// behalf: "the user keeps a copy of the required LANai state that is not
// implicitly stored in the host memory" (§4.1). The gm library updates it
// on every send/receive call and consumes it in the FAULT_DETECTED handler.
type ShadowStore struct {
	port gmproto.PortID

	// The token copies, each beside its posting stamp. Posting order — the
	// order §4.4 restores in — is ascending stamp: a fresh or re-added id
	// takes the next stamp, an overwrite of a live id keeps its own. Both
	// queues draw from the one counter; only order within a queue is read.
	sendTokens map[uint64]stamped[gmproto.SendToken]
	recvTokens map[uint64]stamped[gmproto.RecvToken]
	stamp      uint64

	// txSeq is the next host-generated sequence number per remote node and
	// priority level: "independent streams of sequence numbers for each
	// remote node on a per-port basis" (§4.1), with GM's two priority
	// levels carrying separate spaces.
	txSeq map[seqKey]uint32

	// order is the pooled sort scratch of the ordered reads.
	order []stampedID

	// Speculation journaling (core spec.go): a per-operation undo log —
	// these maps mutate on every send and receive, so a whole-map shadow
	// per span would be far more expensive than logging displaced entries —
	// plus the span-start stamp counter.
	eng       *sim.Engine
	specMark  uint64
	ops       []shadowOp
	specStamp uint64
}

// stamped is a token copy beside its posting stamp.
type stamped[T any] struct {
	tok   T
	stamp uint64
}

type stampedID struct {
	stamp, id uint64
}

type seqKey struct {
	node gmproto.NodeID
	prio gmproto.Priority
}

// tokenMapHint sizes both token maps up front: GM's 64 send tokens twice
// over, and the 128-deep receive queue. Token ids never repeat, so a map
// grown on demand keeps rehashing under the steady add/remove churn of a
// long run; one sized for the live set does not allocate after warm-up.
const tokenMapHint = 128

// NewShadowStore returns an empty store for a port.
func NewShadowStore(port gmproto.PortID) *ShadowStore {
	return &ShadowStore{
		port:       port,
		sendTokens: make(map[uint64]stamped[gmproto.SendToken], tokenMapHint),
		recvTokens: make(map[uint64]stamped[gmproto.RecvToken], tokenMapHint),
		txSeq:      make(map[seqKey]uint32),
	}
}

// Port returns the owning port.
func (s *ShadowStore) Port() gmproto.PortID { return s.port }

// NextSeq mints the next sequence number of the (dest, priority) stream.
func (s *ShadowStore) NextSeq(dest gmproto.NodeID, prio gmproto.Priority) uint32 {
	s.specTouch()
	k := seqKey{node: dest, prio: prio}
	last, had := s.txSeq[k]
	s.logSeq(k, last, had)
	s.txSeq[k] = last + 1
	return last + 1
}

// ResetPeerSeqs forgets the sequence streams toward one remote node, both
// priorities. Used when a peer expelled as unreachable is readmitted: its
// terminal send failures left gaps in the old streams, so both sides restart
// at sequence 1 (the receive side forgets via RxAckTable.Forget).
func (s *ShadowStore) ResetPeerSeqs(node gmproto.NodeID) {
	s.specTouch()
	for _, prio := range [...]gmproto.Priority{gmproto.PriorityLow, gmproto.PriorityHigh} {
		k := seqKey{node: node, prio: prio}
		last, had := s.txSeq[k]
		s.logSeq(k, last, had)
		delete(s.txSeq, k)
	}
}

// AddSendToken records a token handed to the LANai; "when a call to any of
// the gm_send() functions is made, a copy of the send token is added to the
// queue" (§4.1). Re-adding an id that was removed places it at the back of
// the queue (it is a fresh token that happens to reuse the id).
func (s *ShadowStore) AddSendToken(tok gmproto.SendToken) {
	s.specTouch()
	old, live := s.sendTokens[tok.ID]
	s.logSend(tok.ID, old, live)
	if !live {
		s.stamp++
		old.stamp = s.stamp
	}
	old.tok = tok
	s.sendTokens[tok.ID] = old
}

// RemoveSendToken drops the copy "just before the callback function for
// that send token is invoked" (§4.1).
func (s *ShadowStore) RemoveSendToken(id uint64) {
	s.specTouch()
	if s.inSpan() {
		old, live := s.sendTokens[id]
		s.logSend(id, old, live)
	}
	delete(s.sendTokens, id)
}

// HasSendToken reports whether send token id is outstanding.
func (s *ShadowStore) HasSendToken(id uint64) bool {
	_, live := s.sendTokens[id]
	return live
}

// AddRecvToken records a provided receive buffer.
func (s *ShadowStore) AddRecvToken(tok gmproto.RecvToken) {
	s.specTouch()
	old, live := s.recvTokens[tok.ID]
	s.logRecv(tok.ID, old, live)
	if !live {
		s.stamp++
		old.stamp = s.stamp
	}
	old.tok = tok
	s.recvTokens[tok.ID] = old
}

// RemoveRecvToken drops the copy when the message lands ("the receiver, at
// this time, also deletes the corresponding copy of the receive token",
// §4.1).
func (s *ShadowStore) RemoveRecvToken(id uint64) {
	s.specTouch()
	if s.inSpan() {
		old, live := s.recvTokens[id]
		s.logRecv(id, old, live)
	}
	delete(s.recvTokens, id)
}

// OutstandingSends returns the unacknowledged send tokens in posting order —
// "the send tokens contain the sequence numbers of the messages that have
// not been acknowledged" (§4.4). Order matters: restored messages must
// re-enter the window in sequence order.
func (s *ShadowStore) OutstandingSends() []gmproto.SendToken {
	return s.AppendOutstandingSends(make([]gmproto.SendToken, 0, len(s.sendTokens)))
}

// AppendOutstandingSends is OutstandingSends into a caller-retained buffer:
// appending onto dst (usually dst[:0] of a pooled slice) keeps periodic
// checkpoint encoding allocation-free at steady state.
func (s *ShadowStore) AppendOutstandingSends(dst []gmproto.SendToken) []gmproto.SendToken {
	s.order = postingOrder(s.order[:0], s.sendTokens)
	for _, o := range s.order {
		dst = append(dst, s.sendTokens[o.id].tok)
	}
	return dst
}

// AppendOutstandingSendIDs appends the ids of OutstandingSends, same order.
func (s *ShadowStore) AppendOutstandingSendIDs(dst []uint64) []uint64 {
	s.order = postingOrder(s.order[:0], s.sendTokens)
	for _, o := range s.order {
		dst = append(dst, o.id)
	}
	return dst
}

// OutstandingRecvs returns the receive tokens the LANai still owes buffers
// for, in posting order.
func (s *ShadowStore) OutstandingRecvs() []gmproto.RecvToken {
	return s.AppendOutstandingRecvs(make([]gmproto.RecvToken, 0, len(s.recvTokens)))
}

// AppendOutstandingRecvs is OutstandingRecvs into a caller-retained buffer.
func (s *ShadowStore) AppendOutstandingRecvs(dst []gmproto.RecvToken) []gmproto.RecvToken {
	s.order = postingOrder(s.order[:0], s.recvTokens)
	for _, o := range s.order {
		dst = append(dst, s.recvTokens[o.id].tok)
	}
	return dst
}

// postingOrder appends the ids of live by ascending stamp. The ordered reads
// are the cold side of the store (recovery, checkpoint, periodic delta):
// they pay a sort of the live population so that Add and Remove pay nothing
// for order.
func postingOrder[T any](order []stampedID, live map[uint64]stamped[T]) []stampedID {
	for id, e := range live {
		order = append(order, stampedID{stamp: e.stamp, id: id})
	}
	slices.SortFunc(order, func(a, b stampedID) int { return cmp.Compare(a.stamp, b.stamp) })
	return order
}

// Counts reports outstanding send and receive token counts.
func (s *ShadowStore) Counts() (sends, recvs int) {
	return len(s.sendTokens), len(s.recvTokens)
}

// SeqStream is one host-generated sequence stream's cursor: the last
// sequence number minted toward (Node, Prio). Exposed for endpoint
// checkpointing (internal/ckpt), which must serialize the generator state
// deterministically.
type SeqStream struct {
	Node gmproto.NodeID
	Prio gmproto.Priority
	Last uint32
}

// AppendSeqStreams appends every sequence-stream cursor, sorted by (node,
// priority) so the enumeration is deterministic. Appending into a retained
// buffer allocates nothing once it has steady-state capacity.
func (s *ShadowStore) AppendSeqStreams(dst []SeqStream) []SeqStream {
	base := len(dst)
	for k, v := range s.txSeq {
		dst = append(dst, SeqStream{Node: k.node, Prio: k.prio, Last: v})
	}
	slices.SortFunc(dst[base:], func(a, b SeqStream) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return int(a.Prio) - int(b.Prio)
	})
	return dst
}

// RestoreSeq reinstates a sequence-stream cursor from a checkpoint: the next
// NextSeq for (node, prio) returns last+1.
func (s *ShadowStore) RestoreSeq(node gmproto.NodeID, prio gmproto.Priority, last uint32) {
	s.specTouch()
	k := seqKey{node: node, prio: prio}
	old, had := s.txSeq[k]
	s.logSeq(k, old, had)
	s.txSeq[k] = last
}

// Per-entry sizes of the backup structures, as a C implementation inside
// the GM library would declare them (§5 prices the whole process-side
// overhead at ~20 KB of virtual memory).
const (
	sendTokenBytes = 96 // buffer pointer/len, destination, priority, seq
	recvTokenBytes = 32 // buffer len, priority, id
	seqStreamBytes = 8  // per-destination next sequence number
)

// FootprintBytes reports the process virtual memory held by this port's
// backup copies: the shadow send/receive token queues and the sequence
// generators. Hash-table slack is included at 2x load factor.
func (s *ShadowStore) FootprintBytes(maxSendTokens, maxRecvTokens, maxNodes int) int {
	sends := maxSendTokens * sendTokenBytes * 2
	recvs := maxRecvTokens * recvTokenBytes * 2
	seqs := maxNodes * seqStreamBytes
	return sends + recvs + seqs
}

// RxAckTable is the node-level copy of the last sequence number received on
// each incoming stream — "an ACK number for every (connection, port) pair"
// (§4.1). The gm library updates it from the sequence number the LANai
// includes in every receive event.
type RxAckTable struct {
	last map[gmproto.StreamID]uint32

	// Dirty-epoch tracking for incremental checkpoints. epoch is 0 while
	// tracking is off; once enabled, every Update stamps the stream's mark
	// with the current epoch, and NextDirtyEpoch (called after each delta
	// emission) opens a fresh epoch without touching the marks. Forget
	// deletes entries — which a merge delta cannot express — so it latches
	// replaced, telling the next delta to carry the whole table. All of it
	// is journaled through the same undo log as the entries: a rolled-back
	// span must not leave false dirt, or checkpoint frames would depend on
	// the speculation schedule instead of virtual time alone.
	marks    map[gmproto.StreamID]uint64
	epoch    uint64
	replaced bool

	// Speculation journaling (core spec.go): per-operation undo log — the
	// table takes a write per received message.
	eng      *sim.Engine
	specMark uint64
	ops      []rxAckOp
}

// NewRxAckTable returns an empty table.
func NewRxAckTable() *RxAckTable {
	return &RxAckTable{last: make(map[gmproto.StreamID]uint32)}
}

// Update records a received (and host-committed) sequence number.
func (t *RxAckTable) Update(id gmproto.StreamID, seq uint32) {
	if seq > t.last[id] {
		t.specTouch()
		t.logEntry(id)
		t.last[id] = seq
		t.markDirty(id)
	}
}

// Last returns the recorded sequence number for a stream.
func (t *RxAckTable) Last(id gmproto.StreamID) uint32 { return t.last[id] }

// Snapshot copies the table for upload to a recovering LANai (§4.4).
func (t *RxAckTable) Snapshot() map[gmproto.StreamID]uint32 {
	out := make(map[gmproto.StreamID]uint32, len(t.last))
	for k, v := range t.last {
		out[k] = v
	}
	return out
}

// Forget drops every stream originating at one remote node. Used on
// readmission of an expelled peer, whose streams restart at sequence 1.
func (t *RxAckTable) Forget(node gmproto.NodeID) {
	t.specTouch()
	for id := range t.last {
		if id.Node == node {
			t.logEntry(id)
			delete(t.last, id)
		}
	}
	t.setReplaced()
}

// Len reports how many streams are tracked.
func (t *RxAckTable) Len() int { return len(t.last) }

// StartDirtyTracking opens the first dirty epoch. The caller is expected to
// take a full base checkpoint at the same instant, so no pre-existing entry
// needs marking. Idempotent restart after StopDirtyTracking opens a fresh
// epoch (stale marks from the previous run compare unequal and read clean).
func (t *RxAckTable) StartDirtyTracking() {
	t.specTouch()
	if t.marks == nil {
		t.marks = make(map[gmproto.StreamID]uint64, len(t.last)+16)
	}
	t.logEpoch()
	t.epoch++
	t.replaced = false
}

// StopDirtyTracking turns tracking off; marks are retained (stale) so a
// later restart is cheap.
func (t *RxAckTable) StopDirtyTracking() {
	if t.epoch == 0 {
		return
	}
	t.specTouch()
	t.logEpoch()
	t.epoch = 0
	t.replaced = false
}

// NextDirtyEpoch closes the current epoch after a delta emission: entries
// marked so far read clean until their next Update.
func (t *RxAckTable) NextDirtyEpoch() {
	if t.epoch == 0 {
		return
	}
	t.specTouch()
	t.logEpoch()
	t.epoch++
	t.replaced = false
}

// Replaced reports whether the table saw a deletion this epoch, forcing the
// next delta to carry the whole table instead of a merge.
func (t *RxAckTable) Replaced() bool { return t.replaced }

// DirtyLen reports how many live streams are marked in the current epoch.
func (t *RxAckTable) DirtyLen() int {
	n := 0
	for id, m := range t.marks {
		if m == t.epoch {
			if _, ok := t.last[id]; ok {
				n++
			}
		}
	}
	return n
}

// AppendDirtyStreams appends the streams dirtied in the current epoch,
// sorted by (node, port, priority). Marks whose entry has since been
// deleted (a rolled-back insert, or a Forget — which forces a full replace
// anyway) are skipped, so the result is a pure function of committed state.
func (t *RxAckTable) AppendDirtyStreams(dst []gmproto.StreamID) []gmproto.StreamID {
	base := len(dst)
	for id, m := range t.marks {
		if m == t.epoch {
			if _, ok := t.last[id]; ok {
				dst = append(dst, id)
			}
		}
	}
	slices.SortFunc(dst[base:], CompareStreamIDs)
	return dst
}

// AppendAllStreams appends every tracked stream, sorted — the replace-all
// companion of AppendDirtyStreams.
func (t *RxAckTable) AppendAllStreams(dst []gmproto.StreamID) []gmproto.StreamID {
	base := len(dst)
	for id := range t.last {
		dst = append(dst, id)
	}
	slices.SortFunc(dst[base:], CompareStreamIDs)
	return dst
}

// CompareStreamIDs orders streams by (node, port, priority): the order of
// every sorted receive-commit enumeration, and of a checkpoint's RxAcks.
func CompareStreamIDs(a, b gmproto.StreamID) int {
	if a.Node != b.Node {
		return int(a.Node) - int(b.Node)
	}
	if a.Port != b.Port {
		return int(a.Port) - int(b.Port)
	}
	return int(a.Prio) - int(b.Prio)
}
