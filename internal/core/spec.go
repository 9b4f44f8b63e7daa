package core

import (
	"repro/internal/gmproto"
	"repro/internal/mcp"
	"repro/internal/sim"
)

// Speculation journaling (sim spec.go) for the host-side control state: the
// driver, the fault tolerance daemon, and the per-port backup stores. All of
// it is node-engine event code — FTD recovery, FAULT_DETECTED handling and
// the library's token housekeeping run inside simulation callbacks on the
// node's own domain, so once the node domain speculates they can execute
// inside an open span and must be restorable.
//
// The driver and FTD are small and cold (they mutate on interrupts and
// recovery phases, not per message), so they use whole-struct first-touch
// shadows. The ShadowStore and RxAckTable are hot — NextSeq/Add/Remove and
// Update run on every send and receive — and their maps grow with the
// outstanding-token population, so a whole-map copy per span would tax
// exactly the path speculation is meant to speed up. They instead keep a
// typed per-operation undo log: each map write appends the displaced entry
// to a pooled log, and restore replays the log newest-first.

// --- Driver ---

// driverShadow is the restore image for Driver.SpecSave/SpecRestore. The
// route table is captured by reference: SetRoutes replaces the map wholesale
// and never edits one in place, so the old map is immutable once displaced.
// Open ports are copied into a fixed array (MaxPorts entries, no alloc).
type driverShadow struct {
	routes       map[gmproto.NodeID][]byte
	routesVer    uint64
	nodeID       gmproto.NodeID
	open         [gmproto.MaxPorts]mcp.EventSink
	openSet      [gmproto.MaxPorts]bool
	fataled      bool
	pendingFatal bool
	loadFails    int
	load         *sim.Event
	stats        DriverStats
}

func (d *Driver) specTouch() { d.eng.SpecTouch(&d.specMark, d) }

// SpecSave / SpecRestore implement sim.SpecSaver.
func (d *Driver) SpecSave() {
	d.shadow.routes = d.routes
	d.shadow.routesVer = d.routesVer
	d.shadow.nodeID = d.nodeID
	d.shadow.open = [gmproto.MaxPorts]mcp.EventSink{}
	d.shadow.openSet = [gmproto.MaxPorts]bool{}
	for p, sink := range d.openPorts {
		d.shadow.open[p] = sink
		d.shadow.openSet[p] = true
	}
	d.shadow.fataled = d.fataled
	d.shadow.pendingFatal = d.pendingFatal
	d.shadow.loadFails = d.mcpLoadFailures
	d.shadow.load = d.load
	d.shadow.stats = d.stats
}

func (d *Driver) SpecRestore() {
	d.routes = d.shadow.routes
	d.routesVer = d.shadow.routesVer
	d.nodeID = d.shadow.nodeID
	clear(d.openPorts)
	for p := range d.shadow.open {
		if d.shadow.openSet[p] {
			d.openPorts[gmproto.PortID(p)] = d.shadow.open[p]
		}
	}
	d.fataled = d.shadow.fataled
	d.pendingFatal = d.shadow.pendingFatal
	d.mcpLoadFailures = d.shadow.loadFails
	d.load = d.shadow.load
	d.stats = d.shadow.stats
}

// --- FTD ---

// ftdShadow is the restore image for FTD.SpecSave/SpecRestore. The timeline
// needs both the pointer and a copy of its marks: MarkFault replaces the
// Timeline wholesale, while Mark inserts into the current one in place, and
// a span can do either (or both).
type ftdShadow struct {
	timeline       *Timeline
	marks          map[Phase]sim.Time
	state          ftdState
	outcome        RecoveryOutcome
	failReason     string
	reloadAttempts int
	restarts       int
	gen            uint64
	stats          FTDStats
}

// SpecTouch journals the daemon (including its timeline) into the node
// engine's current span on first touch. Exported because the library's
// FAULT_DETECTED handler marks PhaseProcessesDone on the FTD's timeline from
// outside the package.
func (f *FTD) SpecTouch() { f.eng.SpecTouch(&f.specMark, f) }

// SpecSave / SpecRestore implement sim.SpecSaver.
func (f *FTD) SpecSave() {
	f.shadow.timeline = f.timeline
	if f.shadow.marks == nil {
		f.shadow.marks = make(map[Phase]sim.Time, len(f.timeline.marks))
	} else {
		clear(f.shadow.marks)
	}
	for k, v := range f.timeline.marks {
		f.shadow.marks[k] = v
	}
	f.shadow.state = f.state
	f.shadow.outcome = f.outcome
	f.shadow.failReason = f.failReason
	f.shadow.reloadAttempts = f.reloadAttempts
	f.shadow.restarts = f.restarts
	f.shadow.gen = f.gen
	f.shadow.stats = f.stats
}

func (f *FTD) SpecRestore() {
	f.timeline = f.shadow.timeline
	clear(f.timeline.marks)
	for k, v := range f.shadow.marks {
		f.timeline.marks[k] = v
	}
	f.state = f.shadow.state
	f.outcome = f.shadow.outcome
	f.failReason = f.shadow.failReason
	f.reloadAttempts = f.shadow.reloadAttempts
	f.restarts = f.shadow.restarts
	f.gen = f.shadow.gen
	f.stats = f.shadow.stats
}

// --- ShadowStore ---

// shadowOp is one undo record of the ShadowStore's per-operation log: the
// entry a map write displaced, posting stamp included, so a restored token
// returns to its place in the queue. Replayed newest-first on restore.
type shadowOp struct {
	kind uint8
	had  bool
	id   uint64 // token id, or packed seqKey for opSeq
	seq  uint32 // displaced txSeq value (opSeq)
	send stamped[gmproto.SendToken]
	recv stamped[gmproto.RecvToken]
}

// shadowOp kinds.
const (
	opSend uint8 = iota // sendTokens[id] was send (or absent)
	opRecv              // recvTokens[id] was recv (or absent)
	opSeq               // txSeq[unpack(id)] was seq (or absent)
)

func packSeqKey(k seqKey) uint64 { return uint64(k.node)<<8 | uint64(k.prio) }

func unpackSeqKey(v uint64) seqKey {
	return seqKey{node: gmproto.NodeID(v >> 8), prio: gmproto.Priority(v)}
}

// Bind attaches the store to its node's engine for speculation journaling.
// The gm library calls it at port creation; an unbound store (tests, sizing
// harnesses) journals nothing.
func (s *ShadowStore) Bind(eng *sim.Engine) { s.eng = eng }

func (s *ShadowStore) specTouch() {
	if s.eng != nil {
		s.eng.SpecTouch(&s.specMark, s)
	}
}

// inSpan reports whether mutations must log undo records: the store is bound
// and the engine is inside an open speculative span. specTouch has always
// run first, so SpecSave has already reset the log for this span.
func (s *ShadowStore) inSpan() bool { return s.eng != nil && s.eng.SpecActive() }

// SpecSave / SpecRestore implement sim.SpecSaver. Save resets the op log and
// records the stamp counter; every other mutation of a span is a map write
// with its displaced entry in the log.
func (s *ShadowStore) SpecSave() {
	clear(s.ops)
	s.ops = s.ops[:0]
	s.specStamp = s.stamp
}

func (s *ShadowStore) SpecRestore() {
	for i := len(s.ops) - 1; i >= 0; i-- {
		op := &s.ops[i]
		switch op.kind {
		case opSend:
			if op.had {
				s.sendTokens[op.id] = op.send
			} else {
				delete(s.sendTokens, op.id)
			}
		case opRecv:
			if op.had {
				s.recvTokens[op.id] = op.recv
			} else {
				delete(s.recvTokens, op.id)
			}
		case opSeq:
			k := unpackSeqKey(op.id)
			if op.had {
				s.txSeq[k] = op.seq
			} else {
				delete(s.txSeq, k)
			}
		}
	}
	s.stamp = s.specStamp
}

// logSend records the displaced sendTokens entry for id.
func (s *ShadowStore) logSend(id uint64, old stamped[gmproto.SendToken], had bool) {
	if s.inSpan() {
		s.ops = append(s.ops, shadowOp{kind: opSend, had: had, id: id, send: old})
	}
}

func (s *ShadowStore) logRecv(id uint64, old stamped[gmproto.RecvToken], had bool) {
	if s.inSpan() {
		s.ops = append(s.ops, shadowOp{kind: opRecv, had: had, id: id, recv: old})
	}
}

func (s *ShadowStore) logSeq(k seqKey, old uint32, had bool) {
	if s.inSpan() {
		s.ops = append(s.ops, shadowOp{kind: opSeq, had: had, id: packSeqKey(k), seq: old})
	}
}

// --- RxAckTable ---

// rxAckOp is one undo record of the ACK table's log. ackOpEntry restores a
// displaced (stream, seq) entry; ackOpMark restores a stream's displaced
// dirty mark; ackOpEpoch restores the epoch counter and replaced latch.
type rxAckOp struct {
	kind uint8
	id   gmproto.StreamID
	seq  uint32
	had  bool
	mark uint64 // displaced mark (ackOpMark) or epoch (ackOpEpoch)
}

// rxAckOp kinds. ackOpEntry is the zero value so logEntry stays unchanged.
const (
	ackOpEntry uint8 = iota
	ackOpMark
	ackOpEpoch
)

// Bind attaches the table to its node's engine for speculation journaling.
func (t *RxAckTable) Bind(eng *sim.Engine) { t.eng = eng }

func (t *RxAckTable) specTouch() {
	if t.eng != nil {
		t.eng.SpecTouch(&t.specMark, t)
	}
}

func (t *RxAckTable) inSpan() bool { return t.eng != nil && t.eng.SpecActive() }

func (t *RxAckTable) logEntry(id gmproto.StreamID) {
	if !t.inSpan() {
		return
	}
	old, had := t.last[id]
	t.ops = append(t.ops, rxAckOp{id: id, seq: old, had: had})
}

// logEpoch records the epoch counter and replaced latch before a change.
func (t *RxAckTable) logEpoch() {
	if !t.inSpan() {
		return
	}
	t.ops = append(t.ops, rxAckOp{kind: ackOpEpoch, mark: t.epoch, had: t.replaced})
}

// markDirty stamps a stream with the current epoch, journaling the
// displaced mark so a rollback cannot leave false dirt. Callers run it
// after specTouch (it lives inside Update's mutation branch).
func (t *RxAckTable) markDirty(id gmproto.StreamID) {
	if t.epoch == 0 {
		return
	}
	old := t.marks[id]
	if old == t.epoch {
		return
	}
	if t.inSpan() {
		t.ops = append(t.ops, rxAckOp{kind: ackOpMark, id: id, mark: old})
	}
	t.marks[id] = t.epoch
}

// setReplaced latches the replace-all flag for the current epoch.
func (t *RxAckTable) setReplaced() {
	if t.epoch == 0 || t.replaced {
		return
	}
	if t.inSpan() {
		t.ops = append(t.ops, rxAckOp{kind: ackOpEpoch, mark: t.epoch, had: false})
	}
	t.replaced = true
}

// SpecSave / SpecRestore implement sim.SpecSaver.
func (t *RxAckTable) SpecSave() { t.ops = t.ops[:0] }

func (t *RxAckTable) SpecRestore() {
	for i := len(t.ops) - 1; i >= 0; i-- {
		op := &t.ops[i]
		switch op.kind {
		case ackOpEntry:
			if op.had {
				t.last[op.id] = op.seq
			} else {
				delete(t.last, op.id)
			}
		case ackOpMark:
			if op.mark == 0 {
				delete(t.marks, op.id)
			} else {
				t.marks[op.id] = op.mark
			}
		case ackOpEpoch:
			t.epoch, t.replaced = op.mark, op.had
		}
	}
}
