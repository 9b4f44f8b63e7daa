package main

import (
	"bytes"
	"encoding/binary"

	"repro/gm"
	"repro/internal/sim"
)

// benchPort is the GM port every benchmark endpoint opens (the testbed's
// port 2, as in internal/experiments).
const benchPort gm.PortID = 2

// hdrLen is the harness's own message header, written at the front of every
// payload: source index (2), per-stream message index (4), simulated send
// time in ns (6) and send-buffer slot (2). The rest of the payload is the
// slot's window into the seeded pattern, so the receiver can check order,
// exactly-once delivery, length and content from the message alone.
const hdrLen = 14

// pattern is the immutable seeded byte stream payload bodies are cut from.
// It is written once before any engine runs and only read afterwards, so
// endpoints on different shard workers share it freely.
type pattern struct{ b []byte }

const patternSpan = 1 << 16

func newPattern(seed uint64, maxBody int) *pattern {
	b := make([]byte, maxBody+patternSpan)
	x := seed*0x9E3779B97F4A7C15 | 1
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return &pattern{b: b}
}

// body returns the n pattern bytes slot `slot` of source `src` carries.
func (p *pattern) body(src, slot, n int) []byte {
	off := ((src*64 + slot) * 251) & (patternSpan - 1)
	return p.b[off : off+n]
}

// epState is the part of an endpoint a callback mutates. It is kept apart
// so a speculative span can shadow and restore it wholesale.
type epState struct {
	free    []int    // unused send-buffer slots (stack)
	nextIdx []uint32 // next message index per destination
	expect  []uint32 // next expected message index per source
	cursor  int      // open-loop round-robin destination cursor

	accepted uint64 // sends the library accepted
	refused  uint64 // sends refused (no token, no free buffer)
	sendErrs uint64 // accepted sends that completed with an error status
	ok       uint64 // deliveries exactly once, in order, intact
	dup      uint64 // deliveries of an index already seen
	gap      uint64 // deliveries that skipped ahead of the expected index
	corrupt  uint64 // deliveries with a damaged header, length or body
	bytes    uint64 // payload bytes of ok deliveries
	latNs    int64  // summed simulated send-to-deliver time of ok deliveries
	firstAt  sim.Time
	lastAt   sim.Time
}

func (s *epState) copyFrom(o *epState) {
	free, next, exp := s.free, s.nextIdx, s.expect
	*s = *o
	s.free = append(free[:0], o.free...)
	s.nextIdx = append(next[:0], o.nextIdx...)
	s.expect = append(exp[:0], o.expect...)
}

// endpoint is one node's benchmark process: a ring of stamped send buffers,
// the receive-side checker, and the counters the metrics are computed from.
// All of its methods run inside simulation callbacks of its own node.
type endpoint struct {
	idx   int
	port  *gm.Port
	eng   *sim.Engine
	lane  *lane
	pat   *pattern
	peers []gm.NodeID // node ids by endpoint index

	msgSize int
	// sizeOf, when set, picks message idx's length (at most msgSize).
	sizeOf func(idx uint32) int

	slots [][]byte
	cbs   []gm.SendCallback

	st   epState
	base epState // counters at the start of the timed window

	// Speculation journaling: the engine calls SpecSave once per span on
	// first touch and SpecRestore on rollback.
	mark   uint64
	shadow epState

	onRecv     func(src int) // load generator hooks
	onSendDone func()
}

func newEndpoint(idx int, node *gm.Node, port *gm.Port, pat *pattern, peers []gm.NodeID, msgSize, slots int, l *lane) *endpoint {
	e := &endpoint{
		idx: idx, port: port, eng: node.Engine(), lane: l,
		pat: pat, peers: peers, msgSize: msgSize,
		slots: make([][]byte, slots),
		cbs:   make([]gm.SendCallback, slots),
	}
	e.st.nextIdx = make([]uint32, len(peers))
	e.st.expect = make([]uint32, len(peers))
	for s := range e.slots {
		buf := make([]byte, msgSize)
		copy(buf[hdrLen:], pat.body(idx, s, msgSize-hdrLen))
		e.slots[s] = buf
		e.st.free = append(e.st.free, s)
		s := s
		e.cbs[s] = func(status gm.SendStatus) { e.sendDone(s, status) }
	}
	e.shadow.copyFrom(&e.st)
	port.SetReceiveHandler(e.handle)
	return e
}

func (e *endpoint) touch() { e.eng.SpecTouch(&e.mark, e) }

// SpecSave and SpecRestore make the endpoint a journaled component, so a
// delivery counted inside a rolled-back span is not counted twice.
func (e *endpoint) SpecSave()    { e.shadow.copyFrom(&e.st) }
func (e *endpoint) SpecRestore() { e.st.copyFrom(&e.shadow) }

// send posts the next message of the stream toward endpoint dst. It reports
// false when the library (or the buffer ring) refused it.
func (e *endpoint) send(dst int) bool {
	e.touch()
	st := &e.st
	if len(st.free) == 0 {
		st.refused++
		return false
	}
	slot := st.free[len(st.free)-1]
	idx := st.nextIdx[dst]
	n := e.msgSize
	if e.sizeOf != nil {
		n = e.sizeOf(idx)
	}
	buf := e.slots[slot][:n]
	binary.LittleEndian.PutUint16(buf[0:], uint16(e.idx))
	binary.LittleEndian.PutUint32(buf[2:], idx)
	now := uint64(e.eng.Now())
	binary.LittleEndian.PutUint32(buf[6:], uint32(now))
	binary.LittleEndian.PutUint16(buf[10:], uint16(now>>32))
	binary.LittleEndian.PutUint16(buf[12:], uint16(slot))
	e.lane.begin(spSend)
	err := e.port.Send(e.peers[dst], benchPort, gm.PriorityLow, buf, e.cbs[slot])
	e.lane.end()
	if err != nil {
		st.refused++
		return false
	}
	st.free = st.free[:len(st.free)-1]
	st.nextIdx[dst] = idx + 1
	st.accepted++
	return true
}

func (e *endpoint) sendDone(slot int, status gm.SendStatus) {
	e.lane.begin(spOnSendDone)
	e.touch()
	e.st.free = append(e.st.free, slot)
	if status != gm.SendOK {
		e.st.sendErrs++
	}
	if e.onSendDone != nil {
		e.onSendDone()
	}
	e.lane.end()
}

func (e *endpoint) handle(ev gm.RecvEvent) {
	e.lane.begin(spOnRecv)
	e.touch()
	src := e.check(ev)
	e.lane.begin(spRecycle)
	_ = e.port.RecycleReceiveBuffer(ev.Data, gm.PriorityLow)
	e.lane.end()
	if src >= 0 && e.onRecv != nil {
		e.onRecv(src)
	}
	e.lane.end()
}

// check judges one delivery and returns the source index, or -1 when the
// message is not an intact next-in-order message of its stream.
func (e *endpoint) check(ev gm.RecvEvent) int {
	st := &e.st
	d := ev.Data
	if len(d) < hdrLen {
		st.corrupt++
		return -1
	}
	src := int(binary.LittleEndian.Uint16(d[0:]))
	idx := binary.LittleEndian.Uint32(d[2:])
	sent := uint64(binary.LittleEndian.Uint32(d[6:])) | uint64(binary.LittleEndian.Uint16(d[10:]))<<32
	slot := int(binary.LittleEndian.Uint16(d[12:]))
	want := e.msgSize
	if e.sizeOf != nil {
		want = e.sizeOf(idx)
	}
	if src >= len(e.peers) || e.peers[src] != ev.Src || slot >= len(e.slots) ||
		len(d) != want || !bodyIntact(d[hdrLen:], e.pat.body(src, slot, len(d)-hdrLen), idx) {
		st.corrupt++
		return -1
	}
	switch exp := st.expect[src]; {
	case idx < exp:
		st.dup++
		return -1
	case idx > exp:
		st.gap++
		st.expect[src] = idx + 1
		return -1
	}
	st.expect[src] = idx + 1
	now := e.eng.Now()
	st.ok++
	st.bytes += uint64(len(d))
	st.latNs += int64(uint64(now) - sent)
	if st.firstAt == 0 {
		st.firstAt = now
	}
	st.lastAt = now
	return src
}

// bodyIntact compares a delivered body with the pattern it was cut from:
// every byte up to 4 KB, and beyond that the first and last 64 bytes plus
// one word in every 4 KB fragment (at an offset that moves with the message
// index), which keeps the check under a microsecond for 256 KB messages
// while still seeing any dropped, zeroed or misplaced fragment.
func bodyIntact(got, want []byte, idx uint32) bool {
	const frag = 4096
	if len(got) <= frag {
		return bytes.Equal(got, want)
	}
	n := len(got)
	if !bytes.Equal(got[:64], want[:64]) || !bytes.Equal(got[n-64:], want[n-64:]) {
		return false
	}
	word := int(idx*8) % (frag - 8)
	for off := word; off+8 <= n; off += frag {
		if binary.LittleEndian.Uint64(got[off:]) != binary.LittleEndian.Uint64(want[off:]) {
			return false
		}
	}
	return true
}

// markWindow starts the timed window: counters read through window() are
// relative to this instant, and the first/last delivery stamps restart.
func (e *endpoint) markWindow() {
	e.st.firstAt, e.st.lastAt = 0, 0
	e.base.copyFrom(&e.st)
}

// epWindow is an endpoint's activity inside the timed window.
type epWindow struct {
	ok              uint64
	bytes           uint64
	latNs           int64
	firstAt, lastAt sim.Time
}

func (e *endpoint) window() epWindow {
	s, b := &e.st, &e.base
	return epWindow{
		ok: s.ok - b.ok, bytes: s.bytes - b.bytes, latNs: s.latNs - b.latNs,
		firstAt: s.firstAt, lastAt: s.lastAt,
	}
}
