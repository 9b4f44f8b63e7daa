// Package fabric models the Myrinet network fabric: point-to-point
// full-duplex links, crossbar switches with cut-through forwarding, and
// source-routed packets. A Myrinet packet begins with a sequence of route
// bytes — one per switch hop, each naming the output port — which switches
// strip as the packet advances; the remainder (the GM-level header and
// payload) is opaque to the fabric and protected by a trailing CRC.
//
// Differences from the real wire protocol, and why they don't matter here:
// the model forwards whole packets with a cut-through latency term rather
// than individual flits (the latency/bandwidth terms are preserved; flit
// interleaving below 4 KB packets is not observable in the paper's
// experiments), and route bytes are absolute output-port indices rather
// than Myrinet's signed deltas (a naming choice invisible above the mapper).
package fabric

import (
	"fmt"
	"hash/crc32"

	"repro/internal/sim"
)

// Packet is a unit of transfer on the fabric. Route holds the remaining
// route bytes; the content is Payload followed by Body, and the CRC covers
// both.
//
// Packets normally come from the process-wide arena (GetPacket/Release, see
// pool.go); literal construction still works for tests and one-off traffic.
// Payload may be written freely through Buf before SealCRC; after the seal
// the content changes only through CorruptPayload.
type Packet struct {
	Route   []byte
	Payload []byte
	// Body is read-only content that logically follows Payload: the wire
	// image is Payload||Body, and WireSize, the fault draws and the CRC all
	// count both. A DATA packet points Body at the sender's pinned buffer
	// instead of copying the fragment (DESIGN.md §11), so nothing may write
	// through it; CorruptPayload folds it into the packet's own storage
	// before the first flip.
	Body []byte

	// Tracing metadata; not part of the wire image.
	ID       uint64
	SrcLabel string
	Injected sim.Time

	// The seal is lazy. crcValid records that the content is what the seal
	// covered, crcLazy that crc has not been computed yet: SealCRC sets
	// both, and settleCRC computes crc just before the first post-seal
	// mutation, over the still-pristine bytes, so it holds exactly what an
	// eager seal would have stored. An undamaged packet never hashes its
	// content at all. Invariant: crcLazy implies crcValid.
	crc      uint32
	crcValid bool
	crcLazy  bool

	// Arena bookkeeping (pool.go). pooled marks packets born in the arena;
	// live guards against double release. buf is the owned payload storage
	// Buf slices into; routeBuf backs CopyRoute for short routes.
	pooled   bool
	live     bool
	buf      []byte
	routeBuf [16]byte

	// Speculation journaling (sim spec.go): first-touch shadow of the header
	// fields a speculative span may mutate in place (route advance at
	// switches, CRC and body ownership on injected corruption, injection
	// stamps). Payload *content* is never shadowed: in-flight damage is
	// undone by the self-inverse XOR record of SpecCorruptPayload, and
	// construction-time writes only happen on packets the span itself
	// checked out, which a rollback releases wholesale.
	specMark uint64
	shadow   pktShadow
}

// pktShadow holds the restore image for Packet.SpecSave/SpecRestore. Slice
// fields copy only the header (pointer/len/cap), not the bytes.
type pktShadow struct {
	route    []byte
	payload  []byte
	body     []byte
	crc      uint32
	id       uint64
	srcLabel string
	injected sim.Time
	crcValid bool
	crcLazy  bool
}

// SpecTouch journals this packet into eng's current speculative span on
// first touch. Call before mutating a packet that may predate the span (the
// switch's route advance, the MCP's injection stamp on a parked packet).
func (p *Packet) SpecTouch(eng *sim.Engine) { eng.SpecTouch(&p.specMark, p) }

// SpecSave / SpecRestore implement sim.SpecSaver.
func (p *Packet) SpecSave() {
	p.shadow = pktShadow{
		route:    p.Route,
		payload:  p.Payload,
		body:     p.Body,
		crc:      p.crc,
		id:       p.ID,
		srcLabel: p.SrcLabel,
		injected: p.Injected,
		crcValid: p.crcValid,
		crcLazy:  p.crcLazy,
	}
}

// SpecRestore rewinds the header fields. Pool liveness is deliberately not
// restored here: checkouts and releases are journaled by GetPacketSpec and
// ReleaseSpec (pool.go) so ownership rewinds through the span journal, never
// through a component checkpoint.
func (p *Packet) SpecRestore() {
	p.Route = p.shadow.route
	p.Payload = p.shadow.payload
	p.Body = p.shadow.body
	p.crc = p.shadow.crc
	p.ID = p.shadow.id
	p.SrcLabel = p.shadow.srcLabel
	p.Injected = p.shadow.injected
	p.crcValid = p.shadow.crcValid
	p.crcLazy = p.shadow.crcLazy
}

// SpecCorruptPayload is CorruptPayload with span journaling: the bit flip is
// undone by a self-inverse XOR record and the CRC, crcValid and body
// ownership damage by the first-touch header shadow. The touch always
// precedes the XOR record, so the newest-first replay flips the bit back in
// the owned copy before the header restore points Body at the shared bytes
// again.
func (p *Packet) SpecCorruptPayload(eng *sim.Engine, bit int, reseal bool) {
	if p.contentLen() == 0 {
		return
	}
	p.SpecTouch(eng)
	eng.SpecUndo(pktUndoXOR, p, nil, uint64(bit), 0)
	p.CorruptPayload(bit, reseal)
}

func pktUndoXOR(a, b any, v1, v2 uint64) {
	p := a.(*Packet)
	if len(p.Payload) == 0 {
		return
	}
	// The forward flip folded Body into Payload, so the whole content is
	// owned here.
	idx := (int(v1) / 8) % len(p.Payload)
	p.Payload[idx] ^= 1 << (v1 % 8)
}

// HeaderBytes is the fixed per-packet framing overhead on the wire beyond
// route bytes and payload (type field + CRC trailer), in bytes.
const HeaderBytes = 8

// contentLen is the content length: Payload plus Body.
func (p *Packet) contentLen() int { return len(p.Payload) + len(p.Body) }

// WireSize is the number of bytes the packet occupies on a link.
func (p *Packet) WireSize() int { return len(p.Route) + p.contentLen() + HeaderBytes }

// checksum hashes the content, Payload then Body.
func (p *Packet) checksum() uint32 {
	c := crc32.ChecksumIEEE(p.Payload)
	if len(p.Body) > 0 {
		c = crc32.Update(c, crc32.IEEETable, p.Body)
	}
	return c
}

// SealCRC seals the content. The checksum is deferred until something
// damages the packet (settleCRC); until then the seal verdict stands.
func (p *Packet) SealCRC() {
	p.crcValid = true
	p.crcLazy = true
}

// settleCRC computes the checksum a lazy seal deferred. It must run before
// the first post-seal mutation, while the content is still what was sealed.
func (p *Packet) settleCRC() {
	if p.crcLazy {
		p.crc = p.checksum()
		p.crcLazy = false
	}
}

// CRCOk reports whether the stored CRC matches the content. Sealed,
// undamaged packets answer from the seal verdict without hashing; only
// literal or damaged packets pay for a checksum here.
func (p *Packet) CRCOk() bool {
	return p.crcValid || p.crc == p.checksum()
}

// ownBody copies Body into the packet's own storage behind Payload
// (copy-on-corrupt), so a flip never reaches the memory Body points at.
func (p *Packet) ownBody() {
	if p.Body == nil {
		return
	}
	p.buf = append(append(p.buf[:0], p.Payload...), p.Body...)
	p.Payload, p.Body = p.buf, nil
}

// CorruptPayload flips a bit of the content (for fault experiments). The
// CRC is left stale so receivers detect the damage, unless reseal is true,
// which models corruption that happened before the CRC was computed — the
// damage then slips past the link-level check, exactly the "Messages
// Corrupted" failure mode of Table 1. A referenced Body is copied into the
// packet first, so the sender's buffer is never damaged.
func (p *Packet) CorruptPayload(bit int, reseal bool) {
	n := p.contentLen()
	if n == 0 {
		return
	}
	p.settleCRC()
	p.ownBody()
	idx := (bit / 8) % n
	p.Payload[idx] ^= 1 << (bit % 8)
	p.crcValid = false
	if reseal {
		p.SealCRC()
	}
}

// String summarizes the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d[route=%v payload=%dB]", p.ID, p.Route, p.contentLen())
}
