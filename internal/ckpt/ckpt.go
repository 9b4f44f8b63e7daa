// Package ckpt implements the endpoint checkpoint wire codec: a versioned,
// deterministic binary serialization of a node's recovery anchor — the §4.1
// host-side backup state that FTGM keeps so a hung interface can be restored.
// A checkpoint extends that protection to host death: it captures, per node,
//
//   - the interface identity (UID, mapped NodeID) and the driver's route
//     cache;
//   - the node-level receive commit table (RxAckTable: the last sequence
//     number committed on every incoming stream — the delayed-ACK state of
//     §4.1, updated only after the event record lands in host memory);
//   - per open port: the shadow send-token queue (which carries the
//     host-generated Go-Back-N sequence numbers of every unacknowledged
//     message, in posting order), the shadow receive-token queue, the
//     per-(remote node, priority) sequence generators, and the registered
//     directed-send regions (id allocator cursor, geometry and contents —
//     a deposit the MCP has already acknowledged lives only in the region
//     buffer, so the buffer is part of the recovery anchor).
//
// Two frame families carry it: a full GMCK frame (this file) and the GMCD
// delta frames of a periodic chain (delta.go). Both are built from the same
// records — route, receive-commit entry and port record — through one
// encoder and one decoder per record; only the frame headers, the delta's
// optional route section, its removed-port list and the per-region dirty
// byte differ. A full checkpoint is the delta from nothing: the library
// captures its anchor once, as a Delta against an empty chain tip, and
// Checkpoint.Apply turns that into the full record.
//
// The encoding is deterministic: maps are serialized in sorted key order and
// every integer is fixed-width little-endian, so two checkpoints of equal
// state are byte-identical. The stream is framed with a magic number, a
// format version and a trailing CRC32; Decode rejects truncated, corrupt or
// foreign input with typed errors and never panics. Decoded checkpoints own
// their memory (no aliasing of the input buffer).
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/core"
	"repro/internal/gmproto"
)

// Codec errors.
var (
	// ErrTruncated is returned when the stream ends mid-record.
	ErrTruncated = errors.New("ckpt: checkpoint truncated")
	// ErrCorrupt is returned on a bad magic number, checksum or framing.
	ErrCorrupt = errors.New("ckpt: checkpoint corrupt")
	// ErrVersion is returned on an unknown format version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")
)

// Magic identifies a checkpoint stream ("GMCK").
const Magic uint32 = 0x474d434b

// Version is the current format version. Any layout change bumps it; Decode
// refuses versions it does not understand.
const Version uint16 = 1

// RxAck is one receive-commit table entry.
type RxAck struct {
	Stream gmproto.StreamID
	Seq    uint32
}

// Route is one route-cache entry: the source-routed hop bytes toward a node.
type Route struct {
	Node gmproto.NodeID
	Hops []byte
}

// RegionRecord is the set of region records a PortRecord can hold: full
// contents in a checkpoint, contents-or-inherit in a delta.
type RegionRecord interface {
	RegionCheckpoint | RegionDelta
}

// PortRecord is one open port's recovery anchor, shared by both frame
// families; only the region record differs.
type PortRecord[R RegionRecord] struct {
	Port gmproto.PortID
	// NextToken is the port's token-id allocator cursor, so a restored port
	// mints ids that do not collide with outstanding shadow tokens.
	NextToken uint64
	// SendTokens are the unacknowledged sends in posting order, each
	// carrying its host-generated sequence number — the Go-Back-N window
	// marks (§4.4: "the send tokens contain the sequence numbers of the
	// messages that have not been acknowledged").
	SendTokens []gmproto.SendToken
	// RecvTokens are the provided-but-unconsumed receive buffers in posting
	// order. Buffer contents are not serialized (a receive buffer has none
	// until a message lands); BufLen records the allocation size.
	RecvTokens []RecvTokenCheckpoint
	// SeqStreams are the per-(remote, priority) sequence generators, sorted.
	SeqStreams []core.SeqStream
	// NextRegion is the port's region-id allocator cursor, so regions
	// registered after a restore never reuse an id peers may still hold
	// from before the death.
	NextRegion uint32
	// Regions are the registered directed-send regions in registration
	// order. Contents are serialized: an acknowledged directed deposit
	// exists only in the region buffer, so dropping the bytes would lose
	// it — the peer's ACK table dedups the retransmission after a restore.
	Regions []R
}

// PortCheckpoint is a port record of a full checkpoint.
type PortCheckpoint = PortRecord[RegionCheckpoint]

// RegionCheckpoint is one registered directed-send region: its id and the
// pinned buffer bytes (len(Data) is the region size).
type RegionCheckpoint struct {
	ID   uint32
	Data []byte
}

// RecvTokenCheckpoint is the serialized form of a receive token: identity
// and geometry, not contents.
type RecvTokenCheckpoint struct {
	ID     uint64
	Size   uint32
	Prio   gmproto.Priority
	BufLen uint32
}

// Checkpoint is a node's complete recovery anchor.
type Checkpoint struct {
	// UID is the interface's pre-mapping unique id; NodeID its mapped
	// identity. A restore must present the same UID so the control plane
	// readmits it as the same member.
	UID    uint64
	NodeID gmproto.NodeID
	// Routes is the driver's route cache, sorted by destination.
	Routes []Route
	// RxAcks is the receive commit table, sorted by core.CompareStreamIDs.
	RxAcks []RxAck
	// Ports holds one record per open port, sorted by port id.
	Ports []PortCheckpoint
}

// Minimum encoded sizes, used to sanity-check counts before allocating.
const (
	minRoute       = 2 + 2 // node + hop count
	minRxAck       = 2 + 1 + 1 + 4
	minSendToken   = 8 + 2 + 1 + 1 + 1 + 4 + 1 + 1 + 4 + 4 + 4
	minRecvToken   = 8 + 4 + 1 + 4
	minSeqStream   = 2 + 1 + 4
	minPort        = 1 + 8 + 4 + 4 + 4 + 4 + 4
	minRegion      = 4 + 4 // id + length
	minRegionDelta = 4 + 1 // id + dirty byte
)

// enc appends fixed-width little-endian fields to a caller-owned buffer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// header writes the prefix both frame families share.
func (e *enc) header(magic uint32, version, flags uint16, uid uint64, node gmproto.NodeID) {
	e.u32(magic)
	e.u16(version)
	e.u16(flags)
	e.u64(uid)
	e.u16(uint16(node))
}

func (e *enc) routes(rs []Route) {
	e.u32(uint32(len(rs)))
	for _, r := range rs {
		e.u16(uint16(r.Node))
		e.u16(uint16(len(r.Hops)))
		e.b = append(e.b, r.Hops...)
	}
}

func (e *enc) rxAcks(as []RxAck) {
	e.u32(uint32(len(as)))
	for _, a := range as {
		e.u16(uint16(a.Stream.Node))
		e.u8(uint8(a.Stream.Port))
		e.u8(uint8(a.Stream.Prio))
		e.u32(a.Seq)
	}
}

func (e *enc) sendToken(t *gmproto.SendToken) {
	e.u64(t.ID)
	e.u16(uint16(t.Dest))
	e.u8(uint8(t.DestPort))
	e.u8(uint8(t.SrcPort))
	e.u8(uint8(t.Prio))
	e.u32(t.Seq)
	e.u8(boolByte(t.HasSeq))
	e.u8(boolByte(t.Directed))
	e.u32(t.RegionID)
	e.u32(t.RemoteOffset)
	e.bytes(t.Data)
}

// region writes one region record: a checkpoint region inlines its bytes, a
// delta region inlines them only when dirty.
func (e *enc) region(r any) {
	switch r := r.(type) {
	case *RegionCheckpoint:
		e.u32(r.ID)
		e.bytes(r.Data)
	case *RegionDelta:
		e.u32(r.ID)
		e.u8(boolByte(r.Dirty))
		if r.Dirty {
			e.bytes(r.Data)
		}
	}
}

// appendPorts writes a port-record section.
func appendPorts[R RegionRecord](e *enc, ps []PortRecord[R]) {
	e.u32(uint32(len(ps)))
	for i := range ps {
		p := &ps[i]
		e.u8(uint8(p.Port))
		e.u64(p.NextToken)
		e.u32(uint32(len(p.SendTokens)))
		for j := range p.SendTokens {
			e.sendToken(&p.SendTokens[j])
		}
		e.u32(uint32(len(p.RecvTokens)))
		for _, t := range p.RecvTokens {
			e.u64(t.ID)
			e.u32(t.Size)
			e.u8(uint8(t.Prio))
			e.u32(t.BufLen)
		}
		e.u32(uint32(len(p.SeqStreams)))
		for _, ss := range p.SeqStreams {
			e.u16(uint16(ss.Node))
			e.u8(uint8(ss.Prio))
			e.u32(ss.Last)
		}
		e.u32(p.NextRegion)
		e.u32(uint32(len(p.Regions)))
		for j := range p.Regions {
			e.region(&p.Regions[j])
		}
	}
}

// seal appends the CRC32 of everything appended since start and returns the
// finished frame.
func (e *enc) seal(start int) []byte {
	return binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b[start:]))
}

// AppendTo serializes the checkpoint onto buf and returns the extended
// slice. The appended bytes are a complete frame (identical to Encode's
// output); passing a retained buffer with buf[:0] makes repeated encodes
// allocation-free once the buffer has grown to steady-state size.
func (c *Checkpoint) AppendTo(buf []byte) []byte {
	e := enc{b: buf}
	start := len(buf)
	e.header(Magic, Version, 0, c.UID, c.NodeID)
	e.routes(c.Routes)
	e.rxAcks(c.RxAcks)
	appendPorts(&e, c.Ports)
	return e.seal(start)
}

// Encode serializes the checkpoint. The output is deterministic: equal
// checkpoints produce byte-identical streams.
func (c *Checkpoint) Encode() []byte {
	return c.AppendTo(make([]byte, 0, 64))
}

// TrailingCRC returns the frame's trailing CRC32 word — the value a delta
// chained onto this frame must carry as PrevCRC. It does not validate the
// frame; callers hold frames that Decode/DecodeDelta already accepted, or
// that they encoded themselves.
func TrailingCRC(frame []byte) uint32 {
	if len(frame) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(frame[len(frame)-4:])
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// decoder walks the stream with bounds checks; the first overrun latches
// ErrTruncated and every later read returns zeros, so decode paths need no
// per-read error plumbing.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.data) {
		d.err = ErrTruncated
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.data[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// take copies the next n bytes into fresh memory (nil when n is 0).
func (d *decoder) take(n int) []byte {
	if !d.need(n) {
		return nil
	}
	out := append([]byte(nil), d.data[d.off:d.off+n]...)
	d.off += n
	return out
}

// bytes reads a length-prefixed byte string into fresh memory.
func (d *decoder) bytes() []byte { return d.take(int(d.u32())) }

// count reads a record count and validates it against the bytes remaining at
// the given minimum record size, so hostile counts cannot force huge
// allocations.
func (d *decoder) count(minRecord int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if uint64(n) > uint64(len(d.data)-d.off)/uint64(minRecord) {
		d.err = ErrTruncated
		return 0
	}
	return int(n)
}

// openFrame validates a frame's length, trailing checksum, magic, version
// and flag word, and returns a decoder over the body positioned after the
// flags. fixed is the frame's fixed header size.
func openFrame(data []byte, magic uint32, version, knownFlags uint16, fixed int) (decoder, uint16, error) {
	if len(data) < fixed+4 {
		return decoder{}, 0, ErrTruncated
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != TrailingCRC(data) {
		return decoder{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := decoder{data: body}
	if d.u32() != magic {
		return decoder{}, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.u16(); v != version {
		return decoder{}, 0, fmt.Errorf("%w: version %d", ErrVersion, v)
	}
	flags := d.u16()
	if flags&^knownFlags != 0 {
		return decoder{}, 0, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags&^knownFlags)
	}
	return d, flags, nil
}

// finish reports the latched error, or trailing bytes after the last record.
func (d *decoder) finish() error {
	if d.err == nil && d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.data)-d.off)
	}
	return d.err
}

// The section decoders append into dst[:0], reusing its capacity and
// otherwise growing it once to the exact record count.

func (d *decoder) routes(dst []Route) []Route {
	n := d.count(minRoute)
	dst = slices.Grow(dst[:0], n)
	for range n {
		node := gmproto.NodeID(d.u16())
		dst = append(dst, Route{Node: node, Hops: d.take(int(d.u16()))})
	}
	return dst
}

func (d *decoder) rxAcks(dst []RxAck) []RxAck {
	n := d.count(minRxAck)
	dst = slices.Grow(dst[:0], n)
	for range n {
		var a RxAck
		a.Stream.Node = gmproto.NodeID(d.u16())
		a.Stream.Port = gmproto.PortID(d.u8())
		a.Stream.Prio = gmproto.Priority(d.u8())
		a.Seq = d.u32()
		dst = append(dst, a)
	}
	return dst
}

func (d *decoder) sendToken() gmproto.SendToken {
	var t gmproto.SendToken
	t.ID = d.u64()
	t.Dest = gmproto.NodeID(d.u16())
	t.DestPort = gmproto.PortID(d.u8())
	t.SrcPort = gmproto.PortID(d.u8())
	t.Prio = gmproto.Priority(d.u8())
	t.Seq = d.u32()
	t.HasSeq = d.u8() != 0
	t.Directed = d.u8() != 0
	t.RegionID = d.u32()
	t.RemoteOffset = d.u32()
	t.Data = d.bytes()
	return t
}

// region reads one region record into r (see enc.region).
func (d *decoder) region(r any) {
	switch r := r.(type) {
	case *RegionCheckpoint:
		r.ID = d.u32()
		r.Data = d.bytes()
	case *RegionDelta:
		r.ID = d.u32()
		r.Dirty = d.u8() != 0
		r.Data = nil
		if r.Dirty {
			r.Data = d.bytes()
		}
	}
}

// decodePorts reads a port-record section into dst[:0]. Records past
// len(dst) but within its capacity keep their inner slices, so a decoder
// reusing one frame reaches steady state without allocating slice headers.
// regionSize is the frame family's minimum region record size.
func decodePorts[R RegionRecord](d *decoder, dst []PortRecord[R], regionSize int) []PortRecord[R] {
	n := d.count(minPort)
	dst = slices.Grow(dst[:0], n)
	for range n {
		p := extend(&dst)
		p.Port = gmproto.PortID(d.u8())
		p.NextToken = d.u64()
		k := d.count(minSendToken)
		p.SendTokens = slices.Grow(p.SendTokens[:0], k)
		for range k {
			p.SendTokens = append(p.SendTokens, d.sendToken())
		}
		k = d.count(minRecvToken)
		p.RecvTokens = slices.Grow(p.RecvTokens[:0], k)
		for range k {
			var t RecvTokenCheckpoint
			t.ID = d.u64()
			t.Size = d.u32()
			t.Prio = gmproto.Priority(d.u8())
			t.BufLen = d.u32()
			p.RecvTokens = append(p.RecvTokens, t)
		}
		k = d.count(minSeqStream)
		p.SeqStreams = slices.Grow(p.SeqStreams[:0], k)
		for range k {
			var ss core.SeqStream
			ss.Node = gmproto.NodeID(d.u16())
			ss.Prio = gmproto.Priority(d.u8())
			ss.Last = d.u32()
			p.SeqStreams = append(p.SeqStreams, ss)
		}
		p.NextRegion = d.u32()
		k = d.count(regionSize)
		p.Regions = slices.Grow(p.Regions[:0], k)
		for range k {
			d.region(extend(&p.Regions))
		}
	}
	return dst
}

// extend grows *s by one element and returns it. Within capacity the
// element keeps whatever the backing array held — for a record, the
// capacity of its inner slices, which is what lets pooled frames reach zero
// allocations at steady state; callers overwrite every field they use.
func extend[T any](s *[]T) *T {
	if len(*s) < cap(*s) {
		*s = (*s)[:len(*s)+1]
	} else {
		*s = append(*s, *new(T))
	}
	return &(*s)[len(*s)-1]
}

// Decode parses a checkpoint stream, validating framing, version and
// checksum. It never panics on hostile input and the returned checkpoint
// shares no memory with data.
func Decode(data []byte) (*Checkpoint, error) {
	// Fixed header: magic+version+flags+uid+node.
	d, _, err := openFrame(data, Magic, Version, 0, 4+2+2+8+2)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{UID: d.u64(), NodeID: gmproto.NodeID(d.u16())}
	c.Routes = d.routes(nil)
	c.RxAcks = d.rxAcks(nil)
	c.Ports = decodePorts[RegionCheckpoint](&d, nil, minRegion)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return c, nil
}
