// Delta frames: the incremental half of the checkpoint codec. A periodic
// checkpoint stream is one full base frame (the GMCK format of ckpt.go)
// followed by an ordered chain of GMCD delta frames, each encoding only the
// sections dirtied since its predecessor:
//
//   - the route cache, only when the driver replaced it (flag bit 0);
//   - receive-commit advances as sorted (stream, seq) updates merged into
//     the base table — or a full table replace after a Forget (flag bit 1),
//     since Forget deletes entries and a merge cannot express deletion;
//   - one record per dirty port: the same port record a full checkpoint
//     carries, except that each region has a dirty byte — clean regions
//     carry only their id (5 bytes) and inherit their bytes from the
//     predecessor frame, dirty regions inline their contents;
//   - ids of ports closed since the predecessor frame.
//
// A delta against an empty chain tip — every section present, every port
// and region dirty — is a full anchor: applied to an empty Checkpoint it is
// exactly what the library checkpoints, which is how the library builds
// its full checkpoints.
//
// Chain integrity is end-to-end: every frame carries its position in the
// chain (Seq: base is 0, the first delta 1, ...) and the trailing CRC32 word
// of its predecessor (PrevCRC), so ReplayChain detects a missing, reordered
// or cross-chain frame even when each frame is individually well-formed.
// Replay is deterministic and canonical: applying a chain to its base
// keeps every section sorted, so re-encoding the replayed checkpoint is
// bit-identical to a full checkpoint taken at the same drain point.
package ckpt

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/gmproto"
)

// DeltaMagic identifies a delta frame ("GMCD").
const DeltaMagic uint32 = 0x474d4344

// DeltaVersion is the current delta format version.
const DeltaVersion uint16 = 1

// Delta flag bits. Unknown bits are a decode error, which keeps the
// canonical re-encode property: every accepted frame round-trips exactly.
const (
	// deltaFlagRoutes marks a frame that carries a replacement route table.
	deltaFlagRoutes uint16 = 1 << 0
	// deltaFlagRxReplace marks a frame whose RxAcks section replaces the
	// whole receive-commit table instead of merging into it.
	deltaFlagRxReplace uint16 = 1 << 1

	deltaFlagKnown = deltaFlagRoutes | deltaFlagRxReplace
)

// ErrChain is returned when a delta cannot extend the checkpoint it is
// applied to: identity mismatch, a gap or reorder in the chain sequence, a
// PrevCRC that does not match the predecessor frame, or a clean region
// reference to state the base does not hold.
var ErrChain = fmt.Errorf("ckpt: delta chain broken")

// RegionDelta is one registered region in a dirty port's record. A clean
// region names its id and inherits its bytes from the predecessor frame; a
// dirty region carries its full contents (deposits land at arbitrary
// offsets, and the region buffer is the only home of acknowledged directed
// data, so partial-buffer diffs are not worth the bookkeeping).
type RegionDelta struct {
	ID    uint32
	Dirty bool
	Data  []byte // nil unless Dirty
}

// PortDelta is one dirty port's record: a full replacement of the port's
// checkpoint record except for clean region contents.
type PortDelta = PortRecord[RegionDelta]

// Delta is one decoded (or to-be-encoded) delta frame. The zero value with
// UID/NodeID/Seq/PrevCRC filled in is an empty-but-valid frame. A Delta
// built for encoding may alias live state (token slices, region buffers):
// AppendTo copies everything into the output frame and retains nothing.
type Delta struct {
	UID    uint64
	NodeID gmproto.NodeID
	// Seq is the frame's position in the chain: the base frame is 0, the
	// first delta 1, and so on with no gaps.
	Seq uint64
	// PrevCRC is the trailing CRC32 word of the predecessor frame (the base
	// for Seq 1, the previous delta otherwise).
	PrevCRC uint32
	// RoutesReplaced marks that Routes carries a full replacement route
	// table (sorted by destination). When false, Routes must be empty and
	// the section is absent from the wire.
	RoutesReplaced bool
	Routes         []Route
	// RxReplaceAll marks that RxAcks replaces the whole receive-commit
	// table; otherwise RxAcks holds only the entries that advanced, to be
	// merged into the predecessor's table. Sorted either way.
	RxReplaceAll bool
	RxAcks       []RxAck
	// Ports holds one record per dirty port, sorted by port id.
	Ports []PortDelta
	// Removed lists ports closed since the predecessor frame, sorted.
	Removed []gmproto.PortID
}

// NextPort extends d.Ports by one record and returns it for filling. The
// record's inner slices keep their capacity from previous builds, so a
// retained Delta reaches zero allocations per build at steady state.
// Callers must reset the slices they fill (pd.SendTokens = pd.SendTokens[:0]
// style) — NextPort only preserves capacity, not contents.
func (d *Delta) NextPort() *PortDelta { return extend(&d.Ports) }

// NextRegionDelta extends p.Regions by one record and returns it for
// filling, with the same capacity-preserving contract as Delta.NextPort.
func (p *PortRecord[R]) NextRegionDelta() *R { return extend(&p.Regions) }

// Reset clears the frame for rebuilding while keeping every slice's
// capacity (including the inner slices of pooled port records).
func (d *Delta) Reset() {
	d.RoutesReplaced, d.RxReplaceAll = false, false
	d.Routes = d.Routes[:0]
	d.RxAcks = d.RxAcks[:0]
	d.Ports = d.Ports[:0]
	d.Removed = d.Removed[:0]
}

// flags derives the wire flag word from the struct.
func (d *Delta) flags() uint16 {
	var f uint16
	if d.RoutesReplaced {
		f |= deltaFlagRoutes
	}
	if d.RxReplaceAll {
		f |= deltaFlagRxReplace
	}
	return f
}

// AppendTo serializes the delta onto buf and returns the extended slice.
// Deterministic like the base encoder: equal deltas produce byte-identical
// frames. Nothing in d is retained or mutated.
func (d *Delta) AppendTo(buf []byte) []byte {
	e := enc{b: buf}
	start := len(buf)
	e.header(DeltaMagic, DeltaVersion, d.flags(), d.UID, d.NodeID)
	e.u64(d.Seq)
	e.u32(d.PrevCRC)
	if d.RoutesReplaced {
		e.routes(d.Routes)
	}
	e.rxAcks(d.RxAcks)
	appendPorts(&e, d.Ports)
	e.u32(uint32(len(d.Removed)))
	for _, p := range d.Removed {
		e.u8(uint8(p))
	}
	return e.seal(start)
}

// Encode serializes the delta into a fresh buffer.
func (d *Delta) Encode() []byte {
	return d.AppendTo(make([]byte, 0, 64))
}

// DecodeDelta parses a delta frame, validating framing, version, flags and
// checksum. It never panics on hostile input and the returned delta shares
// no memory with data.
func DecodeDelta(data []byte) (*Delta, error) {
	dl := &Delta{}
	if err := decodeDeltaInto(dl, data); err != nil {
		return nil, err
	}
	return dl, nil
}

// decodeDeltaInto is DecodeDelta writing into a caller-owned frame, reusing
// its slice capacity (including the inner slices of pooled port records).
// A chain replayer decoding hundreds of frames through one scratch Delta
// reaches zero slice-header allocations at steady state; only variable-size
// byte payloads (send-token data, dirty region contents) still copy fresh.
func decodeDeltaInto(dl *Delta, data []byte) error {
	// Fixed header: magic+version+flags+uid+node+seq+prevCRC.
	d, flags, err := openFrame(data, DeltaMagic, DeltaVersion, deltaFlagKnown, 4+2+2+8+2+8+4)
	if err != nil {
		return err
	}
	dl.RoutesReplaced = flags&deltaFlagRoutes != 0
	dl.RxReplaceAll = flags&deltaFlagRxReplace != 0
	dl.UID = d.u64()
	dl.NodeID = gmproto.NodeID(d.u16())
	dl.Seq = d.u64()
	dl.PrevCRC = d.u32()
	dl.Routes = dl.Routes[:0]
	if dl.RoutesReplaced {
		dl.Routes = d.routes(dl.Routes)
	}
	dl.RxAcks = d.rxAcks(dl.RxAcks)
	dl.Ports = decodePorts(&d, dl.Ports, minRegionDelta)
	n := d.count(1) // one byte per removed port id
	dl.Removed = slices.Grow(dl.Removed[:0], n)
	for range n {
		dl.Removed = append(dl.Removed, gmproto.PortID(d.u8()))
	}
	return d.finish()
}

// Apply merges one delta into the checkpoint in place, keeping every section
// sorted exactly as a fresh Checkpoint() would produce it. The checkpoint
// takes its own copies of the delta's memory, so the delta (which may alias
// live state on the encode side) stays untouched. Chain-order validation
// (Seq, PrevCRC) is ReplayChain's job; Apply validates only what it can see
// on its own: identity and clean-region references.
func (c *Checkpoint) Apply(d *Delta) error {
	if d.UID != c.UID || d.NodeID != c.NodeID {
		return fmt.Errorf("%w: delta for uid=%d node=%d applied to uid=%d node=%d",
			ErrChain, d.UID, d.NodeID, c.UID, c.NodeID)
	}

	if d.RoutesReplaced {
		c.Routes = nil
		if len(d.Routes) > 0 {
			c.Routes = make([]Route, len(d.Routes))
		}
		for i, r := range d.Routes {
			c.Routes[i] = Route{Node: r.Node, Hops: append([]byte(nil), r.Hops...)}
		}
	}

	if d.RxReplaceAll {
		c.RxAcks = append([]RxAck(nil), d.RxAcks...)
	} else {
		for _, a := range d.RxAcks {
			i, ok := slices.BinarySearchFunc(c.RxAcks, a.Stream, func(e RxAck, s gmproto.StreamID) int {
				return core.CompareStreamIDs(e.Stream, s)
			})
			if ok {
				c.RxAcks[i].Seq = a.Seq
			} else {
				c.RxAcks = slices.Insert(c.RxAcks, i, a)
			}
		}
	}

	// Removals first: a close-then-reopen inside one interval shows up as
	// the port in both Removed and Ports, and the fresh record must survive.
	for _, p := range d.Removed {
		i, ok := c.findPort(p)
		if !ok {
			return fmt.Errorf("%w: removed port %d absent from base", ErrChain, p)
		}
		c.Ports = slices.Delete(c.Ports, i, i+1)
	}

	for pi := range d.Ports {
		pd := &d.Ports[pi]
		// prev is the record being replaced, zero for a port new to c.
		var prev PortCheckpoint
		i, ok := c.findPort(pd.Port)
		if ok {
			prev = c.Ports[i]
		}
		pc := PortCheckpoint{
			Port:       pd.Port,
			NextToken:  pd.NextToken,
			NextRegion: pd.NextRegion,
		}
		// The replaced record's slices have exactly one owner (the checkpoint)
		// and are about to be dropped — recycle their capacity, so a long
		// chain replay stops allocating per frame once the records reach
		// their steady-state sizes. A port new to the checkpoint grows each
		// slice once, to its exact length.
		if len(pd.SendTokens) > 0 {
			pc.SendTokens = slices.Grow(prev.SendTokens[:0], len(pd.SendTokens))
			for _, t := range pd.SendTokens {
				t.Data = append([]byte(nil), t.Data...)
				pc.SendTokens = append(pc.SendTokens, t)
			}
		}
		if len(pd.RecvTokens) > 0 {
			pc.RecvTokens = append(prev.RecvTokens[:0], pd.RecvTokens...)
		}
		if len(pd.SeqStreams) > 0 {
			pc.SeqStreams = append(prev.SeqStreams[:0], pd.SeqStreams...)
		}
		if n := len(pd.Regions); n > 0 {
			pc.Regions = make([]RegionCheckpoint, n)
			for j := range pd.Regions {
				rd := &pd.Regions[j]
				if rd.Dirty {
					pc.Regions[j] = RegionCheckpoint{
						ID:   rd.ID,
						Data: append([]byte(nil), rd.Data...),
					}
					continue
				}
				old := prevRegion(&prev, rd.ID)
				if old == nil {
					return fmt.Errorf("%w: port %d region %d marked clean but absent from base",
						ErrChain, pd.Port, rd.ID)
				}
				// Move, don't share: prev is about to be replaced, so the
				// old buffer has exactly one owner either way.
				pc.Regions[j] = RegionCheckpoint{ID: rd.ID, Data: old.Data}
			}
		}
		if ok {
			c.Ports[i] = pc
		} else {
			c.Ports = slices.Insert(c.Ports, i, pc)
		}
	}

	return nil
}

// findPort locates a port record by id in the sorted Ports section: its
// index, or the insertion point and false.
func (c *Checkpoint) findPort(id gmproto.PortID) (int, bool) {
	return slices.BinarySearchFunc(c.Ports, id, func(p PortCheckpoint, id gmproto.PortID) int {
		return int(p.Port) - int(id)
	})
}

// prevRegion finds the region with the given id in the predecessor port
// record, or nil.
func prevRegion(prev *PortCheckpoint, id uint32) *RegionCheckpoint {
	for i := range prev.Regions {
		if prev.Regions[i].ID == id {
			return &prev.Regions[i]
		}
	}
	return nil
}

// ReplayChain reconstructs a checkpoint from a base frame and its ordered
// delta chain, validating end-to-end integrity: each delta must decode, sit
// at the next chain position, name the same interface, and carry the
// predecessor frame's trailing CRC. The result is bit-identical (after
// re-encoding) to a full checkpoint taken at the final delta's drain point.
func ReplayChain(base []byte, deltas [][]byte) (*Checkpoint, error) {
	c, err := Decode(base)
	if err != nil {
		return nil, fmt.Errorf("ckpt: chain base: %w", err)
	}
	prevCRC := TrailingCRC(base)
	// One scratch frame serves the whole chain: decodeDeltaInto reuses its
	// capacity and Apply copies everything it keeps, so per-frame cost stays
	// flat however long the chain grows.
	d := &Delta{}
	for i, frame := range deltas {
		if err := decodeDeltaInto(d, frame); err != nil {
			return nil, fmt.Errorf("ckpt: chain delta %d: %w", i+1, err)
		}
		if d.Seq != uint64(i+1) {
			return nil, fmt.Errorf("%w: delta %d carries seq %d", ErrChain, i+1, d.Seq)
		}
		if d.PrevCRC != prevCRC {
			return nil, fmt.Errorf("%w: delta %d prevCRC %#x != predecessor CRC %#x",
				ErrChain, i+1, d.PrevCRC, prevCRC)
		}
		if err := c.Apply(d); err != nil {
			return nil, fmt.Errorf("ckpt: chain delta %d: %w", i+1, err)
		}
		prevCRC = TrailingCRC(frame)
	}
	return c, nil
}
