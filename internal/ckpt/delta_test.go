package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gmproto"
)

// seedDeltas returns representative delta frames chained onto the seed
// checkpoints: an empty heartbeat delta, an ack-merge delta, and a busy one
// exercising every section including clean-region inheritance, a port
// insert, and a port removal.
func seedDeltas() []*Delta {
	base := seedCheckpoints()[2]
	return []*Delta{
		{UID: base.UID, NodeID: base.NodeID, Seq: 1, PrevCRC: 0x1234},
		{
			UID: base.UID, NodeID: base.NodeID, Seq: 2, PrevCRC: 0xcafe,
			RxAcks: []RxAck{
				{Stream: gmproto.StreamID{Node: 1, Port: 2, Prio: gmproto.PriorityLow}, Seq: 101},
				{Stream: gmproto.StreamID{Node: 9, Port: 1, Prio: gmproto.PriorityHigh}, Seq: 1},
			},
		},
		{
			UID: base.UID, NodeID: base.NodeID, Seq: 3, PrevCRC: 0xfeed,
			RoutesReplaced: true,
			Routes: []Route{
				{Node: 1, Hops: []byte{0x90}},
				{Node: 7, Hops: []byte{0x91, 0x92}},
			},
			RxReplaceAll: true,
			RxAcks: []RxAck{
				{Stream: gmproto.StreamID{Node: 1, Port: 2, Prio: gmproto.PriorityLow}, Seq: 200},
			},
			Ports: []PortDelta{
				{
					Port:      2,
					NextToken: 1300,
					SendTokens: []gmproto.SendToken{{
						ID: 19, Dest: 1, DestPort: 2, SrcPort: 2,
						Prio: gmproto.PriorityLow, Seq: 89, HasSeq: true,
						Data: []byte("delta payload"),
					}},
					RecvTokens: []RecvTokenCheckpoint{
						{ID: 42, Size: 256, Prio: gmproto.PriorityLow, BufLen: 256},
					},
					SeqStreams: []core.SeqStream{
						{Node: 1, Prio: gmproto.PriorityLow, Last: 11},
					},
					NextRegion: 3,
					Regions: []RegionDelta{
						{ID: 1, Dirty: true, Data: []byte("fresh deposit bytes")},
						{ID: 3, Dirty: false},
					},
				},
				{Port: 6, NextToken: 1},
			},
			Removed: []gmproto.PortID{4},
		},
	}
}

// TestDeltaRoundTrip: AppendTo then DecodeDelta must reproduce the delta
// exactly, and re-encoding the decoded form must be byte-identical (the
// canonical-form property the delta fuzz target relies on).
func TestDeltaRoundTrip(t *testing.T) {
	for i, d := range seedDeltas() {
		enc := d.Encode()
		dec, err := DecodeDelta(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", i, err)
		}
		if dec.UID != d.UID || dec.NodeID != d.NodeID || dec.Seq != d.Seq || dec.PrevCRC != d.PrevCRC {
			t.Fatalf("seed %d: header fields differ", i)
		}
		if dec.RoutesReplaced != d.RoutesReplaced || dec.RxReplaceAll != d.RxReplaceAll {
			t.Fatalf("seed %d: flags differ", i)
		}
		if len(dec.Ports) != len(d.Ports) || len(dec.Removed) != len(d.Removed) {
			t.Fatalf("seed %d: section lengths differ", i)
		}
		re := dec.Encode()
		if !bytes.Equal(re, enc) {
			t.Fatalf("seed %d: re-encode differs (%d vs %d bytes)", i, len(re), len(enc))
		}
	}
}

// TestDeltaDecodeCopies: a decoded delta must not alias the input buffer.
func TestDeltaDecodeCopies(t *testing.T) {
	enc := seedDeltas()[2].Encode()
	dec, err := DecodeDelta(enc)
	if err != nil {
		t.Fatal(err)
	}
	wantHops := append([]byte(nil), dec.Routes[0].Hops...)
	wantData := append([]byte(nil), dec.Ports[0].SendTokens[0].Data...)
	wantRegion := append([]byte(nil), dec.Ports[0].Regions[0].Data...)
	for i := range enc {
		enc[i] = 0xff
	}
	if !bytes.Equal(dec.Routes[0].Hops, wantHops) ||
		!bytes.Equal(dec.Ports[0].SendTokens[0].Data, wantData) ||
		!bytes.Equal(dec.Ports[0].Regions[0].Data, wantRegion) {
		t.Fatal("decoded delta aliases the input buffer")
	}
}

// chainFrames encodes base + deltas with correct Seq/PrevCRC stitching and
// returns the wire frames.
func chainFrames(base *Checkpoint, deltas []*Delta) ([]byte, [][]byte) {
	baseFrame := base.Encode()
	prev := TrailingCRC(baseFrame)
	frames := make([][]byte, len(deltas))
	for i, d := range deltas {
		d.Seq = uint64(i + 1)
		d.PrevCRC = prev
		frames[i] = d.Encode()
		prev = TrailingCRC(frames[i])
	}
	return baseFrame, frames
}

// TestReplayChain: applying a chain reconstructs the expected checkpoint
// with every section still sorted, and the replayed checkpoint re-encodes
// canonically (base+delta round-trip property).
func TestReplayChain(t *testing.T) {
	base := seedCheckpoints()[2]
	deltas := seedDeltas()
	baseFrame, frames := chainFrames(base, deltas)

	got, err := ReplayChain(baseFrame, frames)
	if err != nil {
		t.Fatal(err)
	}

	// The busy delta replaced routes, the whole ack table, port 2, inserted
	// port 6 and removed port 4.
	want := &Checkpoint{
		UID:    base.UID,
		NodeID: base.NodeID,
		Routes: []Route{
			{Node: 1, Hops: []byte{0x90}},
			{Node: 7, Hops: []byte{0x91, 0x92}},
		},
		RxAcks: []RxAck{
			{Stream: gmproto.StreamID{Node: 1, Port: 2, Prio: gmproto.PriorityLow}, Seq: 200},
		},
		Ports: []PortCheckpoint{
			{
				Port:      2,
				NextToken: 1300,
				SendTokens: []gmproto.SendToken{{
					ID: 19, Dest: 1, DestPort: 2, SrcPort: 2,
					Prio: gmproto.PriorityLow, Seq: 89, HasSeq: true,
					Data: []byte("delta payload"),
				}},
				RecvTokens: []RecvTokenCheckpoint{
					{ID: 42, Size: 256, Prio: gmproto.PriorityLow, BufLen: 256},
				},
				SeqStreams: []core.SeqStream{
					{Node: 1, Prio: gmproto.PriorityLow, Last: 11},
				},
				NextRegion: 3,
				Regions: []RegionCheckpoint{
					{ID: 1, Data: []byte("fresh deposit bytes")},
					{ID: 3, Data: make([]byte, 64)}, // inherited clean from base
				},
			},
			{Port: 6, NextToken: 1},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed checkpoint differs:\ngot  %+v\nwant %+v", got, want)
	}

	// Canonical: the replayed checkpoint must re-encode to exactly what a
	// fresh encode of the same state produces, and decode back canonically.
	re := got.Encode()
	if !bytes.Equal(re, want.Encode()) {
		t.Fatal("replayed checkpoint does not encode canonically")
	}
	dec, err := Decode(re)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), re) {
		t.Fatal("replayed checkpoint round-trip is not canonical")
	}
}

// TestApplyMerges: ack merges hit both the replace and the sorted-insert
// paths, and applying to the wrong identity fails.
func TestApplyMerges(t *testing.T) {
	base := seedCheckpoints()[2]
	c, err := Decode(base.Encode())
	if err != nil {
		t.Fatal(err)
	}
	d := seedDeltas()[1] // two ack updates: one replace, one insert
	if err := c.Apply(d); err != nil {
		t.Fatal(err)
	}
	if len(c.RxAcks) != 4 {
		t.Fatalf("RxAcks len = %d, want 4", len(c.RxAcks))
	}
	if c.RxAcks[0].Seq != 101 {
		t.Fatalf("replaced ack seq = %d, want 101", c.RxAcks[0].Seq)
	}
	if c.RxAcks[3].Stream.Node != 9 || c.RxAcks[3].Seq != 1 {
		t.Fatalf("inserted ack misplaced: %+v", c.RxAcks[3])
	}
	for i := 1; i < len(c.RxAcks); i++ {
		if core.CompareStreamIDs(c.RxAcks[i-1].Stream, c.RxAcks[i].Stream) >= 0 {
			t.Fatal("RxAcks not sorted after merge")
		}
	}

	bad := &Delta{UID: 999, NodeID: c.NodeID}
	if err := c.Apply(bad); !errors.Is(err, ErrChain) {
		t.Fatalf("identity mismatch: err = %v, want ErrChain", err)
	}
}

// TestReplayChainRejects: every chain-integrity violation is detected.
func TestReplayChainRejects(t *testing.T) {
	base := seedCheckpoints()[2]
	deltas := seedDeltas()
	baseFrame, frames := chainFrames(base, deltas)

	t.Run("gap", func(t *testing.T) {
		if _, err := ReplayChain(baseFrame, [][]byte{frames[0], frames[2]}); !errors.Is(err, ErrChain) {
			t.Fatalf("err = %v, want ErrChain", err)
		}
	})
	t.Run("reorder", func(t *testing.T) {
		if _, err := ReplayChain(baseFrame, [][]byte{frames[1], frames[0], frames[2]}); !errors.Is(err, ErrChain) {
			t.Fatalf("err = %v, want ErrChain", err)
		}
	})
	t.Run("crc-link", func(t *testing.T) {
		// A frame that is individually valid but chained onto different
		// predecessor bytes: rebuild delta 2 with a wrong PrevCRC.
		d := seedDeltas()[1]
		d.Seq = 2
		d.PrevCRC ^= 0xffffffff
		if _, err := ReplayChain(baseFrame, [][]byte{frames[0], d.Encode()}); !errors.Is(err, ErrChain) {
			t.Fatalf("err = %v, want ErrChain", err)
		}
	})
	t.Run("corrupt-frame", func(t *testing.T) {
		mut := append([]byte(nil), frames[1]...)
		mut[len(mut)/2] ^= 0x40
		if _, err := ReplayChain(baseFrame, [][]byte{frames[0], mut}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("clean-region-missing", func(t *testing.T) {
		d := &Delta{
			UID: base.UID, NodeID: base.NodeID, Seq: 1,
			PrevCRC: TrailingCRC(baseFrame),
			Ports: []PortDelta{{
				Port:    4, // exists in base but has no regions
				Regions: []RegionDelta{{ID: 9, Dirty: false}},
			}},
		}
		if _, err := ReplayChain(baseFrame, [][]byte{d.Encode()}); !errors.Is(err, ErrChain) {
			t.Fatalf("err = %v, want ErrChain", err)
		}
	})
	t.Run("remove-missing", func(t *testing.T) {
		d := &Delta{
			UID: base.UID, NodeID: base.NodeID, Seq: 1,
			PrevCRC: TrailingCRC(baseFrame),
			Removed: []gmproto.PortID{7},
		}
		if _, err := ReplayChain(baseFrame, [][]byte{d.Encode()}); !errors.Is(err, ErrChain) {
			t.Fatalf("err = %v, want ErrChain", err)
		}
	})
}

// TestDeltaDecodeRejects: hostile delta input comes back as typed errors.
func TestDeltaDecodeRejects(t *testing.T) {
	good := seedDeltas()[2].Encode()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", good[:12], ErrTruncated},
		{"base-frame", seedCheckpoints()[2].Encode(), ErrCorrupt}, // GMCK magic
		{"bad-version", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(b[4:6], 0x7777)
			return reseal(b)
		}(), ErrVersion},
		{"unknown-flags", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(b[6:8], 0x8003)
			return reseal(b)
		}(), ErrCorrupt},
		{"bitflip", func() []byte {
			b := append([]byte(nil), good...)
			b[25] ^= 0x08
			return b
		}(), ErrCorrupt},
		{"hostile-count", func() []byte {
			b := append([]byte(nil), good...)
			// Route count sits right after the 30-byte fixed delta header.
			binary.LittleEndian.PutUint32(b[30:34], 1<<31)
			return reseal(b)
		}(), ErrTruncated},
		{"truncated-resealed", reseal(good[:len(good)/2]), ErrTruncated},
		{"trailing-garbage", seal(append(append([]byte(nil), good[:len(good)-4]...), 1)), ErrCorrupt},
	}
	for _, tc := range cases {
		d, err := DecodeDelta(tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeDelta = (%v, %v), want %v", tc.name, d, err, tc.want)
		}
	}
}

// TestDeltaBuildZeroAlloc: rebuilding and re-encoding a retained delta frame
// allocates nothing once its arenas have reached steady-state capacity —
// the property the periodic checkpoint pipeline relies on.
func TestDeltaBuildZeroAlloc(t *testing.T) {
	payload := []byte("steady-state payload")
	region := make([]byte, 128)
	var d Delta
	var buf []byte
	build := func() {
		d.Reset()
		d.UID, d.NodeID, d.Seq, d.PrevCRC = 42, 3, 7, 0xabcd
		d.RxAcks = append(d.RxAcks, RxAck{
			Stream: gmproto.StreamID{Node: 1, Port: 2}, Seq: 9,
		})
		pd := d.NextPort()
		pd.Port, pd.NextToken, pd.NextRegion = 2, 55, 2
		pd.SendTokens = append(pd.SendTokens[:0], gmproto.SendToken{
			ID: 1, Dest: 1, Seq: 3, HasSeq: true, Data: payload,
		})
		pd.RecvTokens = pd.RecvTokens[:0]
		pd.SeqStreams = append(pd.SeqStreams[:0], core.SeqStream{Node: 1, Last: 3})
		rd := pd.NextRegionDelta()
		rd.ID, rd.Dirty, rd.Data = 1, true, region
		buf = d.AppendTo(buf[:0])
	}
	build() // warm the arenas
	if allocs := testing.AllocsPerRun(100, build); allocs != 0 {
		t.Fatalf("delta build+encode allocates %.1f/op, want 0", allocs)
	}
	if _, err := DecodeDelta(buf); err != nil {
		t.Fatal(err)
	}
}
