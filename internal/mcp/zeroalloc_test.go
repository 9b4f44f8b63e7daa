//go:build !race

// Zero-allocation guards for the MCP data-path primitives: building a sealed
// DATA packet for injection, and verifying/decoding/landing one at delivery.
// These are the per-fragment operations the zero-copy refactor made
// allocation-free; the guards pin that down so regressions fail loudly.
// Excluded under the race detector, whose instrumentation allocates.

package mcp

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/gmproto"
)

// TestZeroAllocSendPath asserts the transmit-side packet build — pool
// checkout, interned route assignment, header encode into the pooled buffer,
// fragment by reference, CRC seal — allocates nothing per fragment.
func TestZeroAllocSendPath(t *testing.T) {
	route := []byte{0, 1} // stands in for the epoch-interned route table entry
	frag := make([]byte, gmproto.MaxPacketPayload)
	h := gmproto.DataHeader{
		Src: 1, Dst: 2, SrcPort: 2, DstPort: 2,
		Seq: 7, MsgID: 3, MsgLen: uint32(len(frag)),
	}
	allocs := testing.AllocsPerRun(200, func() {
		pkt := fabric.GetPacket()
		pkt.Route = route
		h.EncodeTo(pkt.Buf(gmproto.DataHeaderSize), nil)
		pkt.Body = frag
		pkt.SealCRC()
		pkt.Release()
	})
	if allocs != 0 {
		t.Fatalf("send-path packet build allocates %.1f/frag, want 0", allocs)
	}
}

// TestZeroAllocRecvPath asserts the delivery-side fragment service — CRC
// verification (the seal verdict), type peek, header decode, copy of the
// referenced fragment into the host receive-token buffer, release —
// allocates nothing per fragment.
func TestZeroAllocRecvPath(t *testing.T) {
	frag := make([]byte, gmproto.MaxPacketPayload)
	h := gmproto.DataHeader{
		Src: 1, Dst: 2, SrcPort: 2, DstPort: 2,
		Seq: 7, MsgID: 3, MsgLen: uint32(len(frag)),
	}
	tokenBuf := make([]byte, len(frag)) // the posted host receive buffer

	allocs := testing.AllocsPerRun(200, func() {
		pkt := fabric.GetPacket()
		h.EncodeTo(pkt.Buf(gmproto.DataHeaderSize), nil)
		pkt.Body = frag
		pkt.SealCRC()
		// ...wire transit...
		if !pkt.CRCOk() {
			t.Fatal("CRC failed")
		}
		pt, err := gmproto.PeekType(pkt.Payload)
		if err != nil || pt != gmproto.PTData {
			t.Fatal("peek failed")
		}
		hdr, body, err := gmproto.DecodeData(pkt.Payload)
		if err != nil || len(body) != 0 {
			t.Fatal("decode failed")
		}
		copy(tokenBuf[hdr.Offset:], pkt.Body) // the model's DMA into host memory
		pkt.Release()
	})
	if allocs != 0 {
		t.Fatalf("recv-path fragment service allocates %.1f/frag, want 0", allocs)
	}
}

// TestZeroAllocControlPath asserts the ACK/NACK build and decode round trip
// allocates nothing.
func TestZeroAllocControlPath(t *testing.T) {
	route := []byte{1}
	h := gmproto.AckHeader{Src: 2, Dst: 1, SrcPort: 2, Prio: gmproto.Priority(0), AckSeq: 12}
	warm := fabric.GetPacket()
	warm.Buf(gmproto.AckHeaderSize)
	warm.Release()

	allocs := testing.AllocsPerRun(200, func() {
		pkt := fabric.GetPacket()
		pkt.Route = route
		h.EncodeTo(pkt.Buf(gmproto.AckHeaderSize))
		pkt.SealCRC()
		if !pkt.CRCOk() {
			t.Fatal("CRC failed")
		}
		if _, err := gmproto.DecodeAck(pkt.Payload); err != nil {
			t.Fatal("decode failed")
		}
		pkt.Release()
	})
	if allocs != 0 {
		t.Fatalf("control-path round trip allocates %.1f/pkt, want 0", allocs)
	}
}

// TestZeroAllocNeverIdleStream is the whole-MCP, never-idle companion of
// the primitive guards above: two interfaces stream 32 KB messages at each
// other with the send window kept full from the completion events, so
// fragment, commit and event DMAs are always queued behind one another and
// the chip's host-DMA FIFO (with whichever service rings the load keeps
// busy) never drains. Once warm, a window of messages must allocate
// nothing; a FIFO that resets only when empty appends forever here.
func TestZeroAllocNeverIdleStream(t *testing.T) {
	neverIdleStream(t, 32<<10, 2000)
}

// TestZeroAllocNeverIdleBulkStream is the same stream at 256 KB messages,
// 64 fragments each, every one of them carried by reference.
func TestZeroAllocNeverIdleBulkStream(t *testing.T) {
	neverIdleStream(t, 256<<10, 250)
}

// neverIdleStream runs the never-idle stream at msgLen bytes per message
// and perStep messages per direction per measured step, and fails if a
// warm step allocates.
func neverIdleStream(t *testing.T, msgLen, perStep int) {
	const (
		port   = gmproto.PortID(1)
		window = 8
	)
	pr := newPair(t, ModeFTGM)
	payload := make([]byte, msgLen)

	// side is one streaming endpoint: every EvSent posts the next send and
	// every EvReceived hands the landed buffer straight back.
	type side struct {
		m         *MCP
		peer      gmproto.NodeID
		seq       uint32
		id        uint64
		delivered int
	}
	send := func(s *side) {
		s.seq++
		s.id++
		tok := gmproto.SendToken{
			ID: s.id, Dest: s.peer, DestPort: port, SrcPort: port,
			Prio: gmproto.PriorityLow, Data: payload, Seq: s.seq, HasSeq: true,
		}
		if err := s.m.HostPostSend(tok); err != nil {
			t.Fatal(err)
		}
	}
	open := func(s *side) {
		err := s.m.HostOpenPort(port, func(ev gmproto.Event) {
			switch ev.Type {
			case gmproto.EvSent:
				send(s)
			case gmproto.EvReceived:
				s.delivered++
				s.id++
				buf := ev.Data[:cap(ev.Data)]
				if err := s.m.HostPostRecvToken(port, gmproto.RecvToken{ID: s.id, Size: uint32(msgLen), Prio: gmproto.PriorityLow, Buf: buf}); err != nil {
					t.Fatal(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*window; i++ {
			s.id++
			if err := s.m.HostPostRecvToken(port, gmproto.RecvToken{ID: s.id, Size: uint32(msgLen), Prio: gmproto.PriorityLow, Buf: make([]byte, msgLen)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := &side{m: pr.a, peer: 2, id: 1 << 32}
	b := &side{m: pr.b, peer: 1, id: 2 << 32}
	open(a)
	open(b)
	for i := 0; i < window; i++ {
		send(a)
		send(b)
	}

	// One step runs until both sides have taken perStep more messages.
	// AllocsPerRun(1, step) runs it twice — the first, unmeasured call is
	// the warm-up — so a ring that only ever appends doubles its length
	// inside the measured call and must reallocate there.
	step := func() {
		wantA, wantB := a.delivered+perStep, b.delivered+perStep
		for a.delivered < wantA || b.delivered < wantB {
			if !pr.eng.Step() {
				t.Fatal("stream stalled")
			}
		}
	}
	if n := testing.AllocsPerRun(1, step); n != 0 {
		t.Errorf("never-idle stream allocates %.0f per %d messages, want 0", n, 2*perStep)
	}
}
