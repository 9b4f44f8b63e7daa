package mcp

import (
	"testing"

	"repro/internal/gmproto"
	"repro/internal/sim"
)

// fillWindow posts n sends while the victim's link is down, leaving them
// transmitted-but-unacknowledged in the sender's window.
func fillWindow(t *testing.T, p *pair, n int) {
	t.Helper()
	p.linkOf(1).SetUp(false) // B unreachable: no ACKs come back
	for i := 0; i < n; i++ {
		if err := p.a.HostPostSend(sendTok(2, 1, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
}

func TestHandleNackImplicitAck(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	fillWindow(t, p, 3) // seqs 100001..100003 in flight
	s := p.a.txFind(gmproto.StreamID{Node: 2, Port: gmproto.ConnectionPort, Prio: gmproto.PriorityLow})
	if s == nil || len(s.window) != 3 {
		t.Fatalf("window not primed: %+v", s)
	}
	// NACK expecting the third message: the first two are implicitly
	// acknowledged (their tokens return), the third is marked for resend.
	p.a.handleNack(gmproto.AckHeader{
		Src: 2, SrcPort: gmproto.ConnectionPort, Prio: gmproto.PriorityLow, AckSeq: 100003, Nack: true,
	})
	p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
	if len(s.window) != 1 || s.window[0].seq != 100003 {
		t.Fatalf("window after NACK = %d msgs", len(s.window))
	}
	if got := len(p.events(p.evA, gmproto.EvSent)); got != 2 {
		t.Errorf("implicitly acked callbacks = %d, want 2", got)
	}
	if p.a.Stats().Retransmits == 0 {
		t.Error("expected message not retransmitted")
	}
}

func TestHandleNackUnknownSeqWaits(t *testing.T) {
	// The receiver expects a sequence number that is not in the window
	// (its token has not been restored yet): retransmitting higher
	// sequence numbers would only provoke more NACKs, so the sender must
	// wait.
	p := newPair(t, ModeGM)
	p.openPorts(1)
	fillWindow(t, p, 2)
	rtxBefore := p.a.Stats().Retransmits
	p.a.handleNack(gmproto.AckHeader{
		Src: 2, SrcPort: gmproto.ConnectionPort, Prio: gmproto.PriorityLow, AckSeq: 99000, Nack: true,
	})
	p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
	if p.a.Stats().Retransmits != rtxBefore {
		t.Error("sender retransmitted for an unknown expectation")
	}
}

func TestHandleNackAdoptRenumbers(t *testing.T) {
	// The Figure 4 mechanism in isolation: a naive-reload sender adopts
	// the receiver's expectation and renumbers its pending window.
	p := newPair(t, ModeGM)
	p.openPorts(1)
	fillWindow(t, p, 2)
	p.a.SetAdoptNackSeq(true)
	s := p.a.txFind(gmproto.StreamID{Node: 2, Port: gmproto.ConnectionPort, Prio: gmproto.PriorityLow})
	p.a.handleNack(gmproto.AckHeader{
		Src: 2, SrcPort: gmproto.ConnectionPort, Prio: gmproto.PriorityLow, AckSeq: 55, Nack: true,
	})
	p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
	if s.window[0].seq != 55 || s.window[1].seq != 56 {
		t.Fatalf("window seqs = %d, %d; want 55, 56", s.window[0].seq, s.window[1].seq)
	}
	if s.nextSeq != 57 {
		t.Errorf("nextSeq = %d, want 57", s.nextSeq)
	}
}

func TestHandleNackUnknownStream(t *testing.T) {
	p := newPair(t, ModeGM)
	// NACK for a stream that does not exist must be a harmless no-op.
	p.a.handleNack(gmproto.AckHeader{Src: 9, SrcPort: 3, AckSeq: 1, Nack: true})
	p.a.handleAck(gmproto.AckHeader{Src: 9, SrcPort: 3, AckSeq: 1})
}

func TestRecvRingRejectsGarbage(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	// A packet whose payload is not a known GM type.
	p.a.RawTransmit([]byte{0x01}, []byte{0xEE, 1, 2, 3})
	// A truncated ACK.
	p.a.RawTransmit([]byte{0x01}, []byte{byte(gmproto.PTAck), 1})
	// An empty payload.
	p.a.RawTransmit([]byte{0x01}, nil)
	p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
	if p.b.Stats().BadHeaderDrops < 2 {
		t.Errorf("BadHeaderDrops = %d, want >= 2", p.b.Stats().BadHeaderDrops)
	}
}

func TestRecvRingRouteResidueDrop(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	// Two route bytes to a one-hop destination: the packet arrives at B
	// with a leftover byte and must be discarded.
	p.a.RawTransmit([]byte{0x01, 0x03}, (&gmproto.ScoutPayload{Fwd: []byte{1}}).Encode())
	p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
	if p.b.Stats().MisroutedDrops == 0 {
		t.Error("route residue not dropped")
	}
}

func TestMCPAccessors(t *testing.T) {
	p := newPair(t, ModeFTGM)
	if p.a.Mode() != ModeFTGM {
		t.Errorf("Mode = %v", p.a.Mode())
	}
	if !p.a.Loaded() {
		t.Error("Loaded = false after LoadAndStart")
	}
	p.a.SetUID(0x1234)
	if p.a.UID() != 0x1234 {
		t.Error("UID round trip failed")
	}
	p.a.RegisterPageTable(42)
	if p.a.PageTableEntries() != 42 {
		t.Errorf("PageTableEntries = %d", p.a.PageTableEntries())
	}
	// Recovery entry points on closed/absent ports are harmless no-ops.
	p.a.PostFaultDetected(7)
	p.a.ReopenPort(6, nil)
	if !p.a.PortOpen(6) {
		t.Error("ReopenPort did not open")
	}
	if err := p.a.HostRegisterRegion(5, 1, make([]byte, 8)); err == nil {
		t.Error("region registered on closed port")
	}
}

func TestFootprintScaling(t *testing.T) {
	p := newPair(t, ModeGM)
	q := newPair(t, ModeFTGM)
	gmFp := p.a.Footprint(64)
	ftFp := q.a.Footprint(64)
	if ftFp.Total() <= gmFp.Total() {
		t.Errorf("FTGM footprint %d <= GM %d", ftFp.Total(), gmFp.Total())
	}
	// FTGM's ACK table and sequence shadow exist only in FTGM.
	if gmFp.AckTable != 0 || gmFp.SeqShadow != 0 {
		t.Error("GM mode has FTGM tables")
	}
	if ftFp.AckTable == 0 || ftFp.SeqShadow == 0 {
		t.Error("FTGM tables empty")
	}
	// Linear in the cluster size.
	big := q.a.Footprint(128)
	if big.Total() <= ftFp.Total() {
		t.Error("footprint not growing with cluster size")
	}
}
