package mcp

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/host"
	"repro/internal/lanai"
	"repro/internal/sim"
)

// capture is a fabric device that keeps every packet it receives.
type capture struct{ pkts []*fabric.Packet }

func (c *capture) Name() string                                      { return "capture" }
func (c *capture) RecvPacket(p *fabric.Packet, _ *fabric.Attachment) { c.pkts = append(c.pkts, p) }

// captureMCP runs an FTGM MCP as node 1 whose cable ends in a capture
// device; node 2 is routed straight onto that cable.
func captureMCP() (*sim.Engine, *MCP, *capture) {
	eng := sim.NewEngine(1)
	chip := lanai.New(eng, "lanai", lanai.DefaultConfig(), host.NewPCIBus(eng, "pci", host.DefaultPCIConfig()))
	wire := &capture{}
	chip.Attach(fabric.NewLink(eng, fabric.DefaultLinkConfig(), chip, wire).EndFor(chip))
	m := New(chip, DefaultConfig(), ModeFTGM)
	m.SetNodeID(1)
	m.UploadRoutes(map[gmproto.NodeID][]byte{2: {}})
	m.LoadAndStart()
	return eng, m, wire
}

// TestDataPacketReferencesSendBuffer checks the one-copy send path: every
// DATA packet's pooled buffer holds only the header, and its Body is the
// fragment's own window of the token's send buffer, capped so nothing past
// the fragment is reachable through it.
func TestDataPacketReferencesSendBuffer(t *testing.T) {
	eng, m, wire := captureMCP()
	if err := m.HostOpenPort(1, func(gmproto.Event) {}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*gmproto.MaxPacketPayload+100)
	tok := gmproto.SendToken{ID: 1, Dest: 2, DestPort: 1, SrcPort: 1, Prio: gmproto.PriorityLow, Data: data, Seq: 1, HasSeq: true}
	if err := m.HostPostSend(tok); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Millisecond)

	if len(wire.pkts) != 3 {
		t.Fatalf("captured %d packets, want 3 fragments", len(wire.pkts))
	}
	for i, pkt := range wire.pkts {
		h, tail, err := gmproto.DecodeData(pkt.Payload)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if len(pkt.Payload) != gmproto.DataHeaderSize || len(tail) != 0 {
			t.Errorf("fragment %d: pooled buffer holds %d bytes, want only the %d-byte header", i, len(pkt.Payload), gmproto.DataHeaderSize)
		}
		lo := int(h.Offset)
		hi := min(lo+gmproto.MaxPacketPayload, len(data))
		if len(pkt.Body) != hi-lo || cap(pkt.Body) != hi-lo || &pkt.Body[0] != &data[lo] {
			t.Errorf("fragment %d: Body does not alias data[%d:%d:%d]", i, lo, hi, hi)
		}
		if !pkt.CRCOk() {
			t.Errorf("fragment %d: sealed packet fails its CRC", i)
		}
		pkt.Release()
	}
}

// TestFailPeerDetachesChainInProgress: FailPeer completes a message whose
// fragment chain is still running, and the callback may reuse the buffer at
// once. The fragments the chain injects after that must read a private copy
// of the bytes, not the buffer.
func TestFailPeerDetachesChainInProgress(t *testing.T) {
	eng, m, wire := captureMCP()
	data := make([]byte, 16*gmproto.MaxPacketPayload)
	for i := range data {
		data[i] = byte(i * 7)
	}
	orig := append([]byte(nil), data...)
	failed := false
	err := m.HostOpenPort(1, func(ev gmproto.Event) {
		if ev.Type == gmproto.EvSendError {
			failed = true
			for i := range data {
				data[i] = 0xFF
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tok := gmproto.SendToken{ID: 1, Dest: 2, DestPort: 1, SrcPort: 1, Prio: gmproto.PriorityLow, Data: data, Seq: 1, HasSeq: true}
	if err := m.HostPostSend(tok); err != nil {
		t.Fatal(err)
	}
	for len(wire.pkts) < 4 {
		if !eng.Step() {
			t.Fatal("chain never started")
		}
	}
	m.FailPeer(2)
	before := len(wire.pkts)
	eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	if !failed {
		t.Fatal("FailPeer posted no error completion")
	}
	if len(wire.pkts) != 16 {
		t.Fatalf("chain injected %d of 16 fragments", len(wire.pkts))
	}
	for i, pkt := range wire.pkts[before:] {
		h, _, err := gmproto.DecodeData(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		lo := int(h.Offset)
		if &pkt.Body[0] == &data[lo] {
			t.Errorf("fragment %d injected after FailPeer still references the send buffer", before+i)
		}
		if !bytes.Equal(pkt.Body, orig[lo:lo+len(pkt.Body)]) {
			t.Errorf("fragment %d injected after FailPeer carries the reused buffer's bytes", before+i)
		}
	}
	for _, pkt := range wire.pkts {
		pkt.Release()
	}
}
