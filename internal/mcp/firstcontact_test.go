//go:build !race

// First-contact cost: FTGM opens one stream per (port, remote node), so an
// all-to-all pays stream setup once per pair. These measure what a new
// stream costs on top of a warm data path. Excluded under the race
// detector, whose instrumentation allocates.

package mcp

import (
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/host"
	"repro/internal/lanai"
	"repro/internal/sim"
)

// star is a hub interface (NodeID 1, switch port 0) and peers NodeID 2..n+1
// on switch ports 1..n of one (n+1)-port crossbar, all under FTGM with port
// 1 open. Each peer counts its deliveries; the hub counts completed sends.
type star struct {
	eng       *sim.Engine
	hub       *MCP
	peers     []*MCP
	delivered int
	sent      int
	payload   []byte
}

const starPort = gmproto.PortID(1)

func newStar(tb testing.TB, n, recvTokens int) *star {
	tb.Helper()
	eng := sim.NewEngine(1)
	st := &star{eng: eng, payload: make([]byte, 64)}
	sw := fabric.NewSwitch(eng, "sw", fabric.SwitchConfig{Ports: n + 1, CutThrough: 300 * sim.Nanosecond})
	mcps := make([]*MCP, n+1)
	for i := range mcps {
		pci := host.NewPCIBus(eng, "pci", host.DefaultPCIConfig())
		chip := lanai.New(eng, "lanai", lanai.DefaultConfig(), pci)
		l := fabric.NewLink(eng, fabric.DefaultLinkConfig(), chip, sw)
		if err := sw.AttachLink(i, l); err != nil {
			tb.Fatal(err)
		}
		chip.Attach(l.EndFor(chip))
		m := New(chip, DefaultConfig(), ModeFTGM)
		m.SetNodeID(gmproto.NodeID(i + 1))
		mcps[i] = m
	}
	// A route is one relative switch delta, taken modulo the crossbar size:
	// port i reaches port j with j-i, kept within a signed byte.
	for i, m := range mcps {
		routes := make(map[gmproto.NodeID][]byte, n)
		for j := range mcps {
			if d := (j - i + n + 1) % (n + 1); d != 0 {
				if d > 127 {
					d -= n + 1
				}
				routes[gmproto.NodeID(j+1)] = []byte{byte(int8(d))}
			}
		}
		m.UploadRoutes(routes)
	}
	for i, m := range mcps {
		m.LoadAndStart()
		sink := func(ev gmproto.Event) {
			switch ev.Type {
			case gmproto.EvReceived:
				st.delivered++
			case gmproto.EvSent:
				st.sent++
			}
		}
		if err := m.HostOpenPort(starPort, sink); err != nil {
			tb.Fatal(err)
		}
		for j := 0; i > 0 && j < recvTokens; j++ {
			tok := gmproto.RecvToken{ID: uint64(j), Size: 64, Prio: gmproto.PriorityLow, Buf: make([]byte, 64)}
			if err := m.HostPostRecvToken(starPort, tok); err != nil {
				tb.Fatal(err)
			}
		}
	}
	st.hub, st.peers = mcps[0], mcps[1:]
	return st
}

// post queues one message from src to dst carrying host sequence number
// seq.
func (st *star) post(tb testing.TB, src *MCP, dst gmproto.NodeID, seq uint32) {
	tok := gmproto.SendToken{
		Dest: dst, DestPort: starPort, SrcPort: starPort, Prio: gmproto.PriorityLow,
		Data: st.payload, Seq: seq, HasSeq: true,
	}
	if err := src.HostPostSend(tok); err != nil {
		tb.Fatal(err)
	}
}

// settle steps the engine until n more messages are delivered and their
// sends completed.
func (st *star) settle(tb testing.TB, n int) {
	wantD, wantS := st.delivered+n, st.sent+n
	for st.delivered < wantD || st.sent < wantS {
		if !st.eng.Step() {
			tb.Fatal("star stalled")
		}
	}
}

// TestFirstContactAllocs bounds what a new FTGM stream costs the sender and
// the receiver together: the hub sends once to each of 64 peers it has
// never addressed and that have never heard from it, then once more to the
// same peers. The difference between the two rounds is the first-contact
// cost. A warm-up makes every queue the measured rounds use as deep as they
// need: the hub sends to 64 other peers, and each of those sends to one of
// the measured peers.
func TestFirstContactAllocs(t *testing.T) {
	const n = 64
	st := newStar(t, 2*n, 3)
	warm, fresh := st.peers[:n], st.peers[n:]
	for _, p := range warm {
		st.post(t, st.hub, p.NodeID(), 1)
	}
	st.settle(t, n)
	for i, p := range warm {
		st.post(t, p, fresh[i].NodeID(), 1)
	}
	st.settle(t, n)

	round := func(seq uint32) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range fresh {
			st.post(t, st.hub, p.NodeID(), seq)
		}
		st.settle(t, n)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	first, again := round(1), round(2)
	perStream := float64(int64(first)-int64(again)) / n
	t.Logf("first-contact round %d allocs, repeat round %d: %.2f per new stream", first, again, perStream)
	if perStream > 3.5 {
		t.Errorf("a new stream costs %.2f allocations (sender plus receiver), want at most 3.5", perStream)
	}
}

// BenchmarkFirstContact measures one first-contact message end to end: the
// hub and a peer drop their streams toward each other (ResetPeerStreams, as
// after a readmission), then one 64 B send opens fresh streams on both
// sides and runs until delivered and acknowledged.
func BenchmarkFirstContact(b *testing.B) {
	const n = 16
	st := newStar(b, n, 1)
	for _, p := range st.peers {
		st.post(b, st.hub, p.NodeID(), 1)
	}
	st.settle(b, n)
	buf := make([]byte, len(st.payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := st.peers[i%n]
		st.hub.ResetPeerStreams(p.NodeID())
		p.ResetPeerStreams(st.hub.NodeID())
		if err := p.HostPostRecvToken(starPort, gmproto.RecvToken{Size: 64, Prio: gmproto.PriorityLow, Buf: buf}); err != nil {
			b.Fatal(err)
		}
		st.post(b, st.hub, p.NodeID(), 1)
		st.settle(b, 1)
	}
}
