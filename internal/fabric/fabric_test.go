package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// sink is a test device that records deliveries.
type sink struct {
	name    string
	got     []*Packet
	gotAt   []sim.Time
	eng     *sim.Engine
	forward func(pkt *Packet, on *Attachment)
}

func (s *sink) Name() string { return s.name }

func (s *sink) RecvPacket(pkt *Packet, on *Attachment) {
	s.got = append(s.got, pkt)
	s.gotAt = append(s.gotAt, s.eng.Now())
	if s.forward != nil {
		s.forward(pkt, on)
	}
}

func pkt(payload int) *Packet {
	p := &Packet{Payload: make([]byte, payload)}
	p.SealCRC()
	return p
}

func TestPacketCRC(t *testing.T) {
	p := &Packet{Payload: []byte("hello myrinet")}
	p.SealCRC()
	if !p.CRCOk() {
		t.Fatal("fresh CRC does not verify")
	}
	p.CorruptPayload(13, false)
	if p.CRCOk() {
		t.Fatal("stale CRC verified after corruption")
	}
	p.SealCRC()
	if !p.CRCOk() {
		t.Fatal("resealed CRC does not verify")
	}
	p.CorruptPayload(13, true)
	if !p.CRCOk() {
		t.Fatal("resealed corruption must pass CRC (pre-CRC fault model)")
	}
}

func TestPacketWireSize(t *testing.T) {
	p := &Packet{Route: []byte{1, 2, 3}, Payload: make([]byte, 100)}
	if got := p.WireSize(); got != 3+100+HeaderBytes {
		t.Errorf("WireSize = %d", got)
	}
}

func TestLinkDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	l := NewLink(eng, LinkConfig{BytesPerSec: 250e6, PropDelay: 100}, a, b)
	p := pkt(242) // 250 bytes on the wire
	l.End(0).Send(p)
	eng.Run()
	if len(b.got) != 1 {
		t.Fatalf("b received %d packets, want 1", len(b.got))
	}
	// 250 bytes at 250 MB/s = 1000 ns serialization + 100 ns propagation.
	if want := sim.Time(1100); b.gotAt[0] != want {
		t.Errorf("delivered at %v, want %v", b.gotAt[0], want)
	}
	if len(a.got) != 0 {
		t.Error("sender received its own packet")
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	l := NewLink(eng, LinkConfig{BytesPerSec: 250e6, PropDelay: 0}, a, b)
	// Two packets sent at t=0 must serialize back to back.
	l.End(0).Send(pkt(242))
	l.End(0).Send(pkt(242))
	eng.Run()
	if len(b.got) != 2 {
		t.Fatalf("received %d, want 2", len(b.got))
	}
	if b.gotAt[0] != 1000 || b.gotAt[1] != 2000 {
		t.Errorf("arrival times %v, want [1000 2000]", b.gotAt)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	l := NewLink(eng, LinkConfig{BytesPerSec: 250e6, PropDelay: 0}, a, b)
	l.End(0).Send(pkt(242))
	l.End(1).Send(pkt(242))
	eng.Run()
	// Directions must not serialize against each other.
	if len(a.got) != 1 || len(b.got) != 1 {
		t.Fatalf("a=%d b=%d, want 1 each", len(a.got), len(b.got))
	}
	if a.gotAt[0] != 1000 || b.gotAt[0] != 1000 {
		t.Errorf("full duplex broken: %v %v", a.gotAt, b.gotAt)
	}
}

func TestLinkDown(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	l := NewLink(eng, DefaultLinkConfig(), a, b)
	l.SetUp(false)
	l.End(0).Send(pkt(100))
	eng.Run()
	if len(b.got) != 0 {
		t.Fatal("packet delivered over downed link")
	}
	if l.Stats(0).Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", l.Stats(0).Dropped)
	}
	l.SetUp(true)
	l.End(0).Send(pkt(100))
	eng.Run()
	if len(b.got) != 1 {
		t.Fatal("packet not delivered after link restored")
	}
}

func TestLinkCutMidFlight(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	l := NewLink(eng, LinkConfig{BytesPerSec: 250e6, PropDelay: 1000}, a, b)
	l.End(0).Send(pkt(242))
	eng.At(500, func() { l.SetUp(false) })
	eng.Run()
	if len(b.got) != 0 {
		t.Fatal("packet survived a link cut mid flight")
	}
}

func TestLinkStatsAndUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	l := NewLink(eng, LinkConfig{BytesPerSec: 250e6, PropDelay: 0}, a, b)
	l.End(0).Send(pkt(242))
	eng.Run()
	st := l.Stats(0)
	if st.Packets != 1 || st.Bytes != 250 || st.Busy != 1000 {
		t.Errorf("stats = %+v", st)
	}
	if u := l.Utilization(0); u != 1.0 {
		t.Errorf("utilization = %v, want 1.0", u)
	}
}

func TestSwitchForwarding(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, "sw", DefaultSwitchConfig())
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	la := NewLink(eng, DefaultLinkConfig(), a, sw)
	lb := NewLink(eng, DefaultLinkConfig(), b, sw)
	if err := sw.AttachLink(0, la); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachLink(5, lb); err != nil {
		t.Fatal(err)
	}
	p := pkt(100)
	p.Route = []byte{5} // out port 5
	la.EndFor(a).Send(p)
	eng.Run()
	if len(b.got) != 1 {
		t.Fatalf("b received %d, want 1", len(b.got))
	}
	if len(b.got[0].Route) != 0 {
		t.Errorf("route not fully consumed: %v", b.got[0].Route)
	}
	if sw.Stats().Forwarded != 1 {
		t.Errorf("Forwarded = %d", sw.Stats().Forwarded)
	}
}

func TestSwitchTwoHop(t *testing.T) {
	eng := sim.NewEngine(1)
	sw1 := NewSwitch(eng, "sw1", DefaultSwitchConfig())
	sw2 := NewSwitch(eng, "sw2", DefaultSwitchConfig())
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	la := NewLink(eng, DefaultLinkConfig(), a, sw1)
	trunk := NewLink(eng, DefaultLinkConfig(), sw1, sw2)
	lb := NewLink(eng, DefaultLinkConfig(), b, sw2)
	if err := sw1.AttachLink(0, la); err != nil {
		t.Fatal(err)
	}
	if err := sw1.AttachLink(7, trunk); err != nil {
		t.Fatal(err)
	}
	if err := sw2.AttachLink(3, trunk); err != nil {
		t.Fatal(err)
	}
	if err := sw2.AttachLink(1, lb); err != nil {
		t.Fatal(err)
	}
	p := pkt(64)
	// Deltas: sw1 in 0 -> out 7 is +7; sw2 in 3 -> out 1 is -2.
	p.Route = []byte{7, 0xFE}
	la.EndFor(a).Send(p)
	eng.Run()
	if len(b.got) != 1 {
		t.Fatalf("b received %d, want 1", len(b.got))
	}
}

func TestSwitchDropsBadRoute(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, "sw", DefaultSwitchConfig())
	a := &sink{name: "a", eng: eng}
	la := NewLink(eng, DefaultLinkConfig(), a, sw)
	if err := sw.AttachLink(0, la); err != nil {
		t.Fatal(err)
	}

	empty := pkt(10) // no route left at the switch
	la.EndFor(a).Send(empty)

	bad := pkt(10)
	bad.Route = []byte{6} // port 6 not cabled
	la.EndFor(a).Send(bad)

	eng.Run()
	st := sw.Stats()
	if st.DroppedNoPort != 2 {
		t.Errorf("DroppedNoPort = %d, want 2", st.DroppedNoPort)
	}
}

func TestSwitchDropsDeadPort(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, "sw", DefaultSwitchConfig())
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	la := NewLink(eng, DefaultLinkConfig(), a, sw)
	lb := NewLink(eng, DefaultLinkConfig(), b, sw)
	if err := sw.AttachLink(0, la); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachLink(1, lb); err != nil {
		t.Fatal(err)
	}
	lb.SetUp(false)
	p := pkt(10)
	p.Route = []byte{1}
	la.EndFor(a).Send(p)
	eng.Run()
	if len(b.got) != 0 {
		t.Fatal("delivered through dead port")
	}
	if sw.Stats().DroppedDead != 1 {
		t.Errorf("DroppedDead = %d, want 1", sw.Stats().DroppedDead)
	}
}

func TestSwitchAttachErrors(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, "sw", SwitchConfig{Ports: 2, CutThrough: 1})
	a := &sink{name: "a", eng: eng}
	b := &sink{name: "b", eng: eng}
	la := NewLink(eng, DefaultLinkConfig(), a, sw)
	if err := sw.AttachLink(9, la); err == nil {
		t.Error("out-of-range port accepted")
	}
	if err := sw.AttachLink(0, la); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachLink(0, la); err == nil {
		t.Error("double cabling accepted")
	}
	foreign := NewLink(eng, DefaultLinkConfig(), a, b) // no end at sw
	if err := sw.AttachLink(1, foreign); err == nil {
		t.Error("foreign link accepted")
	}
}

func TestSwitchPortFor(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, "sw", DefaultSwitchConfig())
	a := &sink{name: "a", eng: eng}
	la := NewLink(eng, DefaultLinkConfig(), a, sw)
	if err := sw.AttachLink(4, la); err != nil {
		t.Fatal(err)
	}
	if got := sw.PortFor(la.EndFor(sw)); got != 4 {
		t.Errorf("PortFor = %d, want 4", got)
	}
	if sw.PortLink(4) != la {
		t.Error("PortLink(4) wrong")
	}
	if sw.PortLink(5) != nil {
		t.Error("PortLink(5) should be nil")
	}
}

// Property: total delivery time over an idle link equals size/rate + prop
// for any packet size.
func TestPropertyLinkTiming(t *testing.T) {
	f := func(payload uint16, prop uint16) bool {
		eng := sim.NewEngine(1)
		a := &sink{name: "a", eng: eng}
		b := &sink{name: "b", eng: eng}
		l := NewLink(eng, LinkConfig{BytesPerSec: 250e6, PropDelay: sim.Duration(prop)}, a, b)
		p := pkt(int(payload))
		l.End(0).Send(p)
		eng.Run()
		if len(b.got) != 1 {
			return false
		}
		ser := sim.Duration(float64(p.WireSize()) / 250e6 * 1e9)
		return b.gotAt[0] == ser+sim.Duration(prop)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: N same-size packets on one direction arrive in order, equally
// spaced by the serialization time.
func TestPropertyLinkFIFO(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%20) + 1
		eng := sim.NewEngine(1)
		a := &sink{name: "a", eng: eng}
		b := &sink{name: "b", eng: eng}
		l := NewLink(eng, LinkConfig{BytesPerSec: 250e6, PropDelay: 0}, a, b)
		for i := 0; i < count; i++ {
			p := pkt(242)
			p.ID = uint64(i)
			l.End(0).Send(p)
		}
		eng.Run()
		if len(b.got) != count {
			return false
		}
		for i, p := range b.got {
			if p.ID != uint64(i) || b.gotAt[i] != sim.Time(1000*(i+1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
