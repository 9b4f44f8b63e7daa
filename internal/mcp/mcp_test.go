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

// pair is a two-node test harness: two hosts with their own PCI buses and
// LANai cards, cabled through one 8-port switch.
type pair struct {
	t    *testing.T
	eng  *sim.Engine
	a, b *MCP
	swch *fabric.Switch

	// collected events per side
	evA, evB []gmproto.Event
}

func newPair(t *testing.T, mode Mode) *pair {
	t.Helper()
	return newPairCfg(t, mode, DefaultConfig())
}

func newPairCfg(t *testing.T, mode Mode, cfg Config) *pair {
	t.Helper()
	eng := sim.NewEngine(1)
	p := &pair{t: t, eng: eng}

	pciA := host.NewPCIBus(eng, "pciA", host.DefaultPCIConfig())
	pciB := host.NewPCIBus(eng, "pciB", host.DefaultPCIConfig())
	chipA := lanai.New(eng, "lanaiA", lanai.DefaultConfig(), pciA)
	chipB := lanai.New(eng, "lanaiB", lanai.DefaultConfig(), pciB)

	p.swch = fabric.NewSwitch(eng, "sw", fabric.DefaultSwitchConfig())
	la := fabric.NewLink(eng, fabric.DefaultLinkConfig(), chipA, p.swch)
	lb := fabric.NewLink(eng, fabric.DefaultLinkConfig(), chipB, p.swch)
	if err := p.swch.AttachLink(0, la); err != nil {
		t.Fatal(err)
	}
	if err := p.swch.AttachLink(1, lb); err != nil {
		t.Fatal(err)
	}
	chipA.Attach(la.EndFor(chipA))
	chipB.Attach(lb.EndFor(chipB))

	p.a = New(chipA, cfg, mode)
	p.b = New(chipB, cfg, mode)
	p.a.SetNodeID(1)
	p.b.SetNodeID(2)
	// Deltas: A enters the switch on port 0, B on port 1.
	p.a.UploadRoutes(map[gmproto.NodeID][]byte{2: {0x01}})
	p.b.UploadRoutes(map[gmproto.NodeID][]byte{1: {0xFF}})
	p.a.LoadAndStart()
	p.b.LoadAndStart()
	return p
}

func (p *pair) openPorts(port gmproto.PortID) {
	p.t.Helper()
	if err := p.a.HostOpenPort(port, func(ev gmproto.Event) { p.evA = append(p.evA, ev) }); err != nil {
		p.t.Fatal(err)
	}
	if err := p.b.HostOpenPort(port, func(ev gmproto.Event) { p.evB = append(p.evB, ev) }); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pair) events(evs []gmproto.Event, t gmproto.EventType) []gmproto.Event {
	var out []gmproto.Event
	for _, ev := range evs {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

var nextTokenID uint64

func sendTok(dest gmproto.NodeID, port gmproto.PortID, data []byte) gmproto.SendToken {
	nextTokenID++
	return gmproto.SendToken{
		ID: nextTokenID, Dest: dest, DestPort: port, SrcPort: port,
		Prio: gmproto.PriorityLow, Data: data,
	}
}

func recvTok(size uint32) gmproto.RecvToken {
	nextTokenID++
	return gmproto.RecvToken{ID: nextTokenID, Size: size, Prio: gmproto.PriorityLow}
}

func TestBasicSendReceive(t *testing.T) {
	for _, mode := range []Mode{ModeGM, ModeFTGM} {
		t.Run(mode.String(), func(t *testing.T) {
			p := newPair(t, mode)
			p.openPorts(2)
			if err := p.b.HostPostRecvToken(2, recvTok(4096)); err != nil {
				t.Fatal(err)
			}
			payload := []byte("hello myrinet world")
			tok := sendTok(2, 2, payload)
			if mode == ModeFTGM {
				tok.Seq, tok.HasSeq = 1, true
			}
			if err := p.a.HostPostSend(tok); err != nil {
				t.Fatal(err)
			}
			p.eng.RunUntil(1 * sim.Millisecond)

			recvd := p.events(p.evB, gmproto.EvReceived)
			if len(recvd) != 1 {
				t.Fatalf("received %d messages, want 1", len(recvd))
			}
			if !bytes.Equal(recvd[0].Data, payload) {
				t.Errorf("payload = %q", recvd[0].Data)
			}
			if recvd[0].Src != 1 || recvd[0].SrcPort != 2 {
				t.Errorf("event meta = %+v", recvd[0])
			}
			if mode == ModeFTGM && recvd[0].Seq != 1 {
				t.Errorf("host-generated seq = %d, want 1", recvd[0].Seq)
			}
			sent := p.events(p.evA, gmproto.EvSent)
			if len(sent) != 1 || sent[0].TokenID != tok.ID || sent[0].Status != gmproto.SendOK {
				t.Fatalf("sent events = %+v", sent)
			}
		})
	}
}

func TestSmallMessageLatencyBand(t *testing.T) {
	// Calibration: GM short-message half-RTT is ~11.5 µs, FTGM ~13.0 µs
	// (Table 2). One-way delivery time must sit in those bands.
	check := func(mode Mode, lo, hi sim.Duration) {
		p := newPair(t, mode)
		p.openPorts(2)
		if err := p.b.HostPostRecvToken(2, recvTok(256)); err != nil {
			t.Fatal(err)
		}
		tok := sendTok(2, 2, make([]byte, 16))
		if mode == ModeFTGM {
			tok.Seq, tok.HasSeq = 1, true
		}
		var deliveredAt sim.Time
		p.b.ports[2].sink = func(ev gmproto.Event) {
			if ev.Type == gmproto.EvReceived {
				deliveredAt = p.eng.Now()
			}
		}
		if err := p.a.HostPostSend(tok); err != nil {
			t.Fatal(err)
		}
		p.eng.RunUntil(1 * sim.Millisecond)
		if deliveredAt == 0 {
			t.Fatalf("%v: not delivered", mode)
		}
		if deliveredAt < lo || deliveredAt > hi {
			t.Errorf("%v one-way latency = %v, want %v..%v", mode, deliveredAt, lo, hi)
		}
	}
	check(ModeGM, 8*sim.Microsecond, 13*sim.Microsecond)
	check(ModeFTGM, 9*sim.Microsecond, 15*sim.Microsecond)
}

func TestInOrderDelivery(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	const n = 20
	for i := 0; i < n; i++ {
		if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := p.a.HostPostSend(sendTok(2, 1, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	p.eng.RunUntil(10 * sim.Millisecond)
	recvd := p.events(p.evB, gmproto.EvReceived)
	if len(recvd) != n {
		t.Fatalf("received %d, want %d", len(recvd), n)
	}
	base := recvd[0].Seq
	for i, ev := range recvd {
		if ev.Data[0] != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, ev.Data[0])
		}
		if ev.Seq != base+uint32(i) {
			t.Errorf("seq[%d] = %d, want consecutive from %d", i, ev.Seq, base)
		}
	}
}

func TestFragmentationAndReassembly(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	size := 3*gmproto.MaxPacketPayload + 100 // 4 fragments
	if err := p.b.HostPostRecvToken(1, recvTok(uint32(size))); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := p.a.HostPostSend(sendTok(2, 1, data)); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(10 * sim.Millisecond)
	recvd := p.events(p.evB, gmproto.EvReceived)
	if len(recvd) != 1 {
		t.Fatalf("received %d, want 1", len(recvd))
	}
	if !bytes.Equal(recvd[0].Data, data) {
		t.Fatal("reassembled payload mismatch")
	}
	if p.a.Stats().FragmentsSent != 4 {
		t.Errorf("FragmentsSent = %d, want 4", p.a.Stats().FragmentsSent)
	}
	if p.b.Stats().AcksSent != 1 {
		t.Errorf("AcksSent = %d, want 1 (one ACK per message)", p.b.Stats().AcksSent)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
		t.Fatal(err)
	}
	if err := p.a.HostPostSend(sendTok(2, 1, nil)); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(1 * sim.Millisecond)
	recvd := p.events(p.evB, gmproto.EvReceived)
	if len(recvd) != 1 || len(recvd[0].Data) != 0 {
		t.Fatalf("zero-length message: %+v", recvd)
	}
}

func TestWindowExceeded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowSize = 4
	p := newPairCfg(t, ModeGM, cfg)
	p.openPorts(1)
	const n = 30
	for i := 0; i < n; i++ {
		if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
			t.Fatal(err)
		}
		if err := p.a.HostPostSend(sendTok(2, 1, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	p.eng.RunUntil(50 * sim.Millisecond)
	recvd := p.events(p.evB, gmproto.EvReceived)
	if len(recvd) != n {
		t.Fatalf("received %d, want %d", len(recvd), n)
	}
	for i, ev := range recvd {
		if ev.Data[0] != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestNoReceiveBufferThenRecover(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	if err := p.a.HostPostSend(sendTok(2, 1, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(2 * sim.Millisecond)
	if len(p.events(p.evB, gmproto.EvReceived)) != 0 {
		t.Fatal("delivered without a buffer")
	}
	if p.b.Stats().NoBufferDrops == 0 {
		t.Error("NoBufferDrops = 0")
	}
	if len(p.events(p.evB, gmproto.EvNoRecvBuffer)) == 0 {
		t.Error("no EvNoRecvBuffer warning")
	}
	// Provide the buffer; the sender's Go-Back-N timeout redelivers.
	if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(50 * sim.Millisecond)
	if len(p.events(p.evB, gmproto.EvReceived)) != 1 {
		t.Fatal("not delivered after buffer provided")
	}
	if p.a.Stats().Retransmits == 0 {
		t.Error("delivery without retransmission?")
	}
}

func TestWireCorruptionDroppedAndRetransmitted(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
		t.Fatal(err)
	}
	p.a.InjectSendCorruption(100, false) // post-seal: CRC catches it
	payload := []byte("precious data")
	if err := p.a.HostPostSend(sendTok(2, 1, payload)); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(50 * sim.Millisecond)
	recvd := p.events(p.evB, gmproto.EvReceived)
	if len(recvd) != 1 {
		t.Fatalf("received %d, want 1", len(recvd))
	}
	if !bytes.Equal(recvd[0].Data, payload) {
		t.Error("delivered corrupted data")
	}
	if p.b.Stats().CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1", p.b.Stats().CorruptDropped)
	}
	if p.a.Stats().Retransmits == 0 {
		t.Error("no retransmission")
	}
}

func TestPreSealCorruptionReachesApplication(t *testing.T) {
	// Damage before the CRC seal models send_chunk staging faults: GM
	// cannot detect it; the message arrives corrupted (Table 1).
	p := newPair(t, ModeGM)
	p.openPorts(1)
	if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32)
	p.a.InjectSendCorruption(300, true)
	if err := p.a.HostPostSend(sendTok(2, 1, payload)); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(10 * sim.Millisecond)
	recvd := p.events(p.evB, gmproto.EvReceived)
	// The flip may land in the header (dropped as insane) or in the data
	// (delivered corrupt); with bit 300 it lands in the data region.
	if len(recvd) != 1 {
		t.Fatalf("received %d, want 1", len(recvd))
	}
	if bytes.Equal(recvd[0].Data, payload) {
		t.Error("corruption did not reach the application")
	}
	// The fragment rode by reference to the send buffer; the flip must
	// have landed in the packet's own copy.
	if !bytes.Equal(payload, make([]byte, 32)) {
		t.Error("corruption damaged the sender's buffer")
	}
}

func TestPriorityTokenMatching(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	// Only a low-priority token available; a high-priority message must
	// not consume it.
	if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
		t.Fatal(err)
	}
	tok := sendTok(2, 1, []byte("urgent"))
	tok.Prio = gmproto.PriorityHigh
	if err := p.a.HostPostSend(tok); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(2 * sim.Millisecond)
	if len(p.events(p.evB, gmproto.EvReceived)) != 0 {
		t.Fatal("high-priority message consumed a low-priority buffer")
	}
	ht := recvTok(64)
	ht.Prio = gmproto.PriorityHigh
	if err := p.b.HostPostRecvToken(1, ht); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(50 * sim.Millisecond)
	if len(p.events(p.evB, gmproto.EvReceived)) != 1 {
		t.Fatal("high-priority message not delivered to matching buffer")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	p := newPair(t, ModeFTGM)
	p.openPorts(1)
	const n = 10
	for i := 0; i < n; i++ {
		if err := p.a.HostPostRecvToken(1, recvTok(64)); err != nil {
			t.Fatal(err)
		}
		if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ta := sendTok(2, 1, []byte{1, byte(i)})
		ta.Seq, ta.HasSeq = uint32(i+1), true
		tb := sendTok(1, 1, []byte{2, byte(i)})
		tb.Seq, tb.HasSeq = uint32(i+1), true
		if err := p.a.HostPostSend(ta); err != nil {
			t.Fatal(err)
		}
		if err := p.b.HostPostSend(tb); err != nil {
			t.Fatal(err)
		}
	}
	p.eng.RunUntil(10 * sim.Millisecond)
	if got := len(p.events(p.evA, gmproto.EvReceived)); got != n {
		t.Errorf("A received %d, want %d", got, n)
	}
	if got := len(p.events(p.evB, gmproto.EvReceived)); got != n {
		t.Errorf("B received %d, want %d", got, n)
	}
}

func TestSendToClosedPortDropped(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	// Destination port 3 is closed on B.
	tok := sendTok(2, 1, []byte("x"))
	tok.DestPort = 3
	if err := p.a.HostPostSend(tok); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(2 * sim.Millisecond)
	if p.b.Stats().ClosedPortDrops == 0 {
		t.Error("ClosedPortDrops = 0")
	}
	if len(p.events(p.evB, gmproto.EvReceived)) != 0 {
		t.Error("delivered to closed port")
	}
}

func TestSendWithoutRouteFails(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	tok := sendTok(9, 1, []byte("x")) // node 9 unknown
	if err := p.a.HostPostSend(tok); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(2 * sim.Millisecond)
	errs := p.events(p.evA, gmproto.EvSendError)
	if len(errs) != 1 || errs[0].TokenID != tok.ID {
		t.Fatalf("send-error events = %+v", errs)
	}
}

func TestHostOpenPortErrors(t *testing.T) {
	p := newPair(t, ModeGM)
	if err := p.a.HostOpenPort(99, nil); err == nil {
		t.Error("out-of-range port opened")
	}
	if err := p.a.HostOpenPort(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.a.HostOpenPort(1, nil); err == nil {
		t.Error("double open succeeded")
	}
	if err := p.a.HostPostSend(gmproto.SendToken{SrcPort: 5}); err == nil {
		t.Error("send on closed port succeeded")
	}
	if err := p.a.HostPostRecvToken(5, gmproto.RecvToken{}); err == nil {
		t.Error("recv token on closed port succeeded")
	}
	p.a.HostClosePort(1)
	if p.a.PortOpen(1) {
		t.Error("port still open after close")
	}
}

func TestLTimerRunsAndClearsMagic(t *testing.T) {
	p := newPair(t, ModeFTGM)
	p.a.Chip().WriteWord(lanai.MagicAddr, lanai.MagicWord)
	p.eng.RunUntil(3 * sim.Millisecond)
	if p.a.Stats().LTimerRuns < 3 {
		t.Errorf("LTimerRuns = %d, want >= 3", p.a.Stats().LTimerRuns)
	}
	if p.a.Chip().ReadWord(lanai.MagicAddr) == lanai.MagicWord {
		t.Error("live MCP did not clear the magic word")
	}
}

func TestWatchdogDetectsHangFTGM(t *testing.T) {
	p := newPair(t, ModeFTGM)
	var fatalAt sim.Time
	p.a.Chip().SetHostInterrupt(func(isr uint32) {
		if isr&lanai.ISRTimer1 != 0 && fatalAt == 0 {
			fatalAt = p.eng.Now()
		}
	})
	hangAt := 5 * sim.Millisecond
	p.eng.At(hangAt, func() { p.a.InjectHang() })
	p.eng.RunUntil(20 * sim.Millisecond)
	if fatalAt == 0 {
		t.Fatal("watchdog never fired")
	}
	detection := fatalAt - hangAt
	// IT1 is armed at 1000 µs and re-armed by each L_timer; detection
	// latency is bounded by the watchdog interval.
	if detection <= 0 || detection > 1100*sim.Microsecond {
		t.Errorf("detection latency = %v, want (0, 1.1ms]", detection)
	}
}

func TestNoWatchdogInGMMode(t *testing.T) {
	p := newPair(t, ModeGM)
	fired := false
	p.a.Chip().SetHostInterrupt(func(isr uint32) { fired = true })
	p.eng.At(5*sim.Millisecond, func() { p.a.InjectHang() })
	p.eng.RunUntil(50 * sim.Millisecond)
	if fired {
		t.Fatal("stock GM must not detect hangs — that is the paper's point")
	}
}

func TestWatchdogNoFalsePositives(t *testing.T) {
	p := newPair(t, ModeFTGM)
	p.openPorts(1)
	fired := false
	p.a.Chip().SetHostInterrupt(func(isr uint32) {
		if isr&lanai.ISRTimer1 != 0 {
			fired = true
		}
	})
	// Sustained traffic for 100 ms: L_timer must keep re-arming IT1 in
	// time despite the load.
	for i := 0; i < 50; i++ {
		if err := p.b.HostPostRecvToken(1, recvTok(8192)); err != nil {
			t.Fatal(err)
		}
	}
	var sendNext func(i int)
	sendNext = func(i int) {
		if i >= 50 {
			return
		}
		tok := sendTok(2, 1, make([]byte, 8192))
		tok.Seq, tok.HasSeq = uint32(i+1), true
		if err := p.a.HostPostSend(tok); err != nil {
			t.Fatal(err)
		}
		p.eng.After(2*sim.Millisecond, func() { sendNext(i + 1) })
	}
	sendNext(0)
	p.eng.RunUntil(100 * sim.Millisecond)
	if fired {
		t.Fatal("watchdog false positive under load")
	}
}

func TestHungInterfaceStopsTraffic(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
		t.Fatal(err)
	}
	p.b.InjectHang()
	if err := p.a.HostPostSend(sendTok(2, 1, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(30 * sim.Millisecond)
	if len(p.events(p.evB, gmproto.EvReceived)) != 0 {
		t.Fatal("hung interface delivered a message")
	}
	// Sender keeps retransmitting into the void.
	if p.a.Stats().Retransmits == 0 {
		t.Error("sender did not retransmit")
	}
}

func TestFTGMHostSequencesHonored(t *testing.T) {
	p := newPair(t, ModeFTGM)
	p.openPorts(1)
	for i := 0; i < 3; i++ {
		if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
			t.Fatal(err)
		}
	}
	// Host supplies 1,2,3; events must carry them back.
	for i := 1; i <= 3; i++ {
		tok := sendTok(2, 1, []byte{byte(i)})
		tok.Seq, tok.HasSeq = uint32(i), true
		if err := p.a.HostPostSend(tok); err != nil {
			t.Fatal(err)
		}
	}
	p.eng.RunUntil(5 * sim.Millisecond)
	recvd := p.events(p.evB, gmproto.EvReceived)
	if len(recvd) != 3 {
		t.Fatalf("received %d", len(recvd))
	}
	for i, ev := range recvd {
		if ev.Seq != uint32(i+1) {
			t.Errorf("seq[%d] = %d", i, ev.Seq)
		}
	}
}

func TestRestoreRxSeqsSuppressesDuplicates(t *testing.T) {
	p := newPair(t, ModeFTGM)
	p.openPorts(1)
	if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
		t.Fatal(err)
	}
	// Simulate a recovered receiver that already committed seq 5 on stream
	// (node 1, port 1).
	p.b.RestoreRxSeqs(map[gmproto.StreamID]uint32{{Node: 1, Port: 1, Prio: gmproto.PriorityLow}: 5})
	tok := sendTok(2, 1, []byte("dup"))
	tok.Seq, tok.HasSeq = 5, true
	if err := p.a.HostPostSend(tok); err != nil {
		t.Fatal(err)
	}
	p.eng.RunUntil(5 * sim.Millisecond)
	if len(p.events(p.evB, gmproto.EvReceived)) != 0 {
		t.Fatal("duplicate delivered after RestoreRxSeqs")
	}
	if p.b.Stats().DupDropped == 0 {
		t.Error("DupDropped = 0")
	}
	// The duplicate is re-ACKed so the sender completes.
	if len(p.events(p.evA, gmproto.EvSent)) != 1 {
		t.Error("sender did not get its token back")
	}
}

func TestAlarm(t *testing.T) {
	p := newPair(t, ModeGM)
	p.openPorts(1)
	p.a.HostSetAlarm(1, 3*sim.Millisecond)
	p.eng.RunUntil(2 * sim.Millisecond)
	if len(p.events(p.evA, gmproto.EvAlarm)) != 0 {
		t.Fatal("alarm fired early")
	}
	p.eng.RunUntil(5 * sim.Millisecond)
	if len(p.events(p.evA, gmproto.EvAlarm)) != 1 {
		t.Fatal("alarm did not fire")
	}
}

func TestScoutReplyMapping(t *testing.T) {
	p := newPair(t, ModeGM)
	p.b.SetUID(0xBBBB)
	var replies [][]byte
	p.a.SetMapSink(func(payload []byte) { replies = append(replies, payload) })
	scout := gmproto.ScoutPayload{Fwd: []byte{0x01}}
	p.a.RawTransmit([]byte{0x01}, scout.Encode())
	p.eng.RunUntil(1 * sim.Millisecond)
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(replies))
	}
	r, err := gmproto.DecodeReply(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.UID != 0xBBBB || !bytes.Equal(r.Fwd, []byte{0x01}) {
		t.Errorf("reply = %+v", r)
	}
}

func TestMapConfigInstalls(t *testing.T) {
	p := newPair(t, ModeGM)
	cfgPayload := gmproto.ConfigPayload{
		ID:     7,
		Routes: map[gmproto.NodeID][]byte{1: {0xFF}, 3: {0x02}},
	}
	p.a.RawTransmit([]byte{0x01}, cfgPayload.Encode()) // A -> B
	p.eng.RunUntil(1 * sim.Millisecond)
	if p.b.NodeID() != 7 {
		t.Errorf("NodeID = %d, want 7", p.b.NodeID())
	}
	routes := p.b.Routes()
	if len(routes) != 2 || !bytes.Equal(routes[1], []byte{0xFF}) {
		t.Errorf("routes = %v", routes)
	}
}

func TestLanaiPerMessageUtilization(t *testing.T) {
	// Table 2: LANai occupancy per small message is ~6.0 µs for GM and
	// ~6.8 µs for FTGM (sender + receiver combined).
	measure := func(mode Mode) float64 {
		p := newPair(t, mode)
		p.openPorts(1)
		const n = 100
		for i := 0; i < n; i++ {
			if err := p.b.HostPostRecvToken(1, recvTok(64)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			tok := sendTok(2, 1, []byte{byte(i)})
			if mode == ModeFTGM {
				tok.Seq, tok.HasSeq = uint32(i+1), true
			}
			if err := p.a.HostPostSend(tok); err != nil {
				t.Fatal(err)
			}
		}
		p.eng.RunUntil(100 * sim.Millisecond)
		if got := len(p.events(p.evB, gmproto.EvReceived)); got != n {
			t.Fatalf("%v: received %d/%d", mode, got, n)
		}
		busy := p.a.Chip().Stats().ExecBusy + p.b.Chip().Stats().ExecBusy
		// Subtract L_timer housekeeping, which is not per-message work.
		lt := sim.Duration(p.a.Stats().LTimerRuns+p.b.Stats().LTimerRuns) * DefaultConfig().LTimerProc
		return (busy - lt).Micros() / n
	}
	gm := measure(ModeGM)
	ftgm := measure(ModeFTGM)
	if gm < 5.0 || gm > 7.5 {
		t.Errorf("GM LANai util per msg = %.2f us, want ~6.0", gm)
	}
	if ftgm < gm+0.5 || ftgm > gm+1.5 {
		t.Errorf("FTGM LANai util per msg = %.2f us, want ~%.2f+0.8", ftgm, gm)
	}
}
