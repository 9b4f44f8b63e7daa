package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gmproto"
	"repro/internal/host"
	"repro/internal/lanai"
	"repro/internal/mcp"
	"repro/internal/sim"
)

func TestShadowStoreSendTokens(t *testing.T) {
	s := NewShadowStore(2)
	if s.Port() != 2 {
		t.Errorf("Port = %d", s.Port())
	}
	for i := uint64(1); i <= 3; i++ {
		s.AddSendToken(gmproto.SendToken{ID: i, Seq: uint32(i)})
	}
	s.RemoveSendToken(2)
	out := s.OutstandingSends()
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 3 {
		t.Fatalf("outstanding = %+v", out)
	}
	// Order is stable across repeated queries.
	out2 := s.OutstandingSends()
	if len(out2) != 2 || out2[0].ID != 1 {
		t.Fatalf("second query = %+v", out2)
	}
	sends, recvs := s.Counts()
	if sends != 2 || recvs != 0 {
		t.Errorf("Counts = %d, %d", sends, recvs)
	}
}

func TestShadowStoreRecvTokens(t *testing.T) {
	s := NewShadowStore(0)
	s.AddRecvToken(gmproto.RecvToken{ID: 10, Size: 4096})
	s.AddRecvToken(gmproto.RecvToken{ID: 11, Size: 4096})
	s.RemoveRecvToken(10)
	out := s.OutstandingRecvs()
	if len(out) != 1 || out[0].ID != 11 {
		t.Fatalf("outstanding = %+v", out)
	}
}

func TestShadowStoreSeqStreams(t *testing.T) {
	s := NewShadowStore(1)
	// Independent streams per remote node and priority (§4.1, §3.1).
	if s.NextSeq(5, gmproto.PriorityLow) != 1 || s.NextSeq(5, gmproto.PriorityLow) != 2 {
		t.Fatal("stream not advancing")
	}
	if s.NextSeq(7, gmproto.PriorityLow) != 1 {
		t.Fatal("streams not independent per destination")
	}
	if s.NextSeq(5, gmproto.PriorityHigh) != 1 {
		t.Fatal("priority levels share a sequence space")
	}
}

func TestShadowStoreDuplicateAdd(t *testing.T) {
	s := NewShadowStore(1)
	s.AddSendToken(gmproto.SendToken{ID: 1, Seq: 1})
	s.AddSendToken(gmproto.SendToken{ID: 1, Seq: 9}) // overwrite, not duplicate
	out := s.OutstandingSends()
	if len(out) != 1 || out[0].Seq != 9 {
		t.Fatalf("outstanding = %+v", out)
	}
}

func TestRxAckTable(t *testing.T) {
	tab := NewRxAckTable()
	id := gmproto.StreamID{Node: 3, Port: 1}
	tab.Update(id, 5)
	tab.Update(id, 3) // regressions ignored
	if tab.Last(id) != 5 {
		t.Errorf("Last = %d", tab.Last(id))
	}
	snap := tab.Snapshot()
	snap[id] = 99
	if tab.Last(id) != 5 {
		t.Error("Snapshot aliases internal state")
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
}

// rig builds a single-node driver/FTD test rig.
type rig struct {
	eng    *sim.Engine
	chip   *lanai.Chip
	m      *mcp.MCP
	driver *Driver
	ftd    *FTD
}

func newRig(t *testing.T, mode mcp.Mode) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	pci := host.NewPCIBus(eng, "pci", host.DefaultPCIConfig())
	chip := lanai.New(eng, "lanai", lanai.DefaultConfig(), pci)
	m := mcp.New(chip, mcp.DefaultConfig(), mode)
	m.SetNodeID(1)
	d := NewDriver(m, DefaultDriverConfig())
	d.SetRoutes(1, map[gmproto.NodeID][]byte{2: {1}})
	f := NewFTD(d, DefaultFTDConfig())
	m.LoadAndStart()
	return &rig{eng: eng, chip: chip, m: m, driver: d, ftd: f}
}

func TestDriverLoadMCPTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	pci := host.NewPCIBus(eng, "pci", host.DefaultPCIConfig())
	chip := lanai.New(eng, "lanai", lanai.DefaultConfig(), pci)
	m := mcp.New(chip, mcp.DefaultConfig(), mcp.ModeFTGM)
	d := NewDriver(m, DefaultDriverConfig())
	var loadedAt sim.Time
	d.LoadMCP(func() { loadedAt = eng.Now() })
	eng.RunUntil(sim.Second)
	if loadedAt != 500*sim.Millisecond {
		t.Errorf("loaded at %v, want 500ms", loadedAt)
	}
	if !chip.Running() {
		t.Error("chip not running after load")
	}
	if d.Stats().MCPLoads != 1 {
		t.Error("load not counted")
	}
}

func TestDriverPortBookkeeping(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	sink := func(ev gmproto.Event) {}
	if err := r.driver.OpenPort(2, sink); err != nil {
		t.Fatal(err)
	}
	if err := r.driver.OpenPort(5, sink); err != nil {
		t.Fatal(err)
	}
	ports := r.driver.OpenPorts()
	if len(ports) != 2 || ports[0] != 2 || ports[1] != 5 {
		t.Fatalf("OpenPorts = %v", ports)
	}
	if r.driver.PortSink(2) == nil {
		t.Error("sink lost")
	}
	r.driver.ClosePort(2)
	if len(r.driver.OpenPorts()) != 1 {
		t.Error("close did not unregister")
	}
}

func TestFullDetectionAndRecoveryTimeline(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	var events []gmproto.Event
	if err := r.driver.OpenPort(2, func(ev gmproto.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	var tl *Timeline
	r.ftd.OnRecovered = func(timeline *Timeline) { tl = timeline }

	// Let normal operation settle, then hang the LANai.
	r.eng.RunUntil(10 * sim.Millisecond)
	r.ftd.MarkFault()
	r.m.InjectHang()
	r.eng.RunUntil(5 * sim.Second)

	if tl == nil {
		t.Fatal("recovery never completed")
	}
	det := tl.DetectionTime()
	if det < 200*sim.Microsecond || det > 1200*sim.Microsecond {
		t.Errorf("detection time = %v, want sub-ms (Table 3: ~800us)", det)
	}
	ftdTime := tl.FTDTime()
	if ftdTime < 600*sim.Millisecond || ftdTime > 900*sim.Millisecond {
		t.Errorf("FTD time = %v, want ~765ms (Table 3)", ftdTime)
	}
	reload := tl.ReloadTime()
	if reload < 490*sim.Millisecond || reload > 510*sim.Millisecond {
		t.Errorf("reload time = %v, want ~500ms", reload)
	}
	// FAULT_DETECTED reached the port.
	found := false
	for _, ev := range events {
		if ev.Type == gmproto.EvFaultDetected && ev.Port == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no FAULT_DETECTED event posted")
	}
	if !r.chip.Running() {
		t.Error("chip not running after recovery")
	}
	if r.ftd.Stats().Recoveries != 1 || r.ftd.Stats().PortsRecovered != 1 {
		t.Errorf("ftd stats = %+v", r.ftd.Stats())
	}
}

func TestFTDFalseAlarm(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	// Raise the watchdog ISR bit without an actual hang: the MCP is alive,
	// clears the magic word, and the FTD stands down.
	r.eng.RunUntil(5 * sim.Millisecond)
	r.chip.RaiseISR(lanai.ISRTimer1)
	r.eng.RunUntil(100 * sim.Millisecond)
	if r.ftd.Stats().FalseAlarms != 1 {
		t.Fatalf("FalseAlarms = %d, want 1", r.ftd.Stats().FalseAlarms)
	}
	if r.ftd.Stats().Recoveries != 0 {
		t.Error("false alarm triggered a recovery")
	}
	if r.chip.Stats().Resets != 0 {
		t.Error("false alarm reset the card")
	}
}

func TestHardHangNotDetected(t *testing.T) {
	// When the fault kills the timer/interrupt logic too, the watchdog
	// cannot fire — the assumption of §4.2 is violated.
	r := newRig(t, mcp.ModeFTGM)
	r.eng.RunUntil(5 * sim.Millisecond)
	r.m.InjectHardHang()
	r.eng.RunUntil(3 * sim.Second)
	if r.ftd.Stats().Wakeups != 0 {
		t.Error("hard hang woke the FTD")
	}
}

func TestRecoveryRearmsForNextFault(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	if err := r.driver.OpenPort(1, func(ev gmproto.Event) {}); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	r.ftd.OnRecovered = func(tl *Timeline) { recovered++ }
	r.eng.RunUntil(10 * sim.Millisecond)
	r.m.InjectHang()
	r.eng.RunUntil(5 * sim.Second)
	if recovered != 1 {
		t.Fatalf("first recovery count = %d", recovered)
	}
	// Second fault after the first recovery: the FTD must stand guard
	// again ("rewinding and standing guard for the recovery of the next
	// fault", §4.3).
	r.m.InjectHang()
	r.eng.RunUntil(10 * sim.Second)
	if recovered != 2 {
		t.Fatalf("second recovery count = %d", recovered)
	}
}

func TestNaiveRestartRestoresNoState(t *testing.T) {
	r := newRig(t, mcp.ModeGM)
	var events []gmproto.Event
	if err := r.driver.OpenPort(1, func(ev gmproto.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(5 * sim.Millisecond)
	r.m.InjectHang()
	done := false
	r.driver.NaiveRestart(func() { done = true })
	r.eng.RunUntil(2 * sim.Second)
	if !done {
		t.Fatal("naive restart did not finish")
	}
	if !r.chip.Running() {
		t.Error("chip not running")
	}
	if !r.m.PortOpen(1) {
		t.Error("port not reopened")
	}
	// No FAULT_DETECTED in naive mode: the application never learns.
	for _, ev := range events {
		if ev.Type == gmproto.EvFaultDetected {
			t.Error("naive restart posted FAULT_DETECTED")
		}
	}
	if r.driver.Stats().NaiveRestarts != 1 {
		t.Error("restart not counted")
	}
}

func TestTimelinePhases(t *testing.T) {
	tl := newTimeline()
	tl.Mark(PhaseFaultInjected, 100)
	tl.Mark(PhaseFTDWake, 900)
	tl.Mark(PhaseEventsPosted, 765900)
	tl.Mark(PhaseProcessesDone, 1665900)
	tl.Mark(PhaseFaultInjected, 999999) // first mark wins
	if tl.DetectionTime() != 800 {
		t.Errorf("DetectionTime = %v", tl.DetectionTime())
	}
	if tl.FTDTime() != 765000 {
		t.Errorf("FTDTime = %v", tl.FTDTime())
	}
	if tl.PerProcessTime() != 900000 {
		t.Errorf("PerProcessTime = %v", tl.PerProcessTime())
	}
	if tl.TotalTime() != 1665800 {
		t.Errorf("TotalTime = %v", tl.TotalTime())
	}
	phases := tl.Phases()
	if len(phases) != 4 || phases[0].Phase != PhaseFaultInjected {
		t.Errorf("Phases = %+v", phases)
	}
	if tl.span(PhaseProcessesDone, PhaseFaultInjected) != 0 {
		t.Error("reversed span not zero")
	}
	for p := PhaseFaultInjected; p <= PhaseProcessesDone; p++ {
		if p.String() == "" {
			t.Error("empty phase name")
		}
	}
}

// Property: the RxAckTable is a per-stream running maximum.
func TestPropertyRxAckTableMax(t *testing.T) {
	f := func(updates []uint32) bool {
		tab := NewRxAckTable()
		want := make(map[gmproto.StreamID]uint32)
		for i, seq := range updates {
			id := gmproto.StreamID{Node: gmproto.NodeID(i % 3), Port: gmproto.PortID(i % 2)}
			tab.Update(id, seq)
			if seq > want[id] {
				want[id] = seq
			}
		}
		for id, w := range want {
			if tab.Last(id) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
