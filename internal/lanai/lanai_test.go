package lanai

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/sim"
)

func newChip(eng *sim.Engine) *Chip {
	pci := host.NewPCIBus(eng, "pci", host.PCIConfig{BytesPerSec: 264e6, TxnOverhead: 1500})
	c := New(eng, "lanai0", DefaultConfig(), pci)
	c.Start()
	return c
}

func TestTimerExpiryRaisesISR(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	var raised []uint32
	c.SetISRHandler(func(bit uint32) { raised = append(raised, bit) })
	c.SetTimer(0, 100) // 100 ticks = 50 µs
	eng.Run()
	if len(raised) != 1 || raised[0] != ISRTimer0 {
		t.Fatalf("raised = %v", raised)
	}
	if eng.Now() != 50*sim.Microsecond {
		t.Errorf("expired at %v, want 50us", eng.Now())
	}
	if c.ISR()&ISRTimer0 == 0 {
		t.Error("ISR bit not set")
	}
	c.AckISR(ISRTimer0)
	if c.ISR()&ISRTimer0 != 0 {
		t.Error("AckISR did not clear")
	}
}

func TestTimerRearmReplaces(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	count := 0
	c.SetISRHandler(func(bit uint32) { count++ })
	c.SetTimer(1, 100)
	eng.At(10*sim.Microsecond, func() { c.SetTimer(1, 100) })
	eng.Run()
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1 (re-arm must replace)", count)
	}
	if eng.Now() != 60*sim.Microsecond {
		t.Errorf("fired at %v, want 60us", eng.Now())
	}
}

func TestStopTimer(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	fired := false
	c.SetISRHandler(func(bit uint32) { fired = true })
	c.SetTimer(2, 10)
	if !c.TimerArmed(2) {
		t.Error("TimerArmed = false after SetTimer")
	}
	c.StopTimer(2)
	if c.TimerArmed(2) {
		t.Error("TimerArmed = true after StopTimer")
	}
	eng.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestWatchdogInterruptPath(t *testing.T) {
	// The §4.2 mechanism end to end at chip level: IT1 armed, IMR unmasked,
	// processor hangs, IT1 expiry raises a host interrupt even though the
	// processor is dead.
	eng := sim.NewEngine(1)
	c := newChip(eng)
	var hostISR uint32
	c.SetHostInterrupt(func(isr uint32) { hostISR = isr })
	c.SetIMR(ISRTimer1)
	c.SetTimer(1, 2000) // 1 ms watchdog
	eng.At(100*sim.Microsecond, func() { c.Hang() })
	eng.Run()
	if hostISR&ISRTimer1 == 0 {
		t.Fatal("watchdog expiry did not interrupt the host")
	}
	if eng.Now() != 1*sim.Millisecond {
		t.Errorf("interrupt at %v, want 1ms", eng.Now())
	}
	if !c.Hung() {
		t.Error("Hung() = false")
	}
}

func TestHardHangKillsWatchdog(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	interrupted := false
	c.SetHostInterrupt(func(isr uint32) { interrupted = true })
	c.SetIMR(ISRTimer1)
	c.SetTimer(1, 2000)
	eng.At(100*sim.Microsecond, func() { c.HardHang() })
	eng.Run()
	if interrupted {
		t.Fatal("hard hang must suppress the watchdog interrupt")
	}
}

func TestISRHandlerNotCalledWhenHung(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	calls := 0
	c.SetISRHandler(func(bit uint32) { calls++ })
	c.Hang()
	c.RaiseISR(ISRDoorbell)
	if calls != 0 {
		t.Error("hung processor dispatched an ISR")
	}
	if c.ISR()&ISRDoorbell == 0 {
		t.Error("ISR bit must still latch while hung")
	}
}

func TestExecSerializesAndAccounts(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	var done []sim.Time
	c.Exec(3*sim.Microsecond, func() { done = append(done, eng.Now()) })
	c.Exec(2*sim.Microsecond, func() { done = append(done, eng.Now()) })
	eng.Run()
	if len(done) != 2 || done[0] != 3*sim.Microsecond || done[1] != 5*sim.Microsecond {
		t.Fatalf("done = %v", done)
	}
	if c.Stats().ExecBusy != 5*sim.Microsecond {
		t.Errorf("ExecBusy = %v", c.Stats().ExecBusy)
	}
}

func TestExecInvalidatedByHang(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	ran := false
	c.Exec(10*sim.Microsecond, func() { ran = true })
	eng.At(5*sim.Microsecond, func() { c.Hang() })
	eng.Run()
	if ran {
		t.Error("handler queued before hang ran after it")
	}
	// Exec while hung is dropped entirely.
	c.Exec(1, func() { ran = true })
	eng.Run()
	if ran {
		t.Error("Exec ran on hung processor")
	}
}

func TestExecInvalidatedByReset(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	ran := false
	c.Exec(10*sim.Microsecond, func() { ran = true })
	eng.At(5*sim.Microsecond, func() { c.Reset(); c.Start() })
	eng.Run()
	if ran {
		t.Error("handler survived a reset")
	}
}

func TestHostDMASerializesOnEngine(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	var done []sim.Time
	c.HostDMA(264, func() { done = append(done, eng.Now()) }) // 1000+1500 ns
	c.HostDMA(264, func() { done = append(done, eng.Now()) })
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	if done[0] != 2500 || done[1] != 5000 {
		t.Errorf("done = %v, want [2500 5000]", done)
	}
	if c.Stats().HostDMAs != 2 || c.Stats().HostDMABytes != 528 {
		t.Errorf("stats = %+v", c.Stats())
	}
	if c.ISR()&ISRHostDMADone == 0 {
		t.Error("DMA done did not raise ISR")
	}
}

// A host-DMA queue that never empties must not grow with the run: every
// completion queues the next request while another is still waiting, for
// 100k requests, and the FIFOs' backing arrays stay within a few slides'
// worth of slots.
func TestHostDMAQueueBoundedWhenNeverEmpty(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	const total = 100_000
	issued, completed := 0, 0
	var done func()
	done = func() {
		completed++
		if c.dmaHead == len(c.dmaQ) {
			t.Fatalf("host-DMA queue drained after %d completions; the test must keep it busy", completed)
		}
		if issued < total {
			issued++
			c.HostDMA(64, done)
		}
	}
	for ; issued < 3; issued++ {
		c.HostDMA(64, done)
	}
	for completed < total-2 && eng.Step() {
	}
	if completed != total-2 {
		t.Fatalf("completed %d of %d", completed, total)
	}
	if cap(c.dmaQ) > 4096 || cap(c.dmaEpochQ) > 4096 {
		t.Errorf("cap(dmaQ) = %d, cap(dmaEpochQ) = %d after %d requests on a never-empty queue; want bounded",
			cap(c.dmaQ), cap(c.dmaEpochQ), total)
	}
}

func TestHostDMAInvalidatedByReset(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	ran := false
	c.HostDMA(264, func() { ran = true })
	c.Reset()
	c.Start()
	eng.Run()
	if ran {
		t.Error("DMA completion survived reset")
	}
}

func TestPacketLoopThroughLink(t *testing.T) {
	eng := sim.NewEngine(1)
	pci := host.NewPCIBus(eng, "pci", host.DefaultPCIConfig())
	a := New(eng, "a", DefaultConfig(), pci)
	b := New(eng, "b", DefaultConfig(), pci)
	a.Start()
	b.Start()
	l := fabric.NewLink(eng, fabric.DefaultLinkConfig(), a, b)
	a.Attach(l.EndFor(a))
	b.Attach(l.EndFor(b))
	var got uint32
	b.SetISRHandler(func(bit uint32) {
		if bit == ISRRecvPacket {
			got++
		}
	})
	p := &fabric.Packet{Payload: []byte("hi")}
	p.SealCRC()
	a.TransmitPacket(p)
	eng.Run()
	if got != 1 || b.RecvPending() != 1 {
		t.Fatalf("got=%d pending=%d", got, b.RecvPending())
	}
	if pkt := b.PopRecv(); pkt == nil || string(pkt.Payload) != "hi" {
		t.Error("payload lost")
	}
	if b.PopRecv() != nil {
		t.Error("ring not empty")
	}
}

func TestRecvDroppedWhenHung(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	c.Hang()
	p := &fabric.Packet{Payload: []byte("x")}
	c.RecvPacket(p, nil)
	if c.Stats().PacketsDropped != 1 || c.RecvPending() != 0 {
		t.Error("hung chip buffered a packet")
	}
}

func TestRecvRingOverflow(t *testing.T) {
	eng := sim.NewEngine(1)
	pci := host.NewPCIBus(eng, "pci", host.DefaultPCIConfig())
	c := New(eng, "c", Config{SRAMSize: 4096, RecvRing: 2}, pci)
	c.Start()
	for i := 0; i < 3; i++ {
		c.RecvPacket(&fabric.Packet{}, nil)
	}
	if c.RecvPending() != 2 || c.Stats().PacketsDropped != 1 {
		t.Errorf("pending=%d dropped=%d", c.RecvPending(), c.Stats().PacketsDropped)
	}
}

func TestResetClearsState(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	c.SetIMR(ISRTimer1)
	c.SetTimer(1, 100)
	c.RecvPacket(&fabric.Packet{}, nil)
	c.RaiseISR(ISRDoorbell)
	c.Reset()
	if c.Running() || c.Hung() {
		t.Error("reset left processor state")
	}
	if c.ISR() != 0 || c.IMR() != 0 {
		t.Error("reset left registers")
	}
	if c.TimerArmed(1) {
		t.Error("reset left timer armed")
	}
	if c.RecvPending() != 0 {
		t.Error("reset left buffered packets")
	}
	if c.Stats().Resets != 1 {
		t.Error("reset not counted")
	}
}

func TestMagicWordHandshake(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	c.WriteWord(MagicAddr, MagicWord)
	if c.ReadWord(MagicAddr) != MagicWord {
		t.Fatal("SRAM word round trip failed")
	}
	// A live MCP clears it.
	c.WriteWord(MagicAddr, 0)
	if c.ReadWord(MagicAddr) != 0 {
		t.Fatal("clear failed")
	}
}

func TestSRAMBoundsSafe(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	end := uint32(c.SRAMSize())
	// The first two straddle the end; the last wraps past 4 GB.
	for _, addr := range []uint32{end - 2, end - 3, end, end + pageSize, ^uint32(0) - 1} {
		c.WriteWord(addr, 7)
		if v := c.ReadWord(addr); v != 0 {
			t.Errorf("out-of-bounds access at %#x not ignored", addr)
		}
	}
	if r := c.SRAMResident(); r != 0 {
		t.Errorf("out-of-bounds writes left %d bytes resident", r)
	}
}

func TestClearSRAM(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	for a := uint32(0); int(a) < c.SRAMSize(); a += pageSize {
		c.WriteWord(a+0x100, 0xabcd)
	}
	if r := c.SRAMResident(); r != c.SRAMSize() {
		t.Fatalf("%d bytes resident after touching every page, want %d", r, c.SRAMSize())
	}
	c.ClearSRAM()
	if r := c.SRAMResident(); r != 0 {
		t.Errorf("ClearSRAM left %d bytes resident", r)
	}
	for a := uint32(0); int(a) < c.SRAMSize(); a += pageSize {
		if c.ReadWord(a+0x100) != 0 {
			t.Fatalf("ClearSRAM left data at %#x", a+0x100)
		}
	}
}
