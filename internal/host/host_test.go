package host

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPCITransferTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	bus := NewPCIBus(eng, "pci0", PCIConfig{BytesPerSec: 264e6, TxnOverhead: 1500})
	var doneAt sim.Time
	end := bus.Transfer(264, func() { doneAt = eng.Now() })
	eng.Run()
	// 264 bytes at 264 MB/s = 1000 ns + 1500 ns overhead.
	if want := sim.Time(2500); end != want || doneAt != want {
		t.Errorf("end=%v doneAt=%v, want %v", end, doneAt, want)
	}
}

func TestPCISerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	bus := NewPCIBus(eng, "pci0", PCIConfig{BytesPerSec: 264e6, TxnOverhead: 1500})
	var times []sim.Time
	bus.Transfer(264, func() { times = append(times, eng.Now()) })
	bus.Transfer(264, func() { times = append(times, eng.Now()) })
	eng.Run()
	if len(times) != 2 || times[0] != 2500 || times[1] != 5000 {
		t.Errorf("times = %v, want [2500 5000]", times)
	}
	st := bus.Stats()
	if st.Transactions != 2 || st.Bytes != 528 || st.Busy != 5000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPCIUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	bus := NewPCIBus(eng, "pci0", PCIConfig{BytesPerSec: 264e6, TxnOverhead: 0})
	bus.Transfer(264, nil)
	eng.RunUntil(2000)
	if u := bus.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestPCINilDone(t *testing.T) {
	eng := sim.NewEngine(1)
	bus := NewPCIBus(eng, "pci0", DefaultPCIConfig())
	bus.Transfer(100, nil) // must not panic
	eng.Run()
}

func TestPageTablePinLookup(t *testing.T) {
	pt := NewPageTable()
	h, err := pt.pin(2, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pt.lookup(2, 0x10000+123)
	if err != nil {
		t.Fatal(err)
	}
	if got != h+123 {
		t.Errorf("Lookup = %#x, want %#x", got, h+123)
	}
	if _, err := pt.lookup(3, 0x10000); !errors.Is(err, ErrNotPinned) {
		t.Errorf("cross-port lookup err = %v, want ErrNotPinned", err)
	}
	if _, err := pt.pin(2, 0x10000+8); !errors.Is(err, ErrAlreadyPinned) {
		t.Errorf("double pin err = %v, want ErrAlreadyPinned", err)
	}
}

func TestPageTablePinRange(t *testing.T) {
	pt := NewPageTable()
	// 3 pages: straddles from mid-page 1 to mid-page 3.
	if err := pt.PinRange(1, PageSize+100, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if pt.Len() != 3 {
		t.Errorf("Len = %d, want 3", pt.Len())
	}
	// Overlapping range re-pins nothing and succeeds.
	if err := pt.PinRange(1, PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if pt.Len() != 3 {
		t.Errorf("Len after overlap = %d, want 3", pt.Len())
	}
	if err := pt.PinRange(1, 0, 0); err != nil {
		t.Errorf("zero-size PinRange: %v", err)
	}
}

func TestPageTableUnpinPort(t *testing.T) {
	pt := NewPageTable()
	if err := pt.PinRange(1, 0, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := pt.PinRange(2, 0, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if n := pt.UnpinPort(1); n != 4 {
		t.Errorf("UnpinPort(1) = %d, want 4", n)
	}
	if pt.Len() != 2 {
		t.Errorf("Len = %d, want 2", pt.Len())
	}
	if _, err := pt.lookup(1, 0); err == nil {
		t.Error("lookup of unpinned page succeeded")
	}
	if _, err := pt.lookup(2, 0); err != nil {
		t.Errorf("port 2 pages lost: %v", err)
	}
}

func TestPageTableEntries(t *testing.T) {
	pt := NewPageTable()
	if err := pt.PinRange(5, 0, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if len(pt.entries) != 3 {
		t.Fatalf("entries = %d", len(pt.entries))
	}
	for _, e := range pt.entries {
		if e.Port != 5 {
			t.Errorf("entry port = %d", e.Port)
		}
	}
}

func TestCPUAccount(t *testing.T) {
	var c CPUAccount
	c.ChargeSend(300)
	c.ChargeSend(300)
	c.ChargeRecv(750)
	c.Charge(1000)
	if c.Busy() != 2350 {
		t.Errorf("Busy = %v", c.Busy())
	}
	if c.PerSend() != 300 {
		t.Errorf("PerSend = %v", c.PerSend())
	}
	if c.PerRecv() != 750 {
		t.Errorf("PerRecv = %v", c.PerRecv())
	}
	s, r := c.Counts()
	if s != 2 || r != 1 {
		t.Errorf("Counts = %d, %d", s, r)
	}
	c.Reset()
	if c.Busy() != 0 || c.PerSend() != 0 || c.PerRecv() != 0 {
		t.Error("Reset did not zero the account")
	}
}

// Property: DMA handles from Lookup preserve intra-page offsets for any
// pinned address.
func TestPropertyPageOffsets(t *testing.T) {
	f := func(vbase uint32, off uint16) bool {
		pt := NewPageTable()
		vaddr := uint64(vbase)
		if err := pt.PinRange(0, vaddr, uint64(off)+1); err != nil {
			return false
		}
		h1, err1 := pt.lookup(0, vaddr)
		h2, err2 := pt.lookup(0, vaddr+uint64(off))
		if err1 != nil || err2 != nil {
			return false
		}
		// Offsets within the same page must be exactly preserved; across
		// pages, the page-start relation must hold.
		if vaddr/PageSize == (vaddr+uint64(off))/PageSize {
			return uint64(h2-h1) == uint64(off)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the PCI bus never completes transfers out of order.
func TestPropertyPCIFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine(1)
		bus := NewPCIBus(eng, "pci", DefaultPCIConfig())
		var order []int
		for i, s := range sizes {
			i := i
			bus.Transfer(int(s), func() { order = append(order, i) })
		}
		eng.Run()
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return len(order) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
