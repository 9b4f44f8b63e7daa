package lanai

import (
	"fmt"
	"testing"

	"repro/internal/host"
	"repro/internal/sim"
)

func TestSRAMNoPageUntilNonZeroWrite(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	if c.SRAMSize() != 1<<20 {
		t.Fatalf("SRAMSize = %d, want the LANai 9's 1 MB", c.SRAMSize())
	}
	if r := c.SRAMResident(); r != 0 {
		t.Fatalf("New: %d bytes resident, want 0", r)
	}
	c.WriteWord(MagicAddr, 0)
	if r := c.SRAMResident(); r != 0 {
		t.Fatalf("WriteWord(addr, 0): %d bytes resident, want 0", r)
	}
	c.WriteWord(MagicAddr, MagicWord)
	if r := c.SRAMResident(); r != pageSize {
		t.Fatalf("one magic word: %d bytes resident, want one page (%d)", r, pageSize)
	}
}

func TestSRAMWordStraddlesPage(t *testing.T) {
	for _, addr := range []uint32{pageSize - 3, pageSize - 2, pageSize - 1, 5*pageSize - 1} {
		eng := sim.NewEngine(1)
		c := newChip(eng)
		c.WriteWord(addr, 0xA1B2C3D4)
		if v := c.ReadWord(addr); v != 0xA1B2C3D4 {
			t.Errorf("ReadWord(%#x) = %#x after a straddling write", addr, v)
		}
		// Little-endian: the high bytes land at the start of the next page.
		if v, want := c.ReadWord(addr+pageSize-addr%pageSize)&0xFF, uint32(0xA1B2C3D4)>>(8*(pageSize-addr%pageSize))&0xFF; v != want {
			t.Errorf("write at %#x put %#x at the next page's first byte, want %#x", addr, v, want)
		}
		if r := c.SRAMResident(); r != 2*pageSize {
			t.Errorf("write at %#x: %d bytes resident, want both pages", addr, r)
		}
		c.WriteWord(addr, 0)
		if v := c.ReadWord(addr); v != 0 {
			t.Errorf("ReadWord(%#x) = %#x after clearing it", addr, v)
		}
	}
}

// spanFeed is a boundary into the chip's domain whose rare transfers land
// inside spans the domain has already run through and roll them back.
type spanFeed struct {
	src, dst *sim.Engine
	class    uint32
	at       []sim.Time
	noted    bool
}

func (b *spanFeed) BoundaryTarget() *sim.Engine { return b.dst }

func (b *spanFeed) EarliestPending() sim.Time {
	if len(b.at) == 0 {
		return sim.Forever
	}
	return b.at[0]
}

func (b *spanFeed) FlushBoundary() {
	b.noted = false
	for _, at := range b.at {
		b.dst.AtArrival(at, b.class, "xfer", func() {})
	}
	b.at = b.at[:0]
}

func (b *spanFeed) send(lat sim.Duration) {
	b.at = append(b.at, b.src.Now()+lat)
	if !b.noted {
		b.noted = true
		b.src.NoteBoundary(b)
	}
}

// A span that wrote words and cleared SRAM, then rolled back, leaves every
// word as it found it. Ticks on the chip's domain are numbered by a
// journaled counter; a tick that runs again was rolled back, and the SRAM it
// finds must read word for word as it did the first time.
func TestSRAMRollbackRestoresEveryWord(t *testing.T) {
	const (
		lat      = 1 * sim.Microsecond
		deadline = sim.Time(150 * sim.Microsecond)
		size     = 4*pageSize + 64
	)
	root := sim.NewEngine(2003)
	root.SetShards(1)
	root.SetSpeculation(800 * sim.Nanosecond)
	ea, eb := root.NewDomain("feeder"), root.NewDomain("chip")
	ea.ObserveEdgeLookahead(eb, lat)
	eb.ObserveEdgeLookahead(ea, lat)

	feed := &spanFeed{src: ea, dst: eb, class: eb.ArrivalClass()}
	feeds := 0
	var feedTick func()
	feedTick = func() {
		if feeds++; feeds%199 == 0 {
			feed.send(lat)
		}
		if next := ea.Now() + 50*sim.Nanosecond + ea.RNG().Duration(150*sim.Nanosecond); next <= deadline {
			ea.AtLabel(next, "tick", feedTick)
		}
	}
	ea.AtLabel(100*sim.Nanosecond, "tick", feedTick)

	pci := host.NewPCIBus(eb, "pci", host.DefaultPCIConfig())
	c := New(eb, "c", Config{SRAMSize: size, RecvRing: 2}, pci)
	image := func() string {
		w := make([]uint32, size/4)
		for i := range w {
			w[i] = c.ReadWord(uint32(4 * i))
		}
		return fmt.Sprint(w)
	}
	var (
		tick          int // journaled by the domain hooks below
		found         = map[int]string{}
		cleared       = map[int]bool{}
		reran, undone int
	)
	eb.EnableSpeculation(func() any { return tick }, func(v any) { tick = v.(int) })
	var chipTick func()
	chipTick = func() {
		k := tick
		tick++
		got := image()
		if want, ran := found[k]; ran {
			reran++
			if cleared[k] {
				undone++
			}
			if got != want {
				t.Errorf("tick %d after rollback reads a different SRAM image than the first time", k)
			}
		}
		found[k] = got
		r := eb.RNG().Uint64()
		c.WriteWord(uint32(r%(size-3)), uint32(r>>32)|1)
		cleared[k] = r>>20%3 == 0
		if cleared[k] {
			c.ClearSRAM()
		}
		c.WriteWord(uint32(r>>8%(size-3)), uint32(r>>24)|1)
		if next := eb.Now() + 50*sim.Nanosecond + eb.RNG().Duration(150*sim.Nanosecond); next <= deadline {
			eb.AtLabel(next, "tick", chipTick)
		}
	}
	eb.AtLabel(130*sim.Nanosecond, "tick", chipTick)
	root.RunUntil(deadline)

	if _, rollbacks, _, _ := root.SpecStats(); rollbacks == 0 || reran == 0 || undone == 0 {
		t.Fatalf("harness rolled back no span that cleared SRAM: rollbacks=%d ticks rerun=%d rerun after a clear=%d", rollbacks, reran, undone)
	}
}

// BenchmarkChipNew is the per-node cost of a chip: with paged SRAM it no
// longer carries the 1 MB backing store.
func BenchmarkChipNew(b *testing.B) {
	eng := sim.NewEngine(1)
	pci := host.NewPCIBus(eng, "pci", host.DefaultPCIConfig())
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(eng, "c", cfg, pci)
	}
}

// BenchmarkChipClearSRAM is the FTD's SRAM clear: one page-table clear
// instead of a 1 MB memclr.
func BenchmarkChipClearSRAM(b *testing.B) {
	eng := sim.NewEngine(1)
	c := newChip(eng)
	c.WriteWord(MagicAddr, MagicWord)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ClearSRAM()
	}
}
