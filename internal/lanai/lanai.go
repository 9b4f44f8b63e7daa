// Package lanai models the LANai chip at the center of the Myrinet host
// interface card (§2 of the paper): a RISC processor core, fast local SRAM,
// DMA logic to/from the network (the packet interface), E-bus DMA logic
// to/from the host across PCI, three 32-bit interval timers decremented
// every 0.5 µs, and the interface status / interrupt mask registers.
//
// The control program (package mcp) runs "on" this chip: its handlers
// execute serially on the single processor with explicit time costs, and a
// processor hang — the paper's central failure mode — stops the handlers
// while leaving the timer and interrupt logic alive, which is precisely the
// property the software watchdog of §4.2 relies on.
package lanai

import (
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/sim"
)

// ISR/IMR bits of the interface status register.
const (
	ISRTimer0      uint32 = 1 << iota // IT0: GM's L_timer interval timer
	ISRTimer1                         // IT1: the watchdog timer FTGM arms (§4.2)
	ISRTimer2                         // IT2: spare
	ISRRecvPacket                     // packet interface: packet landed in SRAM
	ISRHostDMADone                    // E-bus DMA engine completion
	ISRDoorbell                       // host wrote a doorbell word
)

// TimerTick is the interval timer decrement period: "32-bit counters that
// are decremented every 1/2 µs" (§4.2).
const TimerTick = 500 * sim.Nanosecond

// NumTimers is the number of interval timers on the chip.
const NumTimers = 3

// MagicAddr is the SRAM location used for the FTD's liveness handshake: the
// FTD writes a magic word here, which a live control program clears (§4.3).
const MagicAddr = 0x40

// MagicWord is the value the FTD writes to MagicAddr.
const MagicWord = 0xFEEDC0DE

// pageSize is the granule SRAM is backed in. FTGM touches a few words of
// the megabyte (the magic word, §4.3), so a page is allocated only when a
// non-zero byte is first written to it; an absent page reads as zero.
const pageSize = 4096

type page = [pageSize]byte

// Config sets the chip's physical parameters.
type Config struct {
	// SRAMSize is the local memory size (512 KB..8 MB on real cards).
	SRAMSize int
	// RecvRing is how many arrived packets the packet interface can hold
	// before the control program services them; overflow is dropped (the
	// network-level Go-Back-N recovers).
	RecvRing int
}

// DefaultConfig models a LANai 9 card with 1 MB of SRAM.
func DefaultConfig() Config {
	return Config{SRAMSize: 1 << 20, RecvRing: 256}
}

// Stats counts chip-level activity.
type Stats struct {
	PacketsSent     uint64
	PacketsReceived uint64
	PacketsDropped  uint64 // recv-ring overflow or processor down
	HostDMAs        uint64
	HostDMABytes    uint64
	ExecBusy        sim.Duration // processor busy time
	Resets          uint64
}

type timer struct {
	event   *sim.Event
	armedAt sim.Time
	ticks   uint32
	fireFn  func() // cached expiry body; re-arming must not allocate
}

// Chip is one LANai instance. It implements fabric.Device so a link can be
// cabled directly into its packet interface.
type Chip struct {
	eng  *sim.Engine
	cfg  Config
	name string

	// pages backs SRAM for the magic-word handshake, pageSize bytes per
	// entry, nil until a non-zero byte lands in it; protocol state is
	// modeled structurally in package mcp.
	pages []*page

	isr, imr uint32
	timers   [NumTimers]timer

	running bool
	hung    bool
	killed  bool // powered off for good (Kill); Start no-ops
	// epoch invalidates queued processor work across hangs and resets.
	epoch    uint64
	execFree sim.Time

	// Queued processor work. Exec completion times are nondecreasing (the
	// processor is a serial resource), so the queue is a FIFO ring drained
	// by a single engine event instead of one event + wrapper closure per
	// Exec call — the simulator's hottest allocation site.
	execQ        []execItem
	execHead     int
	execWake     *sim.Event
	execDraining bool
	execDrainFn  func() // cached; scheduling a drain must not allocate

	pci     *host.PCIBus
	dmaBusy bool
	dmaQ    []dmaReq
	dmaHead int
	// dmaDoneFn is the cached PCI completion callback; dmaEpochQ carries the
	// chip epoch at each transfer's issue so completions that straddle a
	// reset are recognized as stale (PCI completions arrive in issue order,
	// so a FIFO of epochs suffices). The epoch queue survives Reset — the
	// stale completions still pending on the bus must pop their entries.
	dmaDoneFn    func()
	dmaEpochQ    []uint64
	dmaEpochHead int

	att      *fabric.Attachment
	recvRing []*fabric.Packet
	recvHead int

	isrHandler  func(bit uint32)
	hostIntr    func(isr uint32)
	stats       Stats
	powerCycled bool

	// Speculation journaling (sim spec.go): one first-touch checkpoint covers
	// every register, timer, ring and counter above; SRAM words are journaled
	// individually (WriteWord undo records) and ClearSRAM journals the page
	// table it replaces.
	specMark uint64
	shadow   chipShadow
}

// chipShadow is the restore image for Chip.SpecSave/SpecRestore.
type chipShadow struct {
	isr, imr    uint32
	timers      [NumTimers]timerShadow
	running     bool
	hung        bool
	killed      bool
	powerCycled bool
	dmaBusy     bool
	epoch       uint64
	execFree    sim.Time
	stats       Stats
	execQ       []execItem
	execWake    *sim.Event
	dmaQ        []dmaReq
	dmaEpochQ   []uint64
	recvRing    []*fabric.Packet
}

type timerShadow struct {
	event   *sim.Event
	armedAt sim.Time
	ticks   uint32
}

// specTouch journals the chip into the current span on first touch; every
// mutating method calls it before its first write.
func (c *Chip) specTouch() { c.eng.SpecTouch(&c.specMark, c) }

// SpecSave / SpecRestore implement sim.SpecSaver: live-region copies of the
// processor, DMA and receive rings, rebuilt canonically (head 0) on
// rollback. Event handles are revived by the engine's own rollback, so
// re-pointing at saved handles is always safe.
func (c *Chip) SpecSave() {
	s := &c.shadow
	s.isr, s.imr = c.isr, c.imr
	for i := range c.timers {
		t := &c.timers[i]
		s.timers[i] = timerShadow{event: t.event, armedAt: t.armedAt, ticks: t.ticks}
	}
	s.running, s.hung, s.killed, s.powerCycled = c.running, c.hung, c.killed, c.powerCycled
	s.dmaBusy = c.dmaBusy
	s.epoch = c.epoch
	s.execFree = c.execFree
	s.stats = c.stats
	s.execQ = append(s.execQ[:0], c.execQ[c.execHead:]...)
	s.execWake = c.execWake
	s.dmaQ = append(s.dmaQ[:0], c.dmaQ[c.dmaHead:]...)
	s.dmaEpochQ = append(s.dmaEpochQ[:0], c.dmaEpochQ[c.dmaEpochHead:]...)
	s.recvRing = append(s.recvRing[:0], c.recvRing[c.recvHead:]...)
}

func (c *Chip) SpecRestore() {
	s := &c.shadow
	c.isr, c.imr = s.isr, s.imr
	for i := range c.timers {
		t := &c.timers[i]
		t.event, t.armedAt, t.ticks = s.timers[i].event, s.timers[i].armedAt, s.timers[i].ticks
	}
	c.running, c.hung, c.killed, c.powerCycled = s.running, s.hung, s.killed, s.powerCycled
	c.dmaBusy = s.dmaBusy
	c.epoch = s.epoch
	c.execFree = s.execFree
	c.stats = s.stats
	for i := len(s.execQ); i < len(c.execQ); i++ {
		c.execQ[i] = execItem{}
	}
	c.execQ = append(c.execQ[:0], s.execQ...)
	c.execHead = 0
	c.execWake = s.execWake
	c.execDraining = false
	for i := len(s.dmaQ); i < len(c.dmaQ); i++ {
		c.dmaQ[i] = dmaReq{}
	}
	c.dmaQ = append(c.dmaQ[:0], s.dmaQ...)
	c.dmaHead = 0
	for i := len(s.dmaEpochQ); i < len(c.dmaEpochQ); i++ {
		c.dmaEpochQ[i] = 0
	}
	c.dmaEpochQ = append(c.dmaEpochQ[:0], s.dmaEpochQ...)
	c.dmaEpochHead = 0
	for i := len(s.recvRing); i < len(c.recvRing); i++ {
		c.recvRing[i] = nil
	}
	c.recvRing = append(c.recvRing[:0], s.recvRing...)
	c.recvHead = 0
}

func sramUndoWrite(a, b any, v1, v2 uint64) {
	a.(*Chip).storeWord(uint32(v1), uint32(v2))
}

func sramUndoClear(a, b any, v1, v2 uint64) {
	a.(*Chip).pages = b.([]*page)
}

type dmaReq struct {
	bytes int
	done  func()
}

type execItem struct {
	at    sim.Time
	epoch uint64
	fn    func()
}

// New returns a powered chip with no control program running.
func New(eng *sim.Engine, name string, cfg Config, pci *host.PCIBus) *Chip {
	c := &Chip{
		eng:   eng,
		cfg:   cfg,
		name:  name,
		pages: make([]*page, (cfg.SRAMSize+pageSize-1)/pageSize),
		pci:   pci,
	}
	c.execDrainFn = c.drainExec
	c.dmaDoneFn = c.dmaComplete
	for i := range c.timers {
		t := &c.timers[i]
		bit := ISRTimer0 << uint(i)
		t.fireFn = func() {
			c.specTouch()
			t.event = nil
			c.RaiseISR(bit)
		}
	}
	return c
}

// Name implements fabric.Device.
func (c *Chip) Name() string { return c.name }

// Engine returns the simulation engine the chip runs on.
func (c *Chip) Engine() *sim.Engine { return c.eng }

// Stats returns the chip's counters.
func (c *Chip) Stats() Stats { return c.stats }

// Attach cables the packet interface to a link end.
func (c *Chip) Attach(a *fabric.Attachment) { c.att = a }

// Attachment returns the cabled link end, or nil.
func (c *Chip) Attachment() *fabric.Attachment { return c.att }

// SetISRHandler installs the control program's dispatch hook: it is invoked
// whenever an ISR bit is raised while the processor runs.
func (c *Chip) SetISRHandler(fn func(bit uint32)) { c.isrHandler = fn }

// SetHostInterrupt installs the driver's interrupt handler, invoked when a
// raised ISR bit is enabled in the IMR. This is the path the watchdog's
// FATAL interrupt takes to the host (§4.3).
func (c *Chip) SetHostInterrupt(fn func(isr uint32)) { c.hostIntr = fn }

// Running reports whether the processor is executing the control program.
func (c *Chip) Running() bool { return c.running }

// Hung reports whether the processor is hung.
func (c *Chip) Hung() bool { return c.hung }

// Start begins executing the control program (after LoadMCP / reset).
func (c *Chip) Start() {
	if c.killed {
		return
	}
	c.specTouch()
	c.running = true
	c.hung = false
	c.execFree = c.eng.Now()
}

// Kill permanently powers the card off: Start becomes a no-op, so no
// control program — not even one a watchdog reloads — can run again.
// Cluster shutdown uses this to drain in-flight traffic with the guarantee
// that nothing new is injected.
func (c *Chip) Kill() {
	c.specTouch()
	c.killed = true
	c.Reset()
}

// Hang models the paper's central failure: the processor stops executing
// instructions (crash or infinite loop). Timer and interrupt logic stay
// alive — the paper's watchdog assumption, which held for every hang in
// their experiments (§4.2). Queued handlers are invalidated.
func (c *Chip) Hang() {
	if !c.running {
		return
	}
	c.specTouch()
	c.running = false
	c.hung = true
	c.epoch++
	c.eng.Tracef(c.name, "processor hung")
}

// HardHang additionally kills the timer and interrupt logic: the fault
// propagated beyond the processor core, so the watchdog interrupt can never
// fire. Rare, and the reason the paper's detection assumption "cannot be
// proved correct".
func (c *Chip) HardHang() {
	c.specTouch()
	c.Hang()
	for i := range c.timers {
		if c.timers[i].event != nil {
			c.timers[i].event.Cancel()
			c.timers[i].event = nil
		}
	}
	c.imr = 0
}

// Reset models the card reset the FTD performs: the processor stops, ISR,
// IMR and timers clear, in-flight DMA and queued work are invalidated, and
// buffered packets are lost. SRAM contents are *not* cleared by the reset
// itself; the FTD clears SRAM and reloads the MCP explicitly (§4.3).
func (c *Chip) Reset() {
	c.specTouch()
	c.running = false
	c.hung = false
	c.epoch++
	c.isr = 0
	c.imr = 0
	for i := range c.timers {
		if c.timers[i].event != nil {
			c.timers[i].event.Cancel()
			c.timers[i].event = nil
		}
	}
	c.dmaBusy = false
	for i := range c.dmaQ {
		c.dmaQ[i] = dmaReq{}
	}
	c.dmaQ = c.dmaQ[:0]
	c.dmaHead = 0
	for i := c.recvHead; i < len(c.recvRing); i++ {
		c.recvRing[i].ReleaseSpec(c.eng)
		c.recvRing[i] = nil
	}
	c.recvRing = c.recvRing[:0]
	c.recvHead = 0
	c.flushExec()
	c.stats.Resets++
	c.eng.Tracef(c.name, "card reset")
}

// ClearSRAM zeroes local memory (FTD recovery step) by dropping every page.
func (c *Chip) ClearSRAM() {
	if c.eng.SpecActive() {
		// Rare path (FTD recovery): the undo record keeps the old page table
		// whole, so the clear starts a fresh one instead of zeroing it.
		c.eng.SpecUndo(sramUndoClear, c, c.pages, 0, 0)
		c.pages = make([]*page, len(c.pages))
		return
	}
	clear(c.pages)
}

// SRAMSize returns the modeled local memory size in bytes.
func (c *Chip) SRAMSize() int { return c.cfg.SRAMSize }

// sramResident returns how many bytes of SRAM are backed by allocated pages.
func (c *Chip) sramResident() int {
	n := 0
	for _, p := range c.pages {
		if p != nil {
			n += pageSize
		}
	}
	return n
}

// --- Registers ---

// RaiseISR sets an ISR bit, notifies the running control program, and
// raises a host interrupt if the bit is unmasked in the IMR.
func (c *Chip) RaiseISR(bit uint32) {
	c.specTouch()
	c.isr |= bit
	if c.running && c.isrHandler != nil {
		c.isrHandler(bit)
	}
	if c.imr&bit != 0 && c.hostIntr != nil {
		c.hostIntr(c.isr)
	}
}

// AckISR clears ISR bits.
func (c *Chip) AckISR(bits uint32) {
	c.specTouch()
	c.isr &^= bits
}

// IMR returns the interrupt mask register.
func (c *Chip) IMR() uint32 { return c.imr }

// SetIMR replaces the interrupt mask register.
func (c *Chip) SetIMR(v uint32) {
	c.specTouch()
	c.imr = v
}

// --- Interval timers ---

// SetTimer arms interval timer i to expire after ticks 0.5 µs ticks,
// replacing any previous deadline. Expiry raises the timer's ISR bit.
func (c *Chip) SetTimer(i int, ticks uint32) {
	c.specTouch()
	t := &c.timers[i]
	if t.event != nil {
		t.event.Cancel()
	}
	t.armedAt = c.eng.Now()
	t.ticks = ticks
	t.event = c.eng.AfterLabel(sim.Duration(ticks)*TimerTick, "timer", t.fireFn)
}

// stopTimer disarms interval timer i.
func (c *Chip) stopTimer(i int) {
	c.specTouch()
	if c.timers[i].event != nil {
		c.timers[i].event.Cancel()
		c.timers[i].event = nil
	}
}

// timerArmed reports whether timer i has a pending expiry.
func (c *Chip) timerArmed(i int) bool { return c.timers[i].event != nil }

// --- Processor ---

// Exec queues fn on the processor: it runs after the processor finishes all
// earlier work plus cost. Work queued before a hang or reset never runs.
// Exec on a stopped processor is dropped.
//
// Completion times are nondecreasing, so queued work lives in a FIFO ring
// serviced by one pending engine event; each item carries the epoch it was
// queued under, and the drain skips items from a superseded epoch (every
// running=true transition passes through Start after a Hang/Reset epoch
// bump, so the epoch check subsumes the running check).
func (c *Chip) Exec(cost sim.Duration, fn func()) {
	if !c.running {
		return
	}
	c.specTouch()
	start := c.eng.Now()
	if c.execFree > start {
		start = c.execFree
	}
	end := start + cost
	c.execFree = end
	c.stats.ExecBusy += cost
	c.execQ, c.execHead = sim.SlideFIFO(c.execQ, c.execHead)
	c.execQ = append(c.execQ, execItem{at: end, epoch: c.epoch, fn: fn})
	if c.execWake == nil && !c.execDraining {
		c.execWake = c.eng.AtLabel(end, "exec", c.execDrainFn)
	}
}

// drainExec runs every queued item that is due, then re-arms one wake event
// for the next pending item. Items pushed by a running handler are picked up
// in the same sweep when due now (the arming guard keeps them from
// scheduling duplicate wakes mid-drain).
func (c *Chip) drainExec() {
	// Touch before the transient flags flip, so the first-touch checkpoint
	// captures the quiescent between-callback shape.
	c.specTouch()
	c.execWake = nil
	c.execDraining = true
	now := c.eng.Now()
	for c.execHead < len(c.execQ) {
		it := &c.execQ[c.execHead]
		if it.at > now {
			break
		}
		fn, epoch := it.fn, it.epoch
		*it = execItem{}
		c.execHead++
		if epoch == c.epoch && c.running {
			fn()
		}
	}
	c.execDraining = false
	if c.execHead < len(c.execQ) {
		c.execWake = c.eng.AtLabel(c.execQ[c.execHead].at, "exec", c.execDrainFn)
	}
}

// flushExec discards all queued processor work (reset path).
func (c *Chip) flushExec() {
	for i := c.execHead; i < len(c.execQ); i++ {
		c.execQ[i] = execItem{}
	}
	c.execQ = c.execQ[:0]
	c.execHead = 0
	if c.execWake != nil {
		c.execWake.Cancel()
		c.execWake = nil
	}
}

// --- E-bus (host) DMA engine ---

// HostDMA queues a transfer of n bytes between host memory and SRAM on the
// single E-bus DMA engine. Transfers serialize on the engine and occupy the
// PCI bus; done runs at completion (and the ISRHostDMADone bit is raised).
// Send-side and receive-side traffic of one card contend here, which is the
// resource that caps the bidirectional bandwidth curve (Figure 7).
func (c *Chip) HostDMA(n int, done func()) {
	if !c.running {
		return
	}
	c.specTouch()
	c.dmaQ, c.dmaHead = sim.SlideFIFO(c.dmaQ, c.dmaHead)
	c.dmaQ = append(c.dmaQ, dmaReq{bytes: n, done: done})
	c.pumpDMA()
}

// pumpDMA issues the head request to the PCI bus. The request stays at the
// queue head until its completion fires; the cached dmaDoneFn pops it then,
// so issuing a transfer allocates nothing.
func (c *Chip) pumpDMA() {
	if c.dmaBusy || c.dmaHead == len(c.dmaQ) {
		return
	}
	req := &c.dmaQ[c.dmaHead]
	c.dmaBusy = true
	c.stats.HostDMAs++
	c.stats.HostDMABytes += uint64(req.bytes)
	c.dmaEpochQ, c.dmaEpochHead = sim.SlideFIFO(c.dmaEpochQ, c.dmaEpochHead)
	c.dmaEpochQ = append(c.dmaEpochQ, c.epoch)
	c.pci.Transfer(req.bytes, c.dmaDoneFn)
}

// dmaComplete is the shared PCI completion callback. A completion issued
// before a reset pops a stale epoch and is ignored; the reset already
// cleared the request queue it referred to.
func (c *Chip) dmaComplete() {
	c.specTouch()
	epoch := c.dmaEpochQ[c.dmaEpochHead]
	c.dmaEpochHead++
	if epoch != c.epoch {
		return
	}
	req := c.dmaQ[c.dmaHead]
	c.dmaQ[c.dmaHead] = dmaReq{}
	c.dmaHead++
	c.dmaBusy = false
	c.RaiseISR(ISRHostDMADone)
	if req.done != nil {
		req.done()
	}
	c.pumpDMA()
}

// --- Packet interface ---

// TransmitPacket injects a packet onto the cabled link.
func (c *Chip) TransmitPacket(pkt *fabric.Packet) {
	c.specTouch()
	if c.att == nil {
		pkt.ReleaseSpec(c.eng)
		return
	}
	c.stats.PacketsSent++
	c.att.Send(pkt)
}

// RecvPacket implements fabric.Device: an arriving packet lands in the
// packet interface's SRAM ring and raises ISRRecvPacket. With the processor
// down (hung or in reset) the ring is not serviced; arrivals are dropped,
// modeling the backpressured-then-timed-out fate of packets sent to a dead
// interface.
func (c *Chip) RecvPacket(pkt *fabric.Packet, on *fabric.Attachment) {
	c.specTouch()
	if !c.running || len(c.recvRing)-c.recvHead >= c.cfg.RecvRing {
		c.stats.PacketsDropped++
		pkt.ReleaseSpec(c.eng)
		return
	}
	c.stats.PacketsReceived++
	c.recvRing, c.recvHead = sim.SlideFIFO(c.recvRing, c.recvHead)
	c.recvRing = append(c.recvRing, pkt)
	c.RaiseISR(ISRRecvPacket)
}

// PopRecv removes and returns the oldest buffered packet, or nil.
func (c *Chip) PopRecv() *fabric.Packet {
	if c.recvHead == len(c.recvRing) {
		return nil
	}
	c.specTouch()
	pkt := c.recvRing[c.recvHead]
	c.recvRing[c.recvHead] = nil
	c.recvHead++
	return pkt
}

// recvPending reports how many packets wait in the ring.
func (c *Chip) recvPending() int { return len(c.recvRing) - c.recvHead }

// --- SRAM word access (magic word, ISA images) ---

// ReadWord reads a 32-bit little-endian SRAM word.
func (c *Chip) ReadWord(addr uint32) uint32 {
	if int(addr)+4 > c.cfg.SRAMSize {
		return 0
	}
	return uint32(c.loadByte(addr)) | uint32(c.loadByte(addr+1))<<8 |
		uint32(c.loadByte(addr+2))<<16 | uint32(c.loadByte(addr+3))<<24
}

// WriteWord writes a 32-bit little-endian SRAM word.
func (c *Chip) WriteWord(addr uint32, v uint32) {
	if int(addr)+4 > c.cfg.SRAMSize {
		return
	}
	c.eng.SpecUndo(sramUndoWrite, c, nil, uint64(addr), uint64(c.ReadWord(addr)))
	c.storeWord(addr, v)
}

func (c *Chip) storeWord(addr uint32, v uint32) {
	c.storeByte(addr, byte(v))
	c.storeByte(addr+1, byte(v>>8))
	c.storeByte(addr+2, byte(v>>16))
	c.storeByte(addr+3, byte(v>>24))
}

func (c *Chip) loadByte(addr uint32) byte {
	if p := c.pages[addr/pageSize]; p != nil {
		return p[addr%pageSize]
	}
	return 0
}

// storeByte allocates the byte's page on its first non-zero write.
func (c *Chip) storeByte(addr uint32, b byte) {
	p := c.pages[addr/pageSize]
	if p == nil {
		if b == 0 {
			return
		}
		p = new(page)
		c.pages[addr/pageSize] = p
	}
	p[addr%pageSize] = b
}
