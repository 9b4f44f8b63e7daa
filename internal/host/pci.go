// Package host models the host side of a Myrinet node: the PCI bus the
// interface card sits on, the pinned (DMAable) memory pages user processes
// exchange messages through, the page hash table mapping virtual addresses
// to DMA addresses, and host-CPU time accounting. The paper's platform is a
// Pentium III with a 33 MHz PCI bus; the host-CPU utilization rows of
// Table 2 and the PCI component of the latency budget come from this layer.
package host

import (
	"fmt"

	"repro/internal/sim"
)

// PCIConfig sets the bus model parameters.
type PCIConfig struct {
	// BytesPerSec is the burst data rate (33 MHz x 64-bit = 264e6).
	BytesPerSec float64
	// TxnOverhead is the fixed cost per DMA transaction: arbitration,
	// address phase, and DMA-engine programming.
	TxnOverhead sim.Duration
}

// DefaultPCIConfig matches the paper's 33 MHz, 64-bit PCI slot. The raw
// burst rate is 264 MB/s; sustained DMA achieves less because of wait
// states and arbitration, and 200 MB/s sustained (plus the per-transaction
// overhead) reproduces the paper's measured ~92 MB/s bidirectional
// asymptote (Figure 7): each 4 KB fragment costs ~22 µs on the bus, and a
// node moving traffic both ways pays it twice per 4 KB exchanged.
func DefaultPCIConfig() PCIConfig {
	return PCIConfig{
		BytesPerSec: 195e6,
		TxnOverhead: 1000 * sim.Nanosecond,
	}
}

// PCIStats counts bus activity.
type PCIStats struct {
	Transactions uint64
	Bytes        uint64
	Busy         sim.Duration
}

// PCIBus serializes DMA transactions between host memory and the interface
// card. The LANai has a single E-bus DMA engine, so send-side and
// receive-side transfers of one card contend here — this contention is what
// bends the bidirectional bandwidth curve of Figure 7 below the link rate.
type PCIBus struct {
	eng      *sim.Engine
	cfg      PCIConfig
	name     string
	nextFree sim.Time
	stats    PCIStats

	// Pending completions in finish order (transactions serialize, so
	// finish times are nondecreasing); one engine event drains the due
	// prefix instead of one event per transaction.
	doneQ        []pciDone
	doneHead     int
	doneWake     *sim.Event
	doneDraining bool
	drainFn      func() // cached; arming a drain must not allocate

	// Speculation journaling (sim spec.go): first-touch checkpoint of the
	// serialization cursor, counters and completion ring.
	specMark uint64
	shadow   pciShadow
}

// pciShadow is the restore image for PCIBus.SpecSave/SpecRestore.
type pciShadow struct {
	nextFree sim.Time
	stats    PCIStats
	doneQ    []pciDone
	wake     *sim.Event
}

// SpecSave / SpecRestore implement sim.SpecSaver: live-region copy of the
// completion ring, rebuilt canonically (head 0) on rollback.
func (b *PCIBus) SpecSave() {
	b.shadow.nextFree = b.nextFree
	b.shadow.stats = b.stats
	b.shadow.doneQ = append(b.shadow.doneQ[:0], b.doneQ[b.doneHead:]...)
	b.shadow.wake = b.doneWake
}

func (b *PCIBus) SpecRestore() {
	b.nextFree = b.shadow.nextFree
	b.stats = b.shadow.stats
	for i := len(b.shadow.doneQ); i < len(b.doneQ); i++ {
		b.doneQ[i] = pciDone{}
	}
	b.doneQ = append(b.doneQ[:0], b.shadow.doneQ...)
	b.doneHead = 0
	b.doneWake = b.shadow.wake
	b.doneDraining = false
}

// pciDone is one pending transfer completion.
type pciDone struct {
	at sim.Time
	fn func()
}

// NewPCIBus returns a bus attached to the engine.
func NewPCIBus(eng *sim.Engine, name string, cfg PCIConfig) *PCIBus {
	b := &PCIBus{eng: eng, cfg: cfg, name: name}
	b.drainFn = b.drainDone
	return b
}

// Name identifies the bus in traces.
func (b *PCIBus) Name() string { return b.name }

// Stats returns the activity counters.
func (b *PCIBus) Stats() PCIStats { return b.stats }

// transferTime reports how long a transaction of n bytes occupies the bus.
func (b *PCIBus) transferTime(n int) sim.Duration {
	return b.cfg.TxnOverhead + sim.Duration(float64(n)/b.cfg.BytesPerSec*float64(sim.Second))
}

// Transfer queues a DMA of n bytes and calls done when it completes. The
// transaction serializes behind earlier ones; the returned time is when the
// transfer will finish.
func (b *PCIBus) Transfer(n int, done func()) sim.Time {
	b.eng.SpecTouch(&b.specMark, b)
	start := b.eng.Now()
	if b.nextFree > start {
		start = b.nextFree
	}
	dur := b.transferTime(n)
	end := start + dur
	b.nextFree = end
	b.stats.Transactions++
	b.stats.Bytes += uint64(n)
	b.stats.Busy += dur
	if done != nil {
		b.doneQ, b.doneHead = sim.SlideFIFO(b.doneQ, b.doneHead)
		b.doneQ = append(b.doneQ, pciDone{at: end, fn: done})
		if b.doneWake == nil && !b.doneDraining {
			b.doneWake = b.eng.AtLabel(end, "pci", b.drainFn)
		}
	}
	return end
}

// drainDone runs every due completion and re-arms a wake for the next
// pending one.
func (b *PCIBus) drainDone() {
	// Touch before the transient flags flip, so the first-touch checkpoint
	// captures the quiescent between-callback shape.
	b.eng.SpecTouch(&b.specMark, b)
	b.doneWake = nil
	b.doneDraining = true
	now := b.eng.Now()
	for b.doneHead < len(b.doneQ) {
		d := &b.doneQ[b.doneHead]
		if d.at > now {
			break
		}
		fn := d.fn
		*d = pciDone{}
		b.doneHead++
		fn()
	}
	b.doneDraining = false
	if b.doneHead < len(b.doneQ) {
		b.doneWake = b.eng.AtLabel(b.doneQ[b.doneHead].at, "pci", b.drainFn)
	}
}

// Utilization reports the bus busy fraction since simulation start.
func (b *PCIBus) Utilization() float64 {
	now := b.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(b.stats.Busy) / float64(now)
}

// String summarizes the bus state.
func (b *PCIBus) String() string {
	return fmt.Sprintf("pci(%s: %d txns, %d bytes)", b.name, b.stats.Transactions, b.stats.Bytes)
}
