package host

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// PageSize is the host page size used for pinning (4 KB, as on the paper's
// IA-32 Linux hosts).
const PageSize = 4096

// DMAHandle names a pinned page on the I/O bus: the address the LANai's DMA
// engine uses.
type DMAHandle uint64

// errors exposed for matching.
var (
	ErrNotPinned     = errors.New("host: address not pinned")
	ErrAlreadyPinned = errors.New("host: page already pinned")
)

// PageEntry maps one pinned virtual page of one port to its DMA address.
type PageEntry struct {
	Port  int
	VPage uint64
	DMA   DMAHandle
}

type pageKey struct {
	port  int
	vpage uint64
}

// PageTable is the page hash table of §4.3: it tracks the virtual-to-DMA
// mappings for every pinned page of every port. It lives in host memory (it
// is "big"), the MCP caches entries, and the FTD re-registers it with the
// LANai during recovery.
type PageTable struct {
	entries map[pageKey]PageEntry
	nextDMA DMAHandle

	// Speculation journaling (sim spec.go). Pin/unpin traffic is port
	// open/close and recovery — rare relative to spans — so a whole-map
	// first-touch copy is cheaper than per-entry records would be worth.
	specMark   uint64
	shadow     map[pageKey]PageEntry
	shadowNext DMAHandle
}

// SpecTouch journals the table into eng's current span on first touch. Call
// before Pin/PinRange/UnpinPort from speculating domain code.
func (t *PageTable) SpecTouch(eng *sim.Engine) { eng.SpecTouch(&t.specMark, t) }

// SpecSave / SpecRestore implement sim.SpecSaver.
func (t *PageTable) SpecSave() {
	if t.shadow == nil {
		t.shadow = make(map[pageKey]PageEntry, len(t.entries))
	} else {
		clear(t.shadow)
	}
	for k, v := range t.entries {
		t.shadow[k] = v
	}
	t.shadowNext = t.nextDMA
}

func (t *PageTable) SpecRestore() {
	clear(t.entries)
	for k, v := range t.shadow {
		t.entries[k] = v
	}
	t.nextDMA = t.shadowNext
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable {
	return &PageTable{entries: make(map[pageKey]PageEntry), nextDMA: 0x1000}
}

// pin registers the page containing vaddr for the given port and returns
// its DMA handle. Pinning an already pinned page fails.
func (t *PageTable) pin(port int, vaddr uint64) (DMAHandle, error) {
	k := pageKey{port, vaddr / PageSize}
	if _, ok := t.entries[k]; ok {
		return 0, fmt.Errorf("%w: port %d page %#x", ErrAlreadyPinned, port, k.vpage)
	}
	h := t.nextDMA
	t.nextDMA += PageSize
	t.entries[k] = PageEntry{Port: port, VPage: k.vpage, DMA: h}
	return h, nil
}

// PinRange pins every page overlapping [vaddr, vaddr+size). Pages already
// pinned by the same port are left in place.
func (t *PageTable) PinRange(port int, vaddr, size uint64) error {
	if size == 0 {
		return nil
	}
	for p := vaddr / PageSize; p <= (vaddr+size-1)/PageSize; p++ {
		k := pageKey{port, p}
		if _, ok := t.entries[k]; ok {
			continue
		}
		if _, err := t.pin(port, p*PageSize); err != nil {
			return err
		}
	}
	return nil
}

// lookup translates a virtual address of a port to its DMA handle.
func (t *PageTable) lookup(port int, vaddr uint64) (DMAHandle, error) {
	k := pageKey{port, vaddr / PageSize}
	e, ok := t.entries[k]
	if !ok {
		return 0, fmt.Errorf("%w: port %d vaddr %#x", ErrNotPinned, port, vaddr)
	}
	return e.DMA + DMAHandle(vaddr%PageSize), nil
}

// UnpinPort releases every page of a port (port close).
func (t *PageTable) UnpinPort(port int) int {
	n := 0
	for k := range t.entries {
		if k.port == port {
			delete(t.entries, k)
			n++
		}
	}
	return n
}

// Len reports how many pages are pinned in total.
func (t *PageTable) Len() int { return len(t.entries) }
