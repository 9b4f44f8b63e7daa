package isa

import (
	"encoding/binary"
	"fmt"
)

// StopReason classifies why execution stopped. These map directly onto the
// failure categories of the paper's fault-injection study (Table 1): an
// undefined instruction or a memory violation crashes the network processor
// (local interface hang), an exhausted cycle budget is an infinite loop
// (also a hang), a jump through the reset vector restarts the MCP, and a
// clean HALT lets the harness inspect the outputs for corruption.
type StopReason int

// Stop reasons.
const (
	StopHalted StopReason = iota + 1
	StopInvalidOpcode
	StopUnalignedAccess
	StopOutOfRange
	StopBudgetExhausted
	StopResetVector
	StopMMIOFault
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopHalted:
		return "halted"
	case StopInvalidOpcode:
		return "invalid-opcode"
	case StopUnalignedAccess:
		return "unaligned-access"
	case StopOutOfRange:
		return "out-of-range-access"
	case StopBudgetExhausted:
		return "cycle-budget-exhausted"
	case StopResetVector:
		return "reset-vector"
	case StopMMIOFault:
		return "mmio-fault"
	default:
		return fmt.Sprintf("stop?%d", int(r))
	}
}

// MMIORegion is a memory-mapped device window. Loads and stores inside
// [Base, Base+Size) are routed to the handlers instead of SRAM. A handler
// returning ok=false raises an MMIO fault (the device rejected the access),
// which models stray writes wedging interface logic.
type MMIORegion struct {
	Name  string
	Base  uint32
	Size  uint32
	Read  func(addr uint32) (val uint32, ok bool)
	Write func(addr uint32, val uint32) (ok bool)
}

// Machine is an interpreter instance: a register file, a flat SRAM and a set
// of MMIO windows.
type Machine struct {
	Mem   []byte
	Regs  [32]uint32
	PC    uint32
	mmio  []MMIORegion
	Cycle uint64

	// ResetVector is the address treated as the MCP restart entry; jumping
	// to it stops execution with StopResetVector when TrapOnReset is set.
	// On the real card a wild branch through address 0 re-enters the
	// bootstrap.
	ResetVector uint32
	TrapOnReset bool
}

// NewMachine returns a machine with memSize bytes of SRAM, PC at 0 and all
// registers zero.
func NewMachine(memSize int) *Machine {
	return &Machine{Mem: make([]byte, memSize)}
}

// AddMMIO registers a device window. Windows must not overlap SRAM-resident
// code the program executes; instruction fetch always reads SRAM.
func (m *Machine) AddMMIO(r MMIORegion) { m.mmio = append(m.mmio, r) }

func (m *Machine) mmioAt(addr uint32) *MMIORegion {
	for i := range m.mmio {
		r := &m.mmio[i]
		if addr >= r.Base && addr < r.Base+r.Size {
			return r
		}
	}
	return nil
}

// loadWord reads a 32-bit little-endian word from SRAM (not MMIO).
func (m *Machine) loadWord(addr uint32) (uint32, bool) {
	if int(addr)+4 > len(m.Mem) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(m.Mem[addr:]), true
}

// StoreWord writes a 32-bit little-endian word to SRAM (not MMIO).
func (m *Machine) StoreWord(addr uint32, v uint32) bool {
	if int(addr)+4 > len(m.Mem) {
		return false
	}
	binary.LittleEndian.PutUint32(m.Mem[addr:], v)
	return true
}

func (m *Machine) load(addr uint32, size uint32) (uint32, StopReason) {
	if addr%size != 0 {
		return 0, StopUnalignedAccess
	}
	if r := m.mmioAt(addr); r != nil {
		v, ok := r.Read(addr)
		if !ok {
			return 0, StopMMIOFault
		}
		return v, 0
	}
	if int(addr)+int(size) > len(m.Mem) {
		return 0, StopOutOfRange
	}
	switch size {
	case 1:
		return uint32(m.Mem[addr]), 0
	case 2:
		return uint32(binary.LittleEndian.Uint16(m.Mem[addr:])), 0
	default:
		return binary.LittleEndian.Uint32(m.Mem[addr:]), 0
	}
}

func (m *Machine) store(addr uint32, v uint32, size uint32) StopReason {
	if addr%size != 0 {
		return StopUnalignedAccess
	}
	if r := m.mmioAt(addr); r != nil {
		if !r.Write(addr, v) {
			return StopMMIOFault
		}
		return 0
	}
	if int(addr)+int(size) > len(m.Mem) {
		return StopOutOfRange
	}
	switch size {
	case 1:
		m.Mem[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.Mem[addr:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(m.Mem[addr:], v)
	}
	return 0
}

// Step executes one instruction. It returns 0 while the machine can
// continue, or the reason it stopped.
func (m *Machine) Step() StopReason {
	if m.PC%4 != 0 {
		return StopUnalignedAccess
	}
	if m.TrapOnReset && m.Cycle > 0 && m.PC == m.ResetVector {
		return StopResetVector
	}
	raw, ok := m.loadWord(m.PC)
	if !ok {
		return StopOutOfRange
	}
	w := Word(raw)
	op := w.Op()
	next := m.PC + 4
	m.Cycle++

	// Strict decode: R-type (and HALT/NOP) encodings have reserved low
	// bits that must be zero; a set reserved bit is an undefined
	// instruction, as on real RISC cores. This matters to the fault
	// model: a bit flip landing in a reserved field traps instead of
	// being silently ignored.
	switch op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA, OpSLT, OpSLTU:
		if w&0x7ff != 0 {
			return StopInvalidOpcode
		}
	case OpNOP, OpHALT:
		if w&0x03ffffff != 0 {
			return StopInvalidOpcode
		}
	}

	rd, rs1, rs2 := w.Rd(), w.Rs1(), w.Rs2()
	a, b := m.Regs[rs1], m.Regs[rs2]
	imm := w.Imm16()

	set := func(r int, v uint32) {
		if r != 0 {
			m.Regs[r] = v
		}
	}

	switch op {
	case OpNOP:
		// nothing
	case OpADD:
		set(rd, a+b)
	case OpSUB:
		set(rd, a-b)
	case OpAND:
		set(rd, a&b)
	case OpOR:
		set(rd, a|b)
	case OpXOR:
		set(rd, a^b)
	case OpSLL:
		set(rd, a<<(b&31))
	case OpSRL:
		set(rd, a>>(b&31))
	case OpSRA:
		set(rd, uint32(int32(a)>>(b&31)))
	case OpSLT:
		if int32(a) < int32(b) {
			set(rd, 1)
		} else {
			set(rd, 0)
		}
	case OpSLTU:
		if a < b {
			set(rd, 1)
		} else {
			set(rd, 0)
		}
	case OpADDI:
		set(rd, a+uint32(imm))
	case OpANDI:
		set(rd, a&uint32(uint16(w)))
	case OpORI:
		set(rd, a|uint32(uint16(w)))
	case OpXORI:
		set(rd, a^uint32(uint16(w)))
	case OpSLLI:
		set(rd, a<<(uint32(imm)&31))
	case OpSRLI:
		set(rd, a>>(uint32(imm)&31))
	case OpSLTI:
		if int32(a) < imm {
			set(rd, 1)
		} else {
			set(rd, 0)
		}
	case OpLUI:
		set(rd, uint32(uint16(w))<<16)
	case OpLW:
		v, trap := m.load(a+uint32(imm), 4)
		if trap != 0 {
			return trap
		}
		set(rd, v)
	case OpLH:
		v, trap := m.load(a+uint32(imm), 2)
		if trap != 0 {
			return trap
		}
		set(rd, uint32(int32(int16(v))))
	case OpLB:
		v, trap := m.load(a+uint32(imm), 1)
		if trap != 0 {
			return trap
		}
		set(rd, uint32(int32(int8(v))))
	case OpSW:
		if trap := m.store(a+uint32(imm), m.Regs[rd], 4); trap != 0 {
			return trap
		}
	case OpSH:
		if trap := m.store(a+uint32(imm), m.Regs[rd], 2); trap != 0 {
			return trap
		}
	case OpSB:
		if trap := m.store(a+uint32(imm), m.Regs[rd], 1); trap != 0 {
			return trap
		}
	case OpBEQ:
		if m.Regs[rd] == a {
			next = m.PC + 4 + uint32(imm)*4
		}
	case OpBNE:
		if m.Regs[rd] != a {
			next = m.PC + 4 + uint32(imm)*4
		}
	case OpBLT:
		if int32(m.Regs[rd]) < int32(a) {
			next = m.PC + 4 + uint32(imm)*4
		}
	case OpBGE:
		if int32(m.Regs[rd]) >= int32(a) {
			next = m.PC + 4 + uint32(imm)*4
		}
	case OpJAL:
		set(rd, m.PC+4)
		next = m.PC + 4 + uint32(w.Imm21())*4
	case OpJALR:
		set(rd, m.PC+4)
		next = (a + uint32(imm)) &^ 3
	case OpHALT:
		return StopHalted
	default:
		return StopInvalidOpcode
	}
	m.PC = next
	return 0
}

// Run executes until the machine stops or budget instructions have retired.
// A zero trap return never happens: the result is always the terminal
// reason, with StopBudgetExhausted standing in for "still running" — which
// the fault harness interprets as a processor hang (infinite loop).
func (m *Machine) Run(budget uint64) StopReason {
	for i := uint64(0); i < budget; i++ {
		if r := m.Step(); r != 0 {
			return r
		}
	}
	return StopBudgetExhausted
}

// Snapshot returns a copy of SRAM for later comparison (golden-run diffing).
func (m *Machine) Snapshot() []byte {
	cp := make([]byte, len(m.Mem))
	copy(cp, m.Mem)
	return cp
}
