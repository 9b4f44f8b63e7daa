// Package isa implements a small 32-bit RISC instruction set standing in for
// the LANai processor core. The fault-injection campaign of the paper flips
// random bits in the machine code of the MCP's send_chunk routine and
// observes the outcome; to reproduce that experiment faithfully the
// simulator needs real machine code whose corruption has instruction-level
// consequences (invalid opcodes, wild branches, wrong stores), not a
// probability table. The package provides the encoding, a two-pass
// assembler, a disassembler and an interpreter with memory-mapped I/O hooks.
//
// The ISA is deliberately LANai-flavored: 32 general registers with r0
// hardwired to zero, fixed 32-bit instructions, word-addressed control flow,
// and a sparse opcode space so that roughly half of the single-bit
// corruptions of an opcode field yield an undefined instruction, as on real
// silicon.
package isa

import "fmt"

// Opcode identifies an instruction. Valid opcodes are assigned sparsely in
// the 6-bit opcode space: 30 of 64 encodings are defined, so bit flips in
// the opcode field frequently produce undefined instructions.
type Opcode uint8

// Instruction opcodes.
const (
	OpNOP Opcode = 0x00

	// Register-register ALU.
	OpADD  Opcode = 0x01
	OpSUB  Opcode = 0x02
	OpAND  Opcode = 0x03
	OpOR   Opcode = 0x04
	OpXOR  Opcode = 0x05
	OpSLL  Opcode = 0x06
	OpSRL  Opcode = 0x07
	OpSRA  Opcode = 0x08
	OpSLT  Opcode = 0x09
	OpSLTU Opcode = 0x0A

	// Register-immediate ALU.
	OpADDI Opcode = 0x10
	OpANDI Opcode = 0x11
	OpORI  Opcode = 0x12
	OpXORI Opcode = 0x13
	OpSLLI Opcode = 0x14
	OpSRLI Opcode = 0x15
	OpSLTI Opcode = 0x16
	OpLUI  Opcode = 0x17

	// Memory.
	OpLW Opcode = 0x20
	OpSW Opcode = 0x21
	OpLB Opcode = 0x22
	OpSB Opcode = 0x23
	OpLH Opcode = 0x24
	OpSH Opcode = 0x25

	// Control flow. Branch offsets are signed 16-bit word offsets relative
	// to the instruction after the branch.
	OpBEQ  Opcode = 0x28
	OpBNE  Opcode = 0x29
	OpBLT  Opcode = 0x2A
	OpBGE  Opcode = 0x2B
	OpJAL  Opcode = 0x30 // rd <- pc+4; pc += signed 21-bit word offset
	OpJALR Opcode = 0x31 // rd <- pc+4; pc = (rs1 + imm16) & ^3

	OpHALT Opcode = 0x3F
)

var opcodeNames = map[Opcode]string{
	OpNOP: "nop",
	OpADD: "add", OpSUB: "sub", OpAND: "and", OpOR: "or", OpXOR: "xor",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra", OpSLT: "slt", OpSLTU: "sltu",
	OpADDI: "addi", OpANDI: "andi", OpORI: "ori", OpXORI: "xori",
	OpSLLI: "slli", OpSRLI: "srli", OpSLTI: "slti", OpLUI: "lui",
	OpLW: "lw", OpSW: "sw", OpLB: "lb", OpSB: "sb", OpLH: "lh", OpSH: "sh",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpJAL: "jal", OpJALR: "jalr",
	OpHALT: "halt",
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool {
	_, ok := opcodeNames[op]
	return ok
}

// String returns the assembler mnemonic, or "op?xx" for undefined opcodes.
func (op Opcode) String() string {
	if s, ok := opcodeNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op?%02x", uint8(op))
}

// Instruction word layout:
//
//	[31:26] opcode
//	[25:21] rd
//	[20:16] rs1
//	R-type: [15:11] rs2, [10:0] zero
//	I-type: [15:0]  signed immediate
//	JAL:    [20:0]  signed word offset (rd in [25:21])
type Word uint32

// Field extraction helpers.

// Op returns the opcode field.
func (w Word) Op() Opcode { return Opcode(w >> 26) }

// Rd returns the destination register field.
func (w Word) Rd() int { return int(w >> 21 & 0x1f) }

// Rs1 returns the first source register field.
func (w Word) Rs1() int { return int(w >> 16 & 0x1f) }

// Rs2 returns the second source register field.
func (w Word) Rs2() int { return int(w >> 11 & 0x1f) }

// Imm16 returns the sign-extended 16-bit immediate.
func (w Word) Imm16() int32 { return int32(int16(w & 0xffff)) }

// Imm21 returns the sign-extended 21-bit jump offset (in words).
func (w Word) Imm21() int32 {
	v := int32(w & 0x1fffff)
	if v&0x100000 != 0 {
		v |= ^int32(0x1fffff)
	}
	return v
}

// EncodeR builds an R-type instruction word.
func EncodeR(op Opcode, rd, rs1, rs2 int) Word {
	return Word(op)<<26 | Word(rd&0x1f)<<21 | Word(rs1&0x1f)<<16 | Word(rs2&0x1f)<<11
}

// EncodeI builds an I-type instruction word.
func EncodeI(op Opcode, rd, rs1 int, imm int32) Word {
	return Word(op)<<26 | Word(rd&0x1f)<<21 | Word(rs1&0x1f)<<16 | Word(uint16(imm))
}

// EncodeJ builds a JAL instruction word with a signed word offset.
func EncodeJ(op Opcode, rd int, off int32) Word {
	return Word(op)<<26 | Word(rd&0x1f)<<21 | Word(uint32(off)&0x1fffff)
}

// listing disassembles the word range [lo, hi) of a memory image into
// "addr: word  mnemonic" lines, annotating addresses that carry symbols.
func listing(mem []byte, lo, hi uint32, symbols map[string]uint32) string {
	byAddr := make(map[uint32][]string)
	for name, addr := range symbols {
		byAddr[addr] = append(byAddr[addr], name)
	}
	for _, names := range byAddr {
		sortStrings(names)
	}
	var b []byte
	for addr := lo &^ 3; addr+4 <= hi && int(addr)+4 <= len(mem); addr += 4 {
		for _, name := range byAddr[addr] {
			b = append(b, fmt.Sprintf("%s:\n", name)...)
		}
		w := Word(uint32(mem[addr]) | uint32(mem[addr+1])<<8 |
			uint32(mem[addr+2])<<16 | uint32(mem[addr+3])<<24)
		b = append(b, fmt.Sprintf("  %06x: %08x  %s\n", addr, uint32(w), Disassemble(w))...)
	}
	return string(b)
}

func sortStrings(v []string) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

// Disassemble renders a single instruction word.
func Disassemble(w Word) string {
	op := w.Op()
	switch op {
	case OpNOP:
		if w == 0 {
			return "nop"
		}
		return fmt.Sprintf("nop ; nonzero fields %08x", uint32(w))
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA, OpSLT, OpSLTU:
		return fmt.Sprintf("%s r%d, r%d, r%d", op, w.Rd(), w.Rs1(), w.Rs2())
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSLTI:
		return fmt.Sprintf("%s r%d, r%d, %d", op, w.Rd(), w.Rs1(), w.Imm16())
	case OpLUI:
		return fmt.Sprintf("lui r%d, 0x%x", w.Rd(), uint16(w&0xffff))
	case OpLW, OpLB, OpLH:
		return fmt.Sprintf("%s r%d, %d(r%d)", op, w.Rd(), w.Imm16(), w.Rs1())
	case OpSW, OpSB, OpSH:
		return fmt.Sprintf("%s r%d, %d(r%d)", op, w.Rd(), w.Imm16(), w.Rs1())
	case OpBEQ, OpBNE, OpBLT, OpBGE:
		return fmt.Sprintf("%s r%d, r%d, %+d", op, w.Rd(), w.Rs1(), w.Imm16())
	case OpJAL:
		return fmt.Sprintf("jal r%d, %+d", w.Rd(), w.Imm21())
	case OpJALR:
		return fmt.Sprintf("jalr r%d, r%d, %d", w.Rd(), w.Rs1(), w.Imm16())
	case OpHALT:
		return "halt"
	default:
		return fmt.Sprintf(".word 0x%08x ; undefined opcode %s", uint32(w), op)
	}
}
