package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustAssemble(t *testing.T, src string, origin uint32) *Program {
	t.Helper()
	p, err := Assemble(src, origin)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func loadProgram(p *Program, memSize int) *Machine {
	m := NewMachine(memSize)
	copy(m.Mem[p.Origin:], p.Image)
	m.PC = p.Origin
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	w := EncodeR(OpADD, 3, 4, 5)
	if w.Op() != OpADD || w.Rd() != 3 || w.Rs1() != 4 || w.Rs2() != 5 {
		t.Errorf("R-type round trip failed: %08x", uint32(w))
	}
	w = EncodeI(OpADDI, 1, 2, -7)
	if w.Op() != OpADDI || w.Rd() != 1 || w.Rs1() != 2 || w.Imm16() != -7 {
		t.Errorf("I-type round trip failed: %08x", uint32(w))
	}
	w = EncodeJ(OpJAL, 31, -100)
	if w.Op() != OpJAL || w.Rd() != 31 || w.Imm21() != -100 {
		t.Errorf("J-type round trip failed: %08x", uint32(w))
	}
}

func TestOpcodeSparsity(t *testing.T) {
	valid := 0
	for op := 0; op < 64; op++ {
		if Opcode(op).Valid() {
			valid++
		}
	}
	// The fault model depends on a sparse opcode space; keep roughly half
	// the encodings undefined.
	if valid < 20 || valid > 40 {
		t.Errorf("valid opcodes = %d, want 20..40", valid)
	}
}

func TestArithmeticProgram(t *testing.T) {
	p := mustAssemble(t, `
		start:
			addi r1, r0, 10
			addi r2, r0, 32
			add  r3, r1, r2   ; 42
			sub  r4, r2, r1   ; 22
			and  r5, r1, r2   ; 0
			or   r6, r1, r2   ; 42
			xor  r7, r3, r6   ; 0
			halt
	`, 0x100)
	m := loadProgram(p, 4096)
	if r := m.Run(100); r != StopHalted {
		t.Fatalf("stop = %v, want halted", r)
	}
	want := map[int]uint32{1: 10, 2: 32, 3: 42, 4: 22, 5: 0, 6: 42, 7: 0}
	for reg, v := range want {
		if m.Regs[reg] != v {
			t.Errorf("r%d = %d, want %d", reg, m.Regs[reg], v)
		}
	}
}

func TestShiftsAndCompares(t *testing.T) {
	p := mustAssemble(t, `
		addi r1, r0, 1
		slli r2, r1, 8      ; 256
		srli r3, r2, 4      ; 16
		addi r4, r0, -8
		sra  r5, r4, r1     ; -4
		slt  r6, r4, r1     ; 1 (signed)
		sltu r7, r4, r1     ; 0 (unsigned: big)
		slti r8, r4, 0      ; 1
		halt
	`, 0)
	m := loadProgram(p, 4096)
	if r := m.Run(100); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Regs[2] != 256 || m.Regs[3] != 16 {
		t.Errorf("shifts wrong: r2=%d r3=%d", m.Regs[2], m.Regs[3])
	}
	if int32(m.Regs[5]) != -4 {
		t.Errorf("sra wrong: %d", int32(m.Regs[5]))
	}
	if m.Regs[6] != 1 || m.Regs[7] != 0 || m.Regs[8] != 1 {
		t.Errorf("compares wrong: %d %d %d", m.Regs[6], m.Regs[7], m.Regs[8])
	}
}

func TestLoadsAndStores(t *testing.T) {
	p := mustAssemble(t, `
		li  r1, 0x200
		li  r2, 0x12345678
		sw  r2, 0(r1)
		lw  r3, 0(r1)
		lb  r4, 0(r1)    ; 0x78
		lb  r5, 3(r1)    ; 0x12
		lh  r6, 0(r1)    ; 0x5678
		sb  r4, 8(r1)
		lb  r7, 8(r1)
		sh  r6, 12(r1)
		lh  r8, 12(r1)
		halt
	`, 0)
	m := loadProgram(p, 4096)
	if r := m.Run(100); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Regs[3] != 0x12345678 {
		t.Errorf("lw = %08x", m.Regs[3])
	}
	if m.Regs[4] != 0x78 || m.Regs[5] != 0x12 {
		t.Errorf("lb = %x, %x", m.Regs[4], m.Regs[5])
	}
	if m.Regs[6] != 0x5678 || m.Regs[7] != 0x78 || m.Regs[8] != 0x5678 {
		t.Errorf("lh/sb/sh: %x %x %x", m.Regs[6], m.Regs[7], m.Regs[8])
	}
}

func TestSignExtensionOnLoads(t *testing.T) {
	p := mustAssemble(t, `
		li  r1, 0x200
		li  r2, 0xfff6
		sh  r2, 0(r1)
		lh  r3, 0(r1)    ; -10 sign extended
		li  r4, 0x80
		sb  r4, 4(r1)
		lb  r5, 4(r1)    ; -128 sign extended
		halt
	`, 0)
	m := loadProgram(p, 4096)
	if r := m.Run(100); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if int32(m.Regs[3]) != -10 {
		t.Errorf("lh sign extension: %d", int32(m.Regs[3]))
	}
	if int32(m.Regs[5]) != -128 {
		t.Errorf("lb sign extension: %d", int32(m.Regs[5]))
	}
}

func TestBranchLoop(t *testing.T) {
	p := mustAssemble(t, `
		; sum 1..10 into r2
		addi r1, r0, 10
		addi r2, r0, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, 0)
	m := loadProgram(p, 4096)
	if r := m.Run(1000); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[2])
	}
}

func TestCallRet(t *testing.T) {
	p := mustAssemble(t, `
		addi r1, r0, 5
		call double
		call double
		halt
	double:
		add  r1, r1, r1
		ret
	`, 0)
	m := loadProgram(p, 4096)
	if r := m.Run(100); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Regs[1] != 20 {
		t.Errorf("r1 = %d, want 20", m.Regs[1])
	}
}

func TestR0HardwiredZero(t *testing.T) {
	p := mustAssemble(t, `
		addi r0, r0, 99
		add  r1, r0, r0
		halt
	`, 0)
	m := loadProgram(p, 4096)
	m.Run(10)
	if m.Regs[0] != 0 || m.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d, want 0, 0", m.Regs[0], m.Regs[1])
	}
}

func TestTrapInvalidOpcode(t *testing.T) {
	m := NewMachine(4096)
	m.StoreWord(0, uint32(Word(0x3E)<<26)) // undefined opcode
	if r := m.Run(10); r != StopInvalidOpcode {
		t.Errorf("stop = %v, want invalid-opcode", r)
	}
}

func TestTrapOutOfRange(t *testing.T) {
	p := mustAssemble(t, `
		li r1, 0x7fff0000
		lw r2, 0(r1)
		halt
	`, 0)
	m := loadProgram(p, 4096)
	if r := m.Run(10); r != StopOutOfRange {
		t.Errorf("stop = %v, want out-of-range", r)
	}
}

func TestTrapUnaligned(t *testing.T) {
	p := mustAssemble(t, `
		addi r1, r0, 2
		lw   r2, 1(r1)
		halt
	`, 0)
	m := loadProgram(p, 4096)
	if r := m.Run(10); r != StopUnalignedAccess {
		t.Errorf("stop = %v, want unaligned", r)
	}
}

func TestTrapBudget(t *testing.T) {
	p := mustAssemble(t, `
	spin:
		j spin
	`, 0)
	m := loadProgram(p, 4096)
	if r := m.Run(100); r != StopBudgetExhausted {
		t.Errorf("stop = %v, want budget-exhausted", r)
	}
}

func TestResetVectorDetection(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x100
		j 0      ; wild jump back to the bootstrap
	`, 0x100)
	m := loadProgram(p, 4096)
	m.PC = 0x100
	m.ResetVector = 0
	m.TrapOnReset = true
	if r := m.Run(10); r != StopResetVector {
		t.Errorf("stop = %v, want reset-vector", r)
	}
}

func TestMMIOReadWrite(t *testing.T) {
	var stored uint32
	m := NewMachine(4096)
	m.AddMMIO(MMIORegion{
		Name: "dev", Base: 0x8000_0000, Size: 0x100,
		Read:  func(addr uint32) (uint32, bool) { return stored + 1, true },
		Write: func(addr uint32, v uint32) bool { stored = v; return true },
	})
	p := mustAssemble(t, `
		li r1, 0x80000000
		li r2, 41
		sw r2, 0(r1)
		lw r3, 4(r1)
		halt
	`, 0)
	copy(m.Mem, p.Image)
	if r := m.Run(20); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if stored != 41 || m.Regs[3] != 42 {
		t.Errorf("mmio: stored=%d r3=%d", stored, m.Regs[3])
	}
}

func TestMMIOFault(t *testing.T) {
	m := NewMachine(4096)
	m.AddMMIO(MMIORegion{
		Name: "strict", Base: 0x8000_0000, Size: 0x100,
		Read:  func(addr uint32) (uint32, bool) { return 0, false },
		Write: func(addr uint32, v uint32) bool { return false },
	})
	p := mustAssemble(t, `
		li r1, 0x80000000
		sw r0, 0(r1)
		halt
	`, 0)
	copy(m.Mem, p.Image)
	if r := m.Run(20); r != StopMMIOFault {
		t.Errorf("stop = %v, want mmio-fault", r)
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"add r1, r2",         // wrong arity
		"addi r1, r2, 99999", // imm out of range
		"lw r1, r2",          // bad memory operand
		"beq r1, r2, nowhere",
		"dup: nop\ndup: nop",
		"add r99, r1, r2",
	}
	for _, src := range cases {
		if _, err := Assemble(src, 0); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestAssemblerDirectives(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x10
		entry:
			nop
		.align 16
		tbl:
		.word 0xdeadbeef
		.space 8
		after:
			halt
	`, 0x10)
	if p.Symbols["entry"] != 0x10 {
		t.Errorf("entry = %#x", p.Symbols["entry"])
	}
	if p.Symbols["tbl"]%16 != 0 {
		t.Errorf("tbl not aligned: %#x", p.Symbols["tbl"])
	}
	if p.Symbols["after"] != p.Symbols["tbl"]+12 {
		t.Errorf("after = %#x, tbl = %#x", p.Symbols["after"], p.Symbols["tbl"])
	}
	m := loadProgram(p, 4096)
	w, _ := m.loadWord(p.Symbols["tbl"])
	if w != 0xdeadbeef {
		t.Errorf(".word = %08x", w)
	}
}

func TestSymbolRange(t *testing.T) {
	p := mustAssemble(t, `
	a:
		nop
		nop
	b:
		halt
	`, 0)
	lo, hi, err := p.SymbolRange("a", "b")
	if err != nil || lo != 0 || hi != 8 {
		t.Errorf("range = [%d,%d), err=%v", lo, hi, err)
	}
	if _, _, err := p.SymbolRange("a", "zzz"); err == nil {
		t.Error("missing symbol accepted")
	}
	if _, _, err := p.SymbolRange("b", "a"); err == nil {
		t.Error("reversed range accepted")
	}
}

func TestHiLoSelectors(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x0
			lui  r1, %hi(data)
			ori  r1, r1, %lo(data)
			lw   r2, 0(r1)
			halt
		.org 0x12340
		data:
		.word 7
	`, 0)
	m := loadProgram(p, 0x20000)
	if r := m.Run(10); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.Regs[2] != 7 {
		t.Errorf("r2 = %d, want 7", m.Regs[2])
	}
}

func TestDisassembleKnown(t *testing.T) {
	cases := []struct {
		w    Word
		want string
	}{
		{EncodeR(OpADD, 1, 2, 3), "add r1, r2, r3"},
		{EncodeI(OpADDI, 1, 2, -5), "addi r1, r2, -5"},
		{EncodeI(OpLW, 4, 5, 16), "lw r4, 16(r5)"},
		{EncodeJ(OpJAL, 31, 10), "jal r31, +10"},
		{EncodeR(OpHALT, 0, 0, 0), "halt"},
	}
	for _, c := range cases {
		if got := Disassemble(c.w); got != c.want {
			t.Errorf("Disassemble(%08x) = %q, want %q", uint32(c.w), got, c.want)
		}
	}
	if got := Disassemble(Word(0x3E) << 26); !strings.Contains(got, "undefined") {
		t.Errorf("undefined opcode disassembly = %q", got)
	}
}

// Property: assembling and disassembling every defined R/I-type opcode
// yields the mnemonic of that opcode.
func TestPropertyDisassembleMnemonic(t *testing.T) {
	for op, name := range opcodeNames {
		if op == OpNOP || op == OpHALT {
			continue
		}
		w := EncodeI(op, 1, 2, 4)
		if !strings.HasPrefix(Disassemble(w), name) {
			t.Errorf("Disassemble(%v) = %q, want prefix %q", op, Disassemble(w), name)
		}
	}
}

// Property: field extractors are consistent with the encoders for all
// register/immediate combinations.
func TestPropertyEncodeFields(t *testing.T) {
	f := func(rd, rs1, rs2 uint8, imm int16) bool {
		d, s1, s2 := int(rd%32), int(rs1%32), int(rs2%32)
		r := EncodeR(OpXOR, d, s1, s2)
		i := EncodeI(OpADDI, d, s1, int32(imm))
		return r.Rd() == d && r.Rs1() == s1 && r.Rs2() == s2 &&
			i.Rd() == d && i.Rs1() == s1 && i.Imm16() == int32(imm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the machine never panics on arbitrary instruction words; every
// word either executes or traps.
func TestPropertyNoPanicOnArbitraryCode(t *testing.T) {
	f := func(words []uint32) bool {
		m := NewMachine(1 << 16)
		for i, w := range words {
			if 4*i+4 > len(m.Mem) {
				break
			}
			m.StoreWord(uint32(4*i), w)
		}
		m.Run(2000)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestListing(t *testing.T) {
	p := mustAssemble(t, `
	entry:
		addi r1, r0, 5
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, 0x10)
	mem := make([]byte, 0x100)
	copy(mem[p.Origin:], p.Image)
	out := listing(mem, p.Origin, p.Origin+uint32(len(p.Image)), p.Symbols)
	for _, want := range []string{"entry:", "loop:", "addi r1, r0, 5", "halt", "000010:"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}
