package fault_test

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fault"
	"repro/internal/isa"
)

// One Table 1 trial explained: find the first bit of send_chunk whose flip
// hangs the interface, then show the instruction word before and after the
// flip and how the corrupted firmware's execution ended.
func ExampleCampaign_RunTrial() {
	c, err := fault.NewCampaign(2003)
	if err != nil {
		panic(err)
	}
	prog, err := fault.Program()
	if err != nil {
		panic(err)
	}
	lo, _, err := prog.SymbolRange("send_chunk", "send_chunk_end")
	if err != nil {
		panic(err)
	}
	for bit := 0; bit < c.SectionBits(); bit++ {
		tr := c.RunTrial(bit)
		if tr.Outcome != fault.OutcomeLocalHang {
			continue
		}
		// send_chunk starts on a word boundary, so bit b of the section is
		// bit b%32 of its little-endian instruction word.
		word := (lo + uint32(bit/8)) &^ 3
		before := binary.LittleEndian.Uint32(prog.Image[word-prog.Origin:])
		after := before ^ 1<<(bit%32)
		fmt.Printf("flip bit %d of send_chunk: the word at %#x\n", bit, word)
		fmt.Printf("  before: %08x  %s\n", before, isa.Disassemble(isa.Word(before)))
		fmt.Printf("  after:  %08x  %s\n", after, isa.Disassemble(isa.Word(after)))
		fmt.Printf("  stopped: %v\n  outcome: %v\n", tr.Stop, tr.Outcome)
		break
	}
	// Output:
	// flip bit 0 of send_chunk: the word at 0x164
	//   before: 5d400000  lui r10, 0x0
	//   after:  5d400001  lui r10, 0x1
	//   stopped: out-of-range-access
	//   outcome: Local Interface Hung
}
