package fault

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// Outcome is a Table 1 failure category.
type Outcome int

// Failure categories, matching Table 1 of the paper.
const (
	OutcomeNoImpact Outcome = iota + 1
	OutcomeLocalHang
	OutcomeCorrupted
	OutcomeRemoteHang
	OutcomeMCPRestart
	OutcomeHostCrash
	OutcomeOther
)

// String names the category with the paper's wording.
func (o Outcome) String() string {
	switch o {
	case OutcomeNoImpact:
		return "No Impact"
	case OutcomeLocalHang:
		return "Local Interface Hung"
	case OutcomeCorrupted:
		return "Messages Corrupted"
	case OutcomeRemoteHang:
		return "Remote Interface Hung"
	case OutcomeMCPRestart:
		return "MCP Restart"
	case OutcomeHostCrash:
		return "Host Computer Crash"
	case OutcomeOther:
		return "Other Errors"
	default:
		return fmt.Sprintf("Outcome?%d", int(o))
	}
}

// Outcomes lists the categories in Table 1's row order.
func Outcomes() []Outcome {
	return []Outcome{
		OutcomeLocalHang, OutcomeCorrupted, OutcomeRemoteHang,
		OutcomeMCPRestart, OutcomeHostCrash, OutcomeOther, OutcomeNoImpact,
	}
}

// Section selects the MCP code region under injection. The paper flipped
// bits in send_chunk and noted "these results could be different if fault
// injection is carried out on some other section of the code" (§2); the
// receive path is provided as that comparison.
type Section int

// Injection targets.
const (
	SectionSend Section = iota + 1
	SectionRecv
)

// String names the section.
func (s Section) String() string {
	switch s {
	case SectionSend:
		return "send_chunk"
	case SectionRecv:
		return "recv_chunk"
	default:
		return fmt.Sprintf("section?%d", int(s))
	}
}

func (s Section) symbols() (string, string) {
	if s == SectionRecv {
		return "recv_chunk", "recv_chunk_end"
	}
	return "send_chunk", "send_chunk_end"
}

// Trial is one injection's result.
type Trial struct {
	Bit     int // absolute bit index within the section
	Stop    isa.StopReason
	Outcome Outcome
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Runs   int
	Counts map[Outcome]int
	Trials []Trial
}

// Percent reports a category's share of all runs.
func (r *CampaignResult) Percent(o Outcome) float64 {
	if r.Runs == 0 {
		return 0
	}
	return 100 * float64(r.Counts[o]) / float64(r.Runs)
}

// The fixed workload every trial runs: low priority, 64 bytes, aligned —
// the paper likewise drove a fixed communication pattern while injecting.
const (
	testMsgLen   = 64
	testDest     = 3
	testDestPort = 2
	testPrio     = 1
	testSeq      = 0x2A
	testSrc      = 5 // incoming packet's source node (recv section)
)

// rig is one prepared campaign machine with its device state.
type rig struct {
	m *isa.Machine

	packet     []uint32 // words streamed into the packet interface
	committed  bool
	hostEvent  uint32
	hostStatus uint32
	hostData   []byte // the pinned receive buffer in host memory
	hostCrash  bool
	timerSet   bool
}

func buildRig(p *isa.Program, section Section) *rig {
	r := &rig{hostData: make([]byte, HostDataSize)}
	m := isa.NewMachine(SRAMSize)
	copy(m.Mem[p.Origin:], p.Image)
	m.PC = 0
	m.ResetVector = 0
	m.TrapOnReset = true

	for n := 0; n < 8; n++ {
		m.StoreWord(uint32(RouteTableAddr+4*n), uint32(0x40+n))
	}

	switch section {
	case SectionRecv:
		// An arrived, checksummed 64-byte packet plus the doorbell.
		m.StoreWord(RxPktAddr+0, 0)
		m.StoreWord(RxPktAddr+4, testSrc<<16|testDestPort)
		m.StoreWord(RxPktAddr+8, testPrio<<16|testMsgLen)
		m.StoreWord(RxPktAddr+12, testSeq)
		csum := uint32(0)
		for i := 0; i < testMsgLen; i += 4 {
			w := uint32(0xCAFE_0000 + i)
			m.StoreWord(uint32(RxPktAddr+16+i), w)
			csum += w
		}
		m.StoreWord(RxPktAddr+16+testMsgLen, csum)
		m.StoreWord(RxFlagAddr, 1)
		// Per-stream ACK table: expecting exactly testSeq next.
		m.StoreWord(0x7600+4*testSrc, testSeq-1)
	default:
		// A posted send token plus its doorbell and staged payload.
		m.StoreWord(TokenAddr+0, testDest)
		m.StoreWord(TokenAddr+4, testDestPort)
		m.StoreWord(TokenAddr+8, testPrio)
		m.StoreWord(TokenAddr+12, testSeq)
		m.StoreWord(TokenAddr+16, testMsgLen)
		m.StoreWord(TokenAddr+20, BufAddr)
		m.StoreWord(TokenFlagAddr, 1)
		for i := 0; i < testMsgLen; i += 4 {
			m.StoreWord(uint32(BufAddr+i), uint32(0xD0D0_0000+i))
		}
	}

	m.AddMMIO(isa.MMIORegion{
		Name: "ebus-dma", Base: MMIODMABase, Size: 0x100,
		// Status reads as "idle/complete"; control writes are accepted.
		Read:  func(addr uint32) (uint32, bool) { return 1, true },
		Write: func(addr uint32, v uint32) bool { return true },
	})
	m.AddMMIO(isa.MMIORegion{
		Name: "packet-interface", Base: MMIOPIBase, Size: 0x100,
		Read: func(addr uint32) (uint32, bool) { return 1, true },
		Write: func(addr uint32, v uint32) bool {
			switch addr - MMIOPIBase {
			case 0:
				if len(r.packet) > 4096 {
					return false // FIFO overrun wedges the interface
				}
				r.packet = append(r.packet, v)
			case 4:
				r.committed = true
			default:
				return false
			}
			return true
		},
	})
	m.AddMMIO(isa.MMIORegion{
		Name: "timers", Base: MMIOTimerBase, Size: 0x100,
		Read: func(addr uint32) (uint32, bool) { return 0, true },
		Write: func(addr uint32, v uint32) bool {
			r.timerSet = true
			return true
		},
	})
	m.AddMMIO(isa.MMIORegion{
		Name: "host-window", Base: MMIOHostBase, Size: MMIOHostSize,
		Read: func(addr uint32) (uint32, bool) {
			off := addr - MMIOHostBase
			switch {
			case off == HostStatusOffset:
				return r.hostStatus, true
			case off >= HostDataOffset && off < HostDataOffset+HostDataSize:
				return binary.LittleEndian.Uint32(r.hostData[off-HostDataOffset:]), true
			}
			return 0, true
		},
		Write: func(addr uint32, v uint32) bool {
			off := addr - MMIOHostBase
			switch {
			case off == HostEventOffset:
				r.hostEvent = v
			case off == HostStatusOffset:
				r.hostStatus = v
			case off >= HostDataOffset && off+4 <= HostDataOffset+HostDataSize:
				binary.LittleEndian.PutUint32(r.hostData[off-HostDataOffset:], v)
			default:
				// A stray DMA/store into host memory corrupts the kernel:
				// this is how interface faults propagate to host crashes.
				r.hostCrash = true
			}
			return true
		},
	})
	r.m = m
	return r
}

// reset returns the rig to the given pre-execution SRAM image, making it
// reusable across trials without reallocating the machine or the pinned
// host memory. The MMIO handlers installed by buildRig close over the rig
// itself, so clearing the mutable fields is sufficient.
func (r *rig) reset(pristine []byte) {
	copy(r.m.Mem, pristine)
	r.m.Regs = [32]uint32{}
	r.m.PC = 0
	r.m.Cycle = 0
	r.packet = r.packet[:0]
	r.committed = false
	r.hostEvent = 0
	r.hostStatus = 0
	for i := range r.hostData {
		r.hostData[i] = 0
	}
	r.hostCrash = false
	r.timerSet = false
}

// Campaign runs the Table 1 experiment: single-bit flips uniformly
// distributed over one MCP section, each against an isolated machine state.
// Run and Exhaustive fan trials out across GOMAXPROCS workers; results are
// bit-for-bit identical at any worker count (see RunWorkers). A Campaign's
// methods must not be invoked concurrently with each other — the campaign
// parallelizes internally.
type Campaign struct {
	prog      *isa.Program
	section   Section
	sectionLo uint32
	sectionHi uint32

	goldenPkt      []uint32
	goldenHostData []byte
	goldenEvent    uint32
	goldenMem      []byte
	// pristine is the SRAM image before execution: the reset state rigs are
	// rewound to between trials.
	pristine []byte

	rng        *sim.RNG
	execBudget uint64
}

// NewCampaign assembles the firmware and verifies the golden send run (the
// paper's configuration).
func NewCampaign(seed uint64) (*Campaign, error) {
	return NewSectionCampaign(SectionSend, seed)
}

// NewSectionCampaign targets an arbitrary section.
func NewSectionCampaign(section Section, seed uint64) (*Campaign, error) {
	prog, err := Program()
	if err != nil {
		return nil, err
	}
	lo, hi, err := prog.SymbolRange(section.symbols())
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		prog:       prog,
		section:    section,
		sectionLo:  lo,
		sectionHi:  hi,
		rng:        sim.NewRNG(seed),
		execBudget: 100000,
	}
	golden := buildRig(prog, section)
	c.pristine = golden.m.Snapshot()
	stop := golden.m.Run(c.execBudget)
	if stop != isa.StopHalted {
		return nil, fmt.Errorf("fault: golden %v run stopped with %v", section, stop)
	}
	if err := c.checkGoldenDevices(golden); err != nil {
		return nil, err
	}
	c.goldenPkt = append([]uint32(nil), golden.packet...)
	c.goldenHostData = append([]byte(nil), golden.hostData...)
	c.goldenEvent = golden.hostEvent
	c.goldenMem = golden.m.Snapshot()
	return c, nil
}

func (c *Campaign) checkGoldenDevices(golden *rig) error {
	bad := func() error {
		return fmt.Errorf("fault: golden %v device state wrong: %s", c.section, deviceState(golden))
	}
	if !golden.committed || golden.hostCrash || !golden.timerSet {
		return bad()
	}
	switch c.section {
	case SectionRecv:
		if golden.hostEvent != 0x4ECD+testSeq || len(golden.packet) != 2 {
			return bad()
		}
		for i := 0; i < testMsgLen; i += 4 {
			if binary.LittleEndian.Uint32(golden.hostData[i:]) != uint32(0xCAFE_0000+i) {
				return bad()
			}
		}
	default:
		if golden.hostEvent != 0x600D || golden.hostStatus != 1 || len(golden.packet) != 21 {
			return bad()
		}
	}
	return nil
}

func deviceState(r *rig) string {
	return fmt.Sprintf("committed=%v crash=%v event=%#x timer=%v pkt=%d words",
		r.committed, r.hostCrash, r.hostEvent, r.timerSet, len(r.packet))
}

// Section reports the injection target.
func (c *Campaign) Section() Section { return c.section }

// SectionBits reports the size of the flip target in bits.
func (c *Campaign) SectionBits() int { return int(c.sectionHi-c.sectionLo) * 8 }

// RunTrial executes one injection at the given bit offset within the
// section.
func (c *Campaign) RunTrial(bit int) Trial {
	return c.runTrialIn(buildRig(c.prog, c.section), bit)
}

// runTrialIn executes one injection on a reusable rig, rewinding it to the
// pristine image first. Trials are pure functions of the bit position, so
// workers can run them in any order on any rig.
func (c *Campaign) runTrialIn(r *rig, bit int) Trial {
	r.reset(c.pristine)
	addr := c.sectionLo + uint32(bit/8)
	r.m.Mem[addr] ^= 1 << (bit % 8)
	stop := r.m.Run(c.execBudget)
	return Trial{Bit: bit, Stop: stop, Outcome: c.classify(r, stop)}
}

// classify maps an execution result onto the paper's categories.
func (c *Campaign) classify(r *rig, stop isa.StopReason) Outcome {
	// Stray writes into host memory take priority: whatever else happened,
	// the host kernel is now corrupt.
	if r.hostCrash {
		return OutcomeHostCrash
	}
	switch stop {
	case isa.StopInvalidOpcode, isa.StopUnalignedAccess, isa.StopOutOfRange, isa.StopMMIOFault:
		// The network processor took an exception and stopped: the
		// interface is hung from the host's point of view.
		return OutcomeLocalHang
	case isa.StopBudgetExhausted:
		// Infinite loop: "the LANai ... entered into an infinite loop,
		// causing it to stop responding" (§2).
		return OutcomeLocalHang
	case isa.StopResetVector:
		return OutcomeMCPRestart
	case isa.StopHalted:
		// The firmware completed; inspect what it did.
		if !c.outputsMatch(r) {
			if !r.committed && len(r.packet) == 0 && c.hostDataMatches(r) {
				// Nothing emitted and nothing else visible: the operation
				// was silently skipped — the reliability layer surfaces
				// this as a timeout, not a corruption.
				return OutcomeOther
			}
			return OutcomeCorrupted
		}
		if !c.eventsMatch(r) {
			return OutcomeOther
		}
		if !c.architecturalStateClean(r) {
			return OutcomeOther
		}
		return OutcomeNoImpact
	default:
		return OutcomeOther
	}
}

// outputsMatch compares the externally visible data products: the emitted
// packet(s) and, for the receive path, the bytes landed in host memory.
func (c *Campaign) outputsMatch(r *rig) bool {
	if !r.committed || len(r.packet) != len(c.goldenPkt) {
		return false
	}
	for i := range r.packet {
		if r.packet[i] != c.goldenPkt[i] {
			return false
		}
	}
	return c.hostDataMatches(r)
}

func (c *Campaign) hostDataMatches(r *rig) bool {
	for i := range r.hostData {
		if r.hostData[i] != c.goldenHostData[i] {
			return false
		}
	}
	return true
}

func (c *Campaign) eventsMatch(r *rig) bool {
	if r.hostEvent != c.goldenEvent || !r.timerSet {
		return false
	}
	if c.section == SectionSend && r.hostStatus != 1 {
		return false
	}
	return true
}

// architecturalStateClean compares the data regions the next operation
// depends on against the golden final state; corrupted firmware that
// scribbled on them completed this operation but poisoned the next one.
func (c *Campaign) architecturalStateClean(r *rig) bool {
	regions := []struct{ lo, hi uint32 }{
		{TokenAddr, TokenAddr + 0x40},
		{TokenFlagAddr, TokenFlagAddr + 8}, // send + recv doorbells
		{RouteTableAddr, RouteTableAddr + 0x40},
		{BufAddr, BufAddr + testMsgLen},
		{0x7600, 0x7640}, // per-stream ACK table
	}
	for _, reg := range regions {
		for a := reg.lo; a < reg.hi; a += 4 {
			got := binary.LittleEndian.Uint32(r.m.Mem[a:])
			want := binary.LittleEndian.Uint32(c.goldenMem[a:])
			if got != want {
				return false
			}
		}
	}
	return true
}

// Run executes n trials at uniformly random bit positions (the paper's
// protocol: "a fault was injected at a random bit location in this section
// while it was handling some network communication"), fanned out across
// GOMAXPROCS workers.
func (c *Campaign) Run(n int) CampaignResult { return c.RunWorkers(n, 0) }

// RunWorkers is Run with an explicit worker count (0 selects GOMAXPROCS).
//
// Determinism contract: each Run call first advances the campaign's seed
// stream by one draw to obtain a nonce, and trial i then flips the bit drawn
// from sim.DeriveRNG(nonce, i). Results are therefore a pure function of
// (campaign seed, Run-call sequence, n) — bit-for-bit identical between a
// serial and a parallel run and across any worker count — while successive
// Run calls on the same campaign still sample fresh positions.
func (c *Campaign) RunWorkers(n, workers int) CampaignResult {
	nonce := c.rng.Uint64()
	bits := c.SectionBits()
	trials, _ := parallel.MapWorker(n, workers,
		func(int) (*rig, error) { return buildRig(c.prog, c.section), nil },
		func(r *rig, i int) (Trial, error) {
			return c.runTrialIn(r, sim.DeriveRNG(nonce, uint64(i)).Intn(bits)), nil
		})
	return c.collect(trials)
}

// Exhaustive flips every bit of the section exactly once (beyond the
// paper: a complete census instead of a 1000-run sample), fanned out across
// GOMAXPROCS workers.
func (c *Campaign) Exhaustive() CampaignResult { return c.exhaustiveWorkers(0) }

// exhaustiveWorkers is Exhaustive with an explicit worker count (0 selects
// GOMAXPROCS). Trial i flips bit i; no randomness is involved, so the census
// is identical at any worker count.
func (c *Campaign) exhaustiveWorkers(workers int) CampaignResult {
	trials, _ := parallel.MapWorker(c.SectionBits(), workers,
		func(int) (*rig, error) { return buildRig(c.prog, c.section), nil },
		func(r *rig, bit int) (Trial, error) { return c.runTrialIn(r, bit), nil })
	return c.collect(trials)
}

// collect aggregates ordered trials into a CampaignResult.
func (c *Campaign) collect(trials []Trial) CampaignResult {
	res := CampaignResult{Runs: len(trials), Counts: make(map[Outcome]int), Trials: trials}
	for _, tr := range trials {
		res.Counts[tr.Outcome]++
	}
	return res
}
