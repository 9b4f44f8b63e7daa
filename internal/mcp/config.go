// Package mcp implements the Myrinet Control Program: the event-driven
// firmware that runs on the LANai and provides GM's reliable, ordered,
// OS-bypass messaging (§2, §3.1 of the paper). It covers the send path
// (token fetch, fragmentation into ≤4 KB packets, host→SRAM DMA, injection),
// the receive path (CRC and sequence checking, reassembly, SRAM→host DMA,
// event posting), per-stream Go-Back-N with ACK/NACK, the L_timer() routine,
// and the FTGM modifications: host-supplied per-(port,destination) sequence
// numbers, the delayed ACK commit point, the watchdog timer, and the state
// restoration entry points used during fault recovery (§4).
package mcp

import "repro/internal/sim"

// Mode selects the protocol variant.
type Mode int

// Protocol variants.
const (
	// ModeGM is stock GM-1.5.1 behavior: MCP-generated per-connection
	// sequence numbers and an ACK sent as soon as the message has fully
	// arrived in LANai SRAM (before the DMA to the user buffer).
	ModeGM Mode = iota + 1
	// ModeFTGM is the paper's modified MCP: host-generated per-(port,dest)
	// sequence streams, per-(connection,port) ACK tables, the ACK delayed
	// until the message is DMA-complete in the user's buffer, and the IT1
	// software watchdog armed.
	ModeFTGM
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeGM:
		return "GM"
	case ModeFTGM:
		return "FTGM"
	default:
		return "mode?"
	}
}

// Config holds the MCP's timing and protocol parameters. The defaults are
// calibrated against the paper's published constants (Table 2, §4.2, §5.1);
// see DESIGN.md §5.
type Config struct {
	// SendProcA is LANai processing per outgoing fragment before the host
	// DMA (token decode, DMA programming).
	SendProcA sim.Duration
	// SendProcB is LANai processing per outgoing fragment after the DMA
	// (header build, route prepend, packet-interface programming) —
	// send_chunk in the real MCP.
	SendProcB sim.Duration
	// RecvProcA is LANai processing per arriving fragment (CRC and
	// sequence check, buffer match, DMA programming).
	RecvProcA sim.Duration
	// RecvProcB is LANai processing per completed message (receive-queue
	// event build).
	RecvProcB sim.Duration
	// AckProc is LANai processing to emit or absorb an ACK/NACK.
	AckProc sim.Duration
	// FTGMSendExtra/FTGMRecvExtra are the additional LANai costs of FTGM:
	// consuming host-supplied sequence numbers on the send side, and the
	// per-(connection,port) ACK-table plus delayed-ACK bookkeeping on the
	// receive side. Together they move LANai occupancy from 6.0 to 6.8 µs
	// per message (Table 2).
	FTGMSendExtra sim.Duration
	FTGMRecvExtra sim.Duration

	// EventBytes is the size of one receive-queue event record DMAed to
	// host memory.
	EventBytes int

	// LTimerTicks is the IT0 interval in 0.5 µs ticks. GM re-arms IT0 at
	// the end of every L_timer() invocation; the worst-case observed gap
	// between invocations is ~800 µs (§4.2).
	LTimerTicks uint32
	// LTimerProc is the execution cost of L_timer().
	LTimerProc sim.Duration
	// WatchdogTicks is the IT1 interval in ticks, "slightly greater than
	// 800 µs" (§4.2). Only armed in ModeFTGM.
	WatchdogTicks uint32

	// RtxTimeout is the Go-Back-N retransmission timeout per stream.
	RtxTimeout sim.Duration
	// NetFaultThreshold is the number of consecutive timeout-retransmit
	// rounds of one stream with no ACK/NACK heard before the MCP raises a
	// NET_FAULT_SUSPECTED report to the host (a likely dead path, as opposed
	// to ordinary loss, which produces control traffic). 0 disables path
	// health reporting.
	NetFaultThreshold int
	// WindowSize is the maximum number of unacknowledged messages per
	// stream.
	WindowSize int
	// MaxMsgSize bounds a message; headers announcing more are treated as
	// corrupt and dropped.
	MaxMsgSize uint32

	// ImmediateAck is an ablation switch: in FTGM mode, send the ACK at
	// message arrival (stock GM's commit point) instead of after the DMA
	// completes. It re-opens the Figure 5 loss window and exists to
	// measure what the delayed commit point costs (DESIGN.md §6).
	ImmediateAck bool
}

// DefaultConfig returns the calibrated parameters.
func DefaultConfig() Config {
	return Config{
		SendProcA:         1500 * sim.Nanosecond,
		SendProcB:         1500 * sim.Nanosecond,
		RecvProcA:         2000 * sim.Nanosecond,
		RecvProcB:         1000 * sim.Nanosecond,
		AckProc:           300 * sim.Nanosecond,
		FTGMSendExtra:     400 * sim.Nanosecond,
		FTGMRecvExtra:     400 * sim.Nanosecond,
		EventBytes:        64,
		LTimerTicks:       1400, // 700 µs; serialization stretches gaps toward 800 µs
		LTimerProc:        2 * sim.Microsecond,
		WatchdogTicks:     2000, // 1000 µs, slightly above the 800 µs worst case
		RtxTimeout:        10 * sim.Millisecond,
		NetFaultThreshold: 3,
		WindowSize:        16,
		MaxMsgSize:        16 << 20,
	}
}

// Stats counts MCP-level protocol activity.
type Stats struct {
	MsgsSent         uint64 // messages fully transmitted (first time)
	MsgsDelivered    uint64 // messages committed to the host
	MsgsAcked        uint64 // send tokens completed by an ACK
	FragmentsSent    uint64
	FragmentsRecvd   uint64
	AcksSent         uint64
	NacksSent        uint64
	Retransmits      uint64 // messages retransmitted (timeout or NACK)
	CorruptDropped   uint64 // CRC failures
	BadHeaderDrops   uint64 // undecodable or insane headers; fragments out of step with their reassembly
	DupDropped       uint64 // duplicate messages discarded (re-ACKed)
	OutOfOrderNack   uint64
	DirectedDeposits uint64 // directed sends landed in registered memory
	NoBufferDrops    uint64 // no receive token available
	MisroutedDrops   uint64
	ClosedPortDrops  uint64
	LTimerRuns       uint64
	// NetFaultSuspicions counts path-health reports raised to the host:
	// streams that hit NetFaultThreshold consecutive silent timeout rounds.
	NetFaultSuspicions uint64
	// UnreachableFails counts sends terminally failed because their
	// destination was declared unreachable.
	UnreachableFails uint64
}
