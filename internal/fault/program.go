// Package fault reproduces the paper's fault-injection methodology
// (§2, Table 1): transient faults are simulated by flipping a random bit in
// the machine code of the MCP's send_chunk section while it handles a send,
// and the outcome of executing the corrupted code is classified into the
// paper's failure categories. The code under test is a real program — a
// send_chunk written in the LANai-flavored ISA of internal/isa, with the
// surrounding dispatch loop, MMIO-programmed DMA/packet-interface accesses,
// and the branchy non-executed paths (high-priority, fragmentation,
// alignment fixup, error handling) whose presence is what makes roughly
// half of all flips harmless for any particular message.
//
// The package also drives the system-level consequences in the full
// discrete-event cluster: an ISA outcome of "interface hung" becomes an
// injected LANai hang, "message corrupted" becomes a pre-CRC payload flip,
// and the recovery-effectiveness experiment (§5.2) replays a sample of the
// hangs the campaign finds against a live FTGM cluster and audits delivery
// (cmd/reproduce replays 10 of them; the paper replayed every one). Each
// replay injects a clean hang, not the flipped code itself.
package fault

import (
	"fmt"

	"repro/internal/isa"
)

// Memory map of the campaign machine.
const (
	// CodeOrigin is where the MCP image is assembled.
	CodeOrigin = 0x100
	// TokenAddr holds the send token the dispatch loop consumes.
	TokenAddr = 0x4000
	// TokenFlagAddr is the "send posted" doorbell word.
	TokenFlagAddr = 0x4100
	// BufAddr is the staged message payload (already SDMA'd into SRAM).
	BufAddr = 0x5000
	// RxFlagAddr is the "packet arrived" doorbell for the receive path.
	RxFlagAddr = 0x4104
	// RxPktAddr is where the packet interface deposited an arrived packet.
	RxPktAddr = 0x5C00
	// PktBufAddr is where send_chunk builds the outgoing packet.
	PktBufAddr = 0x6000
	// AckBufAddr is where recv_chunk builds the outgoing ACK.
	AckBufAddr = 0x6400
	// RouteTableAddr is the cached route table.
	RouteTableAddr = 0x7000

	// MMIODMABase is the E-bus DMA engine: +4 status (1 = idle).
	MMIODMABase = 0x8000_0000
	// MMIOPIBase is the packet interface: +0 data FIFO, +4 commit,
	// +8 status (1 = free).
	MMIOPIBase = 0x8000_0100
	// MMIOTimerBase is the interval-timer block: +0 IT0 reload.
	MMIOTimerBase = 0x8000_0300
	// MMIOHostBase is the E-bus window into host memory; only the event
	// slot at +0x100 is a legitimate target. Stray writes anywhere else in
	// the window corrupt host kernel memory (host crash).
	MMIOHostBase = 0x9000_0000
	// MMIOHostSize is the size of the host window.
	MMIOHostSize = 0x1_0000
	// HostEventOffset is the completion-event slot within the host window.
	HostEventOffset = 0x100
	// HostStatusOffset is the host-visible sent counter.
	HostStatusOffset = 0x200
	// HostDataOffset is the start of the pinned receive buffer within the
	// host window; recv_chunk DMAs arrived payloads here.
	HostDataOffset = 0x1000
	// HostDataSize is the size of the pinned receive buffer.
	HostDataSize = 0x1000

	// SRAMSize is the campaign machine's memory.
	SRAMSize = 1 << 16
)

// mcpSource is the control-program fragment under test. The section
// bracketed by send_chunk/send_chunk_end is the flip target, exactly as the
// paper selected the send_chunk section of GM's MCP. The message used by
// every trial is low-priority, short (no fragmentation) and word-aligned,
// so the high-priority, fragmentation, alignment-fixup and error paths are
// present in the section but never executed for the test send.
const mcpSource = `
; --- reset vector ------------------------------------------------------
        .org 0x0
        j start

; --- bootstrap + dispatch loop ------------------------------------------
        .org 0x100
start:
        li   sp, 0xF000          ; stack (unused by this fragment)
dispatch:
        li   r1, 0x4100          ; send token_flag
        lw   r2, 0(r1)
        beq  r2, r0, no_send     ; no send posted
        call send_chunk
        ; post the send-completion event into the host receive queue
        li   r3, 0x90000100
        li   r4, 0x600D
        sw   r4, 0(r3)
        j    dispatch            ; event-driven loop: re-check the doorbells
no_send:
        li   r1, 0x4104          ; receive doorbell
        lw   r2, 0(r1)
        beq  r2, r0, done        ; nothing arrived: idle
        call recv_chunk
        j    dispatch
done:
        ; re-arm the interval timer (L_timer housekeeping)
        li   r3, 0x80000300
        li   r4, 1400
        sw   r4, 0(r3)
        halt                     ; experiment end (the real loop never exits)

; --- send_chunk: the section under fault injection ----------------------
send_chunk:
        li   r10, 0x4000         ; token base
        lw   r11, 0(r10)         ; dest node
        lw   r12, 4(r10)         ; dest port
        lw   r13, 8(r10)         ; priority
        lw   r14, 12(r10)        ; sequence number
        lw   r15, 16(r10)        ; message length (bytes)
        lw   r16, 20(r10)        ; buffer pointer

        ; priority dispatch: high priority uses the other send queue
        addi r2, r0, 2
        beq  r13, r2, high_prio_path

        ; length check: > 4096 must be fragmented
        li   r2, 4096
        slt  r3, r2, r15
        bne  r3, r0, frag_path

        ; alignment check: unaligned buffers take the fixup path
        andi r2, r16, 3
        bne  r2, r0, align_fixup

chunk_common:
        ; wait for the E-bus DMA engine to finish staging the payload
        li   r9, 0x80000000
sdma_wait:
        lw   r2, 4(r9)
        beq  r2, r0, sdma_wait

        ; route lookup: route_table[dest]
        li   r2, 0x7000
        slli r3, r11, 2
        add  r2, r2, r3
        lw   r17, 0(r2)          ; packed route word

        ; build the packet header in pktbuf
        li   r18, 0x6000
        sw   r17, 0(r18)         ; route
        slli r2, r11, 16
        or   r2, r2, r12
        sw   r2, 4(r18)          ; dest<<16 | port
        slli r2, r13, 16
        or   r2, r2, r15
        sw   r2, 8(r18)          ; prio<<16 | len
        sw   r14, 12(r18)        ; sequence number

        ; copy payload into the packet and accumulate the checksum
        addi r19, r0, 0          ; checksum
        addi r20, r0, 0          ; offset
copy_loop:
        bge  r20, r15, copy_done
        add  r2, r16, r20
        lw   r3, 0(r2)
        add  r4, r18, r20
        sw   r3, 16(r4)
        add  r19, r19, r3
        addi r20, r20, 4
        j    copy_loop
copy_done:
        add  r2, r18, r20
        sw   r19, 16(r2)         ; checksum trailer

        ; stream the packet words into the packet-interface FIFO
        li   r21, 0x80000100     ; PI data register
pi_wait:
        lw   r2, 8(r21)          ; PI status: nonzero = interface free
        beq  r2, r0, pi_wait
        addi r20, r20, 20        ; total bytes = header 16 + payload + csum 4
        addi r22, r0, 0
pi_loop:
        bge  r22, r20, pi_done
        add  r2, r18, r22
        lw   r3, 0(r2)
        sw   r3, 0(r21)
        addi r22, r22, 4
        j    pi_loop
pi_done:
        addi r2, r0, 1
        sw   r2, 4(r21)          ; commit: inject onto the link
drain_wait:
        lw   r2, 8(r21)          ; wait for the FIFO to drain to the link
        beq  r2, r0, drain_wait

        ; bump the host-visible sent counter (E-bus write into the host's
        ; status page — address corruption here scribbles on host memory)
        li   r8, 0x90000200
        lw   r2, 0(r8)
        addi r2, r2, 1
        sw   r2, 0(r8)

        ; consume the doorbell
        li   r1, 0x4100
        sw   r0, 0(r1)
        ret

; --- paths not taken by the test message (flip mass, never executed) ----
high_prio_path:
        ; high-priority sends use their own packet staging area
        li   r2, 0x7200
        lw   r3, 0(r2)
        addi r3, r3, 1
        sw   r3, 0(r2)
        li   r18, 0x6800
        j    chunk_common

frag_path:
        ; fragment into 4 KB chunks; the remainder re-enters the common path
        li   r2, 4096
frag_loop:
        slt  r3, r15, r2
        bne  r3, r0, frag_tail
        sub  r15, r15, r2
        j    frag_loop
frag_tail:
        j    chunk_common

align_fixup:
        ; bounce the buffer to an aligned region one byte at a time
        li   r4, 0x5800
        addi r5, r0, 0
fix_loop:
        bge  r5, r15, fix_done
        add  r2, r16, r5
        lb   r3, 0(r2)
        add  r6, r4, r5
        sb   r3, 0(r6)
        addi r5, r5, 1
        j    fix_loop
fix_done:
        addi r16, r4, 0
        j    chunk_common

err_path:
        ; record the error code and give up on the send
        li   r2, 0x7500
        addi r3, r0, 0xEE
        sw   r3, 0(r2)
        ret
send_chunk_end:

; --- recv_chunk: the receive-path section (a second injection target) ---
; Arrived packet layout at 0x5C00: [0] route residue, [4] src<<16|port,
; [8] prio<<16|len, [12] seq, [16..] payload, [16+len] checksum.
recv_chunk:
        li   r10, 0x5C00         ; arrived packet
        lw   r11, 4(r10)         ; src<<16 | port
        lw   r12, 8(r10)         ; prio<<16 | len
        lw   r14, 12(r10)        ; sequence number

        ; split the fields
        srli r13, r12, 16        ; priority
        li   r2, 0xFFFF
        and  r15, r12, r2        ; length in bytes

        ; priority dispatch
        addi r2, r0, 2
        beq  r13, r2, rx_high_prio

        ; length sanity: longer than the pinned buffer is a protocol error
        li   r2, 4096
        slt  r3, r2, r15
        bne  r3, r0, rx_err

        ; verify the checksum over the payload
        addi r19, r0, 0
        addi r20, r0, 0
rx_csum_loop:
        bge  r20, r15, rx_csum_done
        add  r2, r10, r20
        lw   r3, 16(r2)
        add  r19, r19, r3
        addi r20, r20, 4
        j    rx_csum_loop
rx_csum_done:
        add  r2, r10, r20
        lw   r3, 16(r2)          ; stored checksum
        bne  r19, r3, rx_bad_csum

        ; sequence check against the per-stream ACK table
        li   r2, 0x7600
        srli r3, r11, 16         ; src node
        slli r3, r3, 2
        add  r2, r2, r3
        lw   r4, 0(r2)           ; last in-order seq
        addi r4, r4, 1
        bne  r14, r4, rx_out_of_order
        sw   r14, 0(r2)          ; commit the new sequence number

        ; wait for the E-bus engine, then DMA the payload to the pinned
        ; host buffer
        li   r9, 0x80000000
rx_dma_wait:
        lw   r2, 4(r9)
        beq  r2, r0, rx_dma_wait
        li   r21, 0x90001000     ; pinned host receive buffer
        addi r20, r0, 0
rx_copy_loop:
        bge  r20, r15, rx_copy_done
        add  r2, r10, r20
        lw   r3, 16(r2)
        add  r4, r21, r20
        sw   r3, 0(r4)
        addi r20, r20, 4
        j    rx_copy_loop
rx_copy_done:

        ; build and emit the ACK through the packet interface
        li   r18, 0x6400
        li   r2, 0x00AC0000
        or   r2, r2, r14         ; ACK tag | seq low bits
        sw   r2, 0(r18)
        sw   r11, 4(r18)         ; echo src<<16|port
        li   r22, 0x80000100
rx_pi_wait:
        lw   r2, 8(r22)
        beq  r2, r0, rx_pi_wait
        lw   r3, 0(r18)
        sw   r3, 0(r22)
        lw   r3, 4(r18)
        sw   r3, 0(r22)
        addi r2, r0, 1
        sw   r2, 4(r22)          ; commit the ACK

        ; post the receive event (with the sequence number, §4.1)
        li   r3, 0x90000100
        li   r4, 0x4ECD
        add  r4, r4, r14
        sw   r4, 0(r3)

        ; consume the receive doorbell
        li   r1, 0x4104
        sw   r0, 0(r1)
        ret

; --- receive paths not taken by the test packet (flip mass) -------------
rx_high_prio:
        ; high-priority packets use the second token pool
        li   r2, 0x7700
        lw   r3, 0(r2)
        addi r3, r3, 1
        sw   r3, 0(r2)
        li   r21, 0x90001800
        j    rx_err

rx_bad_csum:
        ; corrupted packet: count it and drop (the sender retransmits)
        li   r2, 0x7704
        lw   r3, 0(r2)
        addi r3, r3, 1
        sw   r3, 0(r2)
        li   r1, 0x4104
        sw   r0, 0(r1)
        ret

rx_out_of_order:
        ; NACK with the expected sequence number (Go-Back-N)
        li   r18, 0x6400
        li   r2, 0x00BAD000
        or   r2, r2, r4
        sw   r2, 0(r18)
        li   r22, 0x80000100
        lw   r3, 0(r18)
        sw   r3, 0(r22)
        addi r2, r0, 1
        sw   r2, 4(r22)
rx_err:
        li   r1, 0x4104
        sw   r0, 0(r1)
        ret
recv_chunk_end:
`

// Program returns the assembled campaign firmware.
func Program() (*isa.Program, error) {
	p, err := isa.Assemble(mcpSource, 0)
	if err != nil {
		return nil, fmt.Errorf("fault: assemble MCP fragment: %w", err)
	}
	return p, nil
}
