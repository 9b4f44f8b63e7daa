package gm

import "repro/internal/gmproto"

// PortEvent is an entry drained from a port's receive queue in polling
// mode — the direct analogue of the event union gm_receive() returns
// (Figure 3 of the paper). Applications handle the event types they care
// about and pass everything else to Port.Unknown, which is where the
// library hides fault recovery (§4.4).
type PortEvent struct {
	Type    gmproto.EventType
	Data    []byte
	Src     NodeID
	SrcPort PortID
	Seq     uint32
	Status  SendStatus
	TokenID uint64

	raw gmproto.Event
}

// EventType re-exports for switch statements.
const (
	EvReceived      = gmproto.EvReceived
	EvSent          = gmproto.EvSent
	EvSendError     = gmproto.EvSendError
	EvAlarm         = gmproto.EvAlarm
	EvNoRecvBuffer  = gmproto.EvNoRecvBuffer
	EvFaultDetected = gmproto.EvFaultDetected
)

// EnablePolling switches the port to GM's polling style: instead of
// invoking handlers, the library queues events; the application drains them
// with Receive (the gm_receive() loop of Figure 3) and must pass events it
// does not handle to Unknown — including FAULT_DETECTED, which is how
// recovery stays transparent without the application knowing what the
// event means.
//
// Token bookkeeping (shadow copies, sequence/ACK tables, flow-control
// credits) still happens at commit time, not at drain time, so a delayed
// poll never widens the fault windows.
func (p *Port) EnablePolling() {
	p.specTouch()
	p.polling = true
}

// Pending reports how many events wait in the receive queue.
func (p *Port) Pending() int { return len(p.pollQueue) }

// Receive drains the oldest event from the port's receive queue, in the
// manner of gm_receive(). ok is false when the queue is empty. Receive on
// a non-polling port always reports false (events went to the handlers).
func (p *Port) Receive() (ev PortEvent, ok bool) {
	if !p.polling || len(p.pollQueue) == 0 {
		return PortEvent{}, false
	}
	p.specTouch()
	p.node.cpu.SpecTouch(p.node.eng)
	raw := p.pollQueue[0]
	p.pollQueue = p.pollQueue[1:]
	p.node.cpu.Charge(p.node.cluster.cfg.Host.RecvOverhead / 4) // poll cost
	return PortEvent{
		Type:    raw.Type,
		Data:    raw.Data,
		Src:     raw.Src,
		SrcPort: raw.SrcPort,
		Seq:     raw.Seq,
		Status:  raw.Status,
		TokenID: raw.TokenID,
		raw:     raw,
	}, true
}

// UnknownEvent is the polling-mode gm_unknown(): applications pass every
// event they do not recognize here, and the library handles it "in a
// default manner" (§3.1) — which for FAULT_DETECTED means running the full
// §4.4 recovery sequence.
func (p *Port) UnknownEvent(ev PortEvent) {
	p.Unknown(ev.raw)
}

// enqueuePoll routes an event into the polling queue after the commit-time
// bookkeeping has been done by mcpSink.
func (p *Port) enqueuePoll(ev gmproto.Event) {
	p.specTouch()
	p.pollQueue = append(p.pollQueue, ev)
}
