package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// SwitchConfig sets the forwarding characteristics of a crossbar switch.
type SwitchConfig struct {
	// Ports is the number of external ports (the M3M-SW8 of the paper has 8).
	Ports int
	// CutThrough is the head-of-packet forwarding latency: the time from
	// the route byte arriving to the packet emerging on the output port.
	CutThrough sim.Duration
}

// DefaultSwitchConfig models the M3M-SW8 8-port switch with the sub-µs
// cut-through latency Myrinet is known for.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{Ports: 8, CutThrough: 300 * sim.Nanosecond}
}

// SwitchStats counts switch-level events.
type SwitchStats struct {
	Forwarded     uint64
	DroppedNoPort uint64
	DroppedDead   uint64 // routed into a downed link or a dead port
}

// Switch is a source-routing crossbar: it consumes the packet's first route
// byte as the output port index and forwards after the cut-through latency.
type Switch struct {
	eng   *sim.Engine
	cfg   SwitchConfig
	name  string
	ports []*Attachment // nil where nothing is cabled
	dead  []bool        // per-port SerDes death (fault injection)
	stats SwitchStats

	// Packets waiting out the cut-through latency, in due order; one engine
	// event drains the due prefix (see RecvPacket).
	fwdQ        []swFwd
	fwdHead     int
	fwdWake     *sim.Event
	fwdDraining bool
	fwdDrainFn  func() // cached; arming a drain must not allocate

	// Speculation journaling (sim spec.go): first-touch checkpoint of the
	// forwarding ring and counters. dead is excluded — SetPortDead is
	// control-plane, and control code never runs with a span open.
	specMark uint64
	shadow   switchShadow
}

// switchShadow is the restore image for Switch.SpecSave/SpecRestore.
type switchShadow struct {
	stats SwitchStats
	fwdQ  []swFwd
	wake  *sim.Event
}

// SpecSave / SpecRestore implement sim.SpecSaver: live-region copy of the
// forwarding ring, rebuilt canonically (head 0) on rollback. Slot positions
// inside the array are unobservable, so the rebuild is bit-for-bit safe.
func (s *Switch) SpecSave() {
	s.shadow.stats = s.stats
	s.shadow.fwdQ = append(s.shadow.fwdQ[:0], s.fwdQ[s.fwdHead:]...)
	s.shadow.wake = s.fwdWake
}

func (s *Switch) SpecRestore() {
	s.stats = s.shadow.stats
	for i := len(s.shadow.fwdQ); i < len(s.fwdQ); i++ {
		s.fwdQ[i] = swFwd{}
	}
	s.fwdQ = append(s.fwdQ[:0], s.shadow.fwdQ...)
	s.fwdHead = 0
	s.fwdWake = s.shadow.wake
	s.fwdDraining = false
}

// NewSwitch creates a switch with cfg.Ports empty ports.
func NewSwitch(eng *sim.Engine, name string, cfg SwitchConfig) *Switch {
	s := &Switch{
		eng:   eng,
		cfg:   cfg,
		name:  name,
		ports: make([]*Attachment, cfg.Ports),
		dead:  make([]bool, cfg.Ports),
	}
	s.fwdDrainFn = s.drainForwards
	return s
}

// Name identifies the switch in traces.
func (s *Switch) Name() string { return s.name }

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Stats returns a snapshot of the forwarding counters (copy-out: audits
// compare counter sets and must not alias live state).
func (s *Switch) Stats() SwitchStats { return s.stats }

// SetPortDead kills or revives one port's SerDes: a dead port neither
// accepts nor emits packets, while the cabled link itself stays up (the
// failure is inside the crossbar, not on the cable).
func (s *Switch) SetPortDead(i int, dead bool) {
	if i >= 0 && i < len(s.dead) {
		s.dead[i] = dead
		s.eng.Tracef(s.name, "port %d dead=%v", i, dead)
	}
}

// PortDead reports whether port i is killed.
func (s *Switch) PortDead(i int) bool { return i >= 0 && i < len(s.dead) && s.dead[i] }

// AttachLink cables an end of l into port i. The attachment must belong to
// this switch (create the link with the switch as one of its devices).
func (s *Switch) AttachLink(i int, l *Link) error {
	if i < 0 || i >= len(s.ports) {
		return fmt.Errorf("fabric: switch %s has no port %d", s.name, i)
	}
	if s.ports[i] != nil {
		return fmt.Errorf("fabric: switch %s port %d already cabled", s.name, i)
	}
	end := l.EndFor(s)
	if end == nil {
		return fmt.Errorf("fabric: link %s has no end at switch %s", l.Name(), s.name)
	}
	s.ports[i] = end
	return nil
}

// PortLink returns the link cabled into port i, or nil.
func (s *Switch) PortLink(i int) *Link {
	if i < 0 || i >= len(s.ports) || s.ports[i] == nil {
		return nil
	}
	return s.ports[i].link
}

// PortFor reports which port the given attachment (an end of a link at this
// switch) is cabled into, or -1.
func (s *Switch) PortFor(a *Attachment) int {
	for i, p := range s.ports {
		if p == a {
			return i
		}
	}
	return -1
}

// RecvPacket implements Device: consume one route byte as a signed delta
// relative to the input port (Myrinet's relative addressing: the output
// port is input + delta, modulo the crossbar size), and forward out that
// port after the cut-through latency. Relative deltas make routes
// reversible — the reverse route is the negated deltas in reverse order —
// which the mapper's scout/reply protocol depends on. Packets with no route
// left, or a delta naming an empty or downed port, are dropped; Myrinet
// switches likewise discard packets routed into dead links, and it is the
// mapper's job to avoid such routes.
func (s *Switch) RecvPacket(pkt *Packet, on *Attachment) {
	s.eng.SpecTouch(&s.specMark, s)
	if len(pkt.Route) == 0 {
		s.stats.DroppedNoPort++
		if s.eng.TraceEnabled() {
			s.eng.Tracef(s.name, "drop %v: route exhausted at switch", pkt)
		}
		pkt.ReleaseSpec(s.eng)
		return
	}
	in := s.PortFor(on)
	if in < 0 {
		s.stats.DroppedNoPort++
		pkt.ReleaseSpec(s.eng)
		return
	}
	if s.dead[in] {
		s.stats.DroppedDead++
		if s.eng.TraceEnabled() {
			s.eng.Tracef(s.name, "drop %v: input port %d dead", pkt, in)
		}
		pkt.ReleaseSpec(s.eng)
		return
	}
	pkt.SpecTouch(s.eng)
	delta := int(int8(pkt.Route[0]))
	pkt.Route = pkt.Route[1:]
	out := (in + delta%len(s.ports) + len(s.ports)) % len(s.ports)
	if out >= len(s.ports) || s.ports[out] == nil {
		s.stats.DroppedNoPort++
		if s.eng.TraceEnabled() {
			s.eng.Tracef(s.name, "drop %v: no port %d", pkt, out)
		}
		pkt.ReleaseSpec(s.eng)
		return
	}
	if s.dead[out] {
		s.stats.DroppedDead++
		if s.eng.TraceEnabled() {
			s.eng.Tracef(s.name, "drop %v: port %d dead", pkt, out)
		}
		pkt.ReleaseSpec(s.eng)
		return
	}
	dst := s.ports[out]
	if !dst.link.Up() {
		s.stats.DroppedDead++
		if s.eng.TraceEnabled() {
			s.eng.Tracef(s.name, "drop %v: port %d link down", pkt, out)
		}
		pkt.ReleaseSpec(s.eng)
		return
	}
	s.stats.Forwarded++
	// Cut-through latency is constant, so pending forwards are due in FIFO
	// order; queue them in a ring drained by one engine event instead of a
	// closure-carrying event per packet.
	s.fwdQ, s.fwdHead = sim.SlideFIFO(s.fwdQ, s.fwdHead)
	s.fwdQ = append(s.fwdQ, swFwd{at: s.eng.Now() + s.cfg.CutThrough, dst: dst, pkt: pkt})
	if s.fwdWake == nil && !s.fwdDraining {
		s.fwdWake = s.eng.AtLabel(s.fwdQ[len(s.fwdQ)-1].at, "switch", s.fwdDrainFn)
	}
}

// drainForwards emits every due queued forward and re-arms a wake for the
// next pending one.
func (s *Switch) drainForwards() {
	// Touch before the transient flags flip, so the first-touch checkpoint
	// captures the quiescent between-callback shape.
	s.eng.SpecTouch(&s.specMark, s)
	s.fwdWake = nil
	s.fwdDraining = true
	now := s.eng.Now()
	for s.fwdHead < len(s.fwdQ) {
		f := &s.fwdQ[s.fwdHead]
		if f.at > now {
			break
		}
		dst, pkt := f.dst, f.pkt
		*f = swFwd{}
		s.fwdHead++
		dst.Send(pkt)
	}
	s.fwdDraining = false
	if s.fwdHead < len(s.fwdQ) {
		s.fwdWake = s.eng.AtLabel(s.fwdQ[s.fwdHead].at, "switch", s.fwdDrainFn)
	}
}

// swFwd is one packet waiting out the cut-through latency.
type swFwd struct {
	at  sim.Time
	dst *Attachment
	pkt *Packet
}
