package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Device is anything a link end can attach to: a switch or a host
// interface's packet interface.
type Device interface {
	// Name identifies the device in traces.
	Name() string
	// RecvPacket delivers a packet that finished arriving on the given
	// attachment.
	RecvPacket(pkt *Packet, on *Attachment)
}

// LinkConfig sets the physical characteristics of a link.
type LinkConfig struct {
	// BytesPerSec is the serialization rate per direction
	// (2 Gb/s Myrinet = 250e6).
	BytesPerSec float64
	// PropDelay is the signal propagation delay of the cable.
	PropDelay sim.Duration
}

// DefaultLinkConfig matches the paper's 2 Gb/s Myrinet links with a short
// machine-room cable.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{BytesPerSec: 250e6, PropDelay: 100 * sim.Nanosecond}
}

// Attachment is one end of a link, the handle a device transmits on.
type Attachment struct {
	link *Link
	end  int
	dev  Device
}

// Device returns the device attached at this end.
func (a *Attachment) Device() Device { return a.dev }

// Peer returns the attachment at the other end of the link.
func (a *Attachment) Peer() *Attachment { return &a.link.ends[1-a.end] }

// Link returns the link this attachment belongs to.
func (a *Attachment) Link() *Link { return a.link }

// Send transmits a packet toward the peer device. Transmission serializes
// behind earlier packets in the same direction (the Myrinet stop/go
// backpressure collapses to FIFO occupancy at packet granularity) and the
// packet is delivered after serialization plus propagation. Packets sent on
// a downed link are silently dropped, as on a cut cable; an installed fault
// profile can additionally drop or corrupt packets in flight.
func (a *Attachment) Send(pkt *Packet) {
	l := a.link
	eng := l.engs[a.end]
	eng.SpecTouch(&l.tx[a.end].mark, &l.tx[a.end])
	if !l.cross {
		// One engine owns both sides of an intra-domain link, so the send
		// path below writes the receiver-owned delivery ring directly.
		eng.SpecTouch(&l.rx[a.end].mark, &l.rx[a.end])
	}
	if !l.up {
		l.stats[a.end].Dropped++
		pkt.ReleaseSpec(eng)
		return
	}
	start := eng.Now()
	if l.nextFree[a.end] > start {
		start = l.nextFree[a.end]
	}
	ser := sim.Duration(float64(pkt.WireSize()) / l.cfg.BytesPerSec * float64(sim.Second))
	l.nextFree[a.end] = start + ser
	st := &l.stats[a.end]
	st.Packets++
	st.Bytes += uint64(pkt.WireSize())
	st.Busy += ser
	if l.faultRNG[a.end] != nil {
		if l.faults.DropProb > 0 && l.faultRNG[a.end].Float64() < l.faults.DropProb {
			// A lossy cable or marginal SerDes eats the packet mid-flight;
			// the sender's Go-Back-N is what recovers it.
			st.Dropped++
			st.FaultDropped++
			eng.Tracef(l.name, "fault drop %v", pkt)
			pkt.ReleaseSpec(eng)
			return
		}
		if l.faults.CorruptProb > 0 && l.faultRNG[a.end].Float64() < l.faults.CorruptProb {
			bit := l.faultRNG[a.end].Intn(8 * maxInt(pkt.contentLen(), 1))
			if l.faults.CorruptPreSeal {
				// The damage predates the CRC seal (e.g. an upset in the
				// staging SRAM): reseal so the link-level check passes and
				// the corruption travels on undetected (Table 1 "Messages
				// Corrupted").
				pkt.SpecCorruptPayload(eng, bit, true)
			} else {
				// Wire-level bit flip on the sealed packet: the receiver's
				// CRC check catches and drops it.
				pkt.SpecCorruptPayload(eng, bit, false)
			}
			st.Corrupted++
			eng.Tracef(l.name, "fault corrupt %v bit %d", pkt, bit)
		}
	}
	end := a.end
	at := start + ser + l.cfg.PropDelay
	if l.cross {
		// The peer device lives in another event domain: park the packet in
		// this direction's outbox and mark the boundary dirty. The
		// coordinator moves the outbox into the receiver's delivery ring at
		// the next window barrier — which is always in time, because the
		// window span never exceeds PropDelay (the lookahead this link
		// registered), and at >= start + PropDelay > window end.
		l.xq[end] = append(l.xq[end], delivery{at: at, pkt: pkt})
		if !l.xnoted[end] {
			l.xnoted[end] = true
			eng.NoteBoundary(&l.xb[end])
		}
		return
	}
	// Delivery times per direction are nondecreasing (FIFO serialization plus
	// a constant propagation delay), so in-flight packets wait in a ring
	// drained by a single pending engine event per direction rather than one
	// closure-carrying event per packet.
	l.deliv[end], l.delivHead[end] = sim.SlideFIFO(l.deliv[end], l.delivHead[end])
	l.deliv[end] = append(l.deliv[end], delivery{at: at, pkt: pkt})
	if l.delivWake[end] == nil && !l.delivDraining[end] {
		l.delivWake[end] = eng.AtLabel(at, "link", l.drainFns[end])
	}
}

// linkBoundary adapts one direction of a cross-domain link to the
// coordinator's Boundary interface.
type linkBoundary struct {
	l   *Link
	end int
}

// BoundaryTarget reports the domain direction end's packets flush into: the
// receiving device's engine.
func (b *linkBoundary) BoundaryTarget() *sim.Engine { return b.l.engs[1-b.end] }

// EarliestPending reports the delivery time of the earliest parked packet in
// this direction. Delivery times per direction are nondecreasing (FIFO
// serialization plus a constant propagation delay), so the outbox head is
// the minimum.
func (b *linkBoundary) EarliestPending() sim.Time {
	q := b.l.xq[b.end]
	if len(q) == 0 {
		return sim.Forever
	}
	return q[0].at
}

// FlushBoundary moves direction end's outbox into the receiver-owned
// delivery ring and arms the receiver's drain event. Runs on the coordinator
// between windows, so neither side's event code is concurrently active.
func (b *linkBoundary) FlushBoundary() {
	l, end := b.l, b.end
	l.xnoted[end] = false
	if len(l.xq[end]) == 0 {
		return
	}
	l.deliv[end], l.delivHead[end] = sim.SlideFIFO(l.deliv[end], l.delivHead[end])
	l.deliv[end] = append(l.deliv[end], l.xq[end]...)
	for i := range l.xq[end] {
		l.xq[end][i] = delivery{}
	}
	l.xq[end] = l.xq[end][:0]
	if l.delivWake[end] == nil && !l.delivDraining[end] {
		l.delivWake[end] = l.engs[1-end].AtArrival(l.deliv[end][l.delivHead[end]].at, l.class[end], "link", l.drainFns[end])
	}
}

// drainDeliveries delivers every due packet for one direction and re-arms a
// wake for the next pending one. Runs on the receiving device's engine.
func (l *Link) drainDeliveries(end int) {
	eng := l.engs[1-end]
	// Touch before the transient flags flip, so the first-touch checkpoint
	// captures the quiescent between-callback shape.
	eng.SpecTouch(&l.rx[end].mark, &l.rx[end])
	l.delivWake[end] = nil
	l.delivDraining[end] = true
	now := eng.Now()
	peer := &l.ends[1-end]
	for l.delivHead[end] < len(l.deliv[end]) {
		d := &l.deliv[end][l.delivHead[end]]
		if d.at > now {
			break
		}
		pkt := d.pkt
		*d = delivery{}
		l.delivHead[end]++
		if !l.up {
			l.rxDropped[end]++
			pkt.ReleaseSpec(eng)
			continue
		}
		peer.dev.RecvPacket(pkt, peer)
	}
	l.delivDraining[end] = false
	if l.delivHead[end] < len(l.deliv[end]) {
		if l.cross {
			l.delivWake[end] = l.engs[1-end].AtArrival(l.deliv[end][l.delivHead[end]].at, l.class[end], "link", l.drainFns[end])
		} else {
			l.delivWake[end] = l.engs[1-end].AtLabel(l.deliv[end][l.delivHead[end]].at, "link", l.drainFns[end])
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// LinkStats counts traffic in one direction of a link.
type LinkStats struct {
	Packets uint64
	Bytes   uint64
	Dropped uint64 // all losses on this direction (down link + injected)
	// FaultDropped is the subset of Dropped caused by an injected fault
	// profile rather than a downed link.
	FaultDropped uint64
	// Corrupted counts packets whose payload a fault profile damaged in
	// flight (whether or not the damage is CRC-detectable).
	Corrupted uint64
	Busy      sim.Duration
}

// FaultProfile describes injected misbehavior of a link. The zero value is
// a healthy cable.
type FaultProfile struct {
	// DropProb is the per-packet probability the link eats the packet.
	DropProb float64
	// CorruptProb is the per-packet probability of a payload bit flip.
	CorruptProb float64
	// CorruptPreSeal makes flips happen "before" the CRC seal (resealed, so
	// they pass the link-level check); otherwise the flip damages the sealed
	// packet and the receiver's CRC check drops it.
	CorruptPreSeal bool
}

// Link is a full-duplex point-to-point cable between two devices. The two
// devices may live in different event domains (NewLinkEngines with distinct
// engines): the link is then a shard boundary — each direction's in-flight
// packets cross at window barriers through a per-direction outbox.
type Link struct {
	engs     [2]*sim.Engine // engine of ends[i].dev; equal on an intra-domain link
	cfg      LinkConfig
	name     string
	ends     [2]Attachment
	nextFree [2]sim.Time
	stats    [2]LinkStats
	up       bool

	// In-flight packets per direction, ordered by delivery time; one engine
	// event per direction drains the due prefix (see Send). In cross-domain
	// mode the ring is owned by the receiving domain and fed only at window
	// barriers from the outbox below.
	deliv         [2][]delivery
	delivHead     [2]int
	delivWake     [2]*sim.Event
	delivDraining [2]bool
	drainFns      [2]func() // cached; arming a drain must not allocate

	// rxDropped counts deliveries dropped at the receiving end of a downed
	// link. It is kept apart from stats[end].Dropped because in cross-domain
	// mode the sender owns stats[end] while the receiver's domain executes
	// the drop; Stats() folds it back in.
	rxDropped [2]uint64

	// Cross-domain boundary state (engs[0] != engs[1]). xq is the
	// per-direction outbox the sending domain fills during a window; xnoted
	// dedupes the dirty-boundary note per window.
	cross  bool
	xq     [2][]delivery
	xnoted [2]bool
	xb     [2]linkBoundary
	// class is the per-direction arrival ordering class (sim.AtArrival) the
	// receiver-side wake events are scheduled under, so same-instant ties
	// against receiver-local events resolve independently of which barrier
	// flushed the packets. Zero (intra-domain link) means local scheduling.
	class [2]uint32

	faults FaultProfile
	// faultRNG draws fault decisions per direction. On an intra-domain link
	// both entries alias one generator (decisions are a function of the
	// global packet order, matching the original single-stream behavior); on
	// a cross-domain link each direction gets an independent stream so the
	// two sending domains never race on generator state.
	faultRNG [2]*sim.RNG

	// Speculation journaling (sim spec.go): per direction, the sender-owned
	// state (serialization cursor, counters, fault RNG, outbox) and the
	// receiver-owned state (delivery ring) checkpoint through separate savers,
	// because on a cross-domain link they belong to different engines and
	// their spans open and resolve independently.
	tx [2]linkTxSide
	rx [2]linkRxSide
}

// linkTxSide journals direction end's sender-owned state; its SpecTouch runs
// on engs[end] at the top of Attachment.Send.
type linkTxSide struct {
	l      *Link
	end    int
	mark   uint64
	shadow linkTxShadow
}

type linkTxShadow struct {
	nextFree sim.Time
	stats    LinkStats
	rng      uint64
	xq       []delivery
	xnoted   bool
}

func (t *linkTxSide) SpecSave() {
	l, end := t.l, t.end
	t.shadow.nextFree = l.nextFree[end]
	t.shadow.stats = l.stats[end]
	if l.faultRNG[end] != nil {
		t.shadow.rng = l.faultRNG[end].State()
	}
	t.shadow.xq = append(t.shadow.xq[:0], l.xq[end]...)
	t.shadow.xnoted = l.xnoted[end]
}

func (t *linkTxSide) SpecRestore() {
	l, end := t.l, t.end
	l.nextFree[end] = t.shadow.nextFree
	l.stats[end] = t.shadow.stats
	if l.faultRNG[end] != nil {
		l.faultRNG[end].Restore(t.shadow.rng)
	}
	for i := len(t.shadow.xq); i < len(l.xq[end]); i++ {
		l.xq[end][i] = delivery{}
	}
	l.xq[end] = append(l.xq[end][:0], t.shadow.xq...)
	l.xnoted[end] = t.shadow.xnoted
}

// linkRxSide journals direction end's receiver-owned delivery ring; its
// SpecTouch runs on engs[1-end] (drainDeliveries, and Send on intra-domain
// links, where both sides share one engine).
type linkRxSide struct {
	l      *Link
	end    int
	mark   uint64
	shadow linkRxShadow
}

type linkRxShadow struct {
	deliv     []delivery
	wake      *sim.Event
	rxDropped uint64
}

func (r *linkRxSide) SpecSave() {
	l, end := r.l, r.end
	r.shadow.deliv = append(r.shadow.deliv[:0], l.deliv[end][l.delivHead[end]:]...)
	r.shadow.wake = l.delivWake[end]
	r.shadow.rxDropped = l.rxDropped[end]
}

func (r *linkRxSide) SpecRestore() {
	l, end := r.l, r.end
	for i := len(r.shadow.deliv); i < len(l.deliv[end]); i++ {
		l.deliv[end][i] = delivery{}
	}
	l.deliv[end] = append(l.deliv[end][:0], r.shadow.deliv...)
	l.delivHead[end] = 0
	l.delivWake[end] = r.shadow.wake
	l.delivDraining[end] = false
	l.rxDropped[end] = r.shadow.rxDropped
}

// NewLink creates a link between devices a and b and returns it. Attachment
// 0 belongs to a, attachment 1 to b. Both devices schedule on eng.
func NewLink(eng *sim.Engine, cfg LinkConfig, a, b Device) *Link {
	return NewLinkEngines(eng, eng, cfg, a, b)
}

// NewLinkEngines creates a link between device a scheduling on ea and device
// b scheduling on eb. With distinct engines the link becomes a cross-domain
// boundary and registers cfg.PropDelay as the conservative lookahead of both
// directed edges; the propagation delay must then be positive, since it
// bounds the synchronization window.
func NewLinkEngines(ea, eb *sim.Engine, cfg LinkConfig, a, b Device) *Link {
	l := &Link{
		engs:  [2]*sim.Engine{ea, eb},
		cfg:   cfg,
		name:  fmt.Sprintf("%s<->%s", a.Name(), b.Name()),
		up:    true,
		cross: ea != eb,
	}
	l.ends[0] = Attachment{link: l, end: 0, dev: a}
	l.ends[1] = Attachment{link: l, end: 1, dev: b}
	l.drainFns[0] = func() { l.drainDeliveries(0) }
	l.drainFns[1] = func() { l.drainDeliveries(1) }
	l.xb[0] = linkBoundary{l: l, end: 0}
	l.xb[1] = linkBoundary{l: l, end: 1}
	l.tx[0] = linkTxSide{l: l, end: 0}
	l.tx[1] = linkTxSide{l: l, end: 1}
	l.rx[0] = linkRxSide{l: l, end: 0}
	l.rx[1] = linkRxSide{l: l, end: 1}
	if l.cross {
		if cfg.PropDelay <= 0 {
			panic(fmt.Sprintf("fabric: cross-domain link %s needs a positive PropDelay lookahead", l.name))
		}
		ea.ObserveEdgeLookahead(eb, cfg.PropDelay)
		eb.ObserveEdgeLookahead(ea, cfg.PropDelay)
		l.class[0] = eb.ArrivalClass()
		l.class[1] = ea.ArrivalClass()
	}
	return l
}

// delivery is one in-flight packet on a link direction.
type delivery struct {
	at  sim.Time
	pkt *Packet
}

// End returns the attachment for end i (0 or 1).
func (l *Link) End(i int) *Attachment { return &l.ends[i] }

// EndFor returns the attachment belonging to dev, or nil.
func (l *Link) EndFor(dev Device) *Attachment {
	for i := range l.ends {
		if l.ends[i].dev == dev {
			return &l.ends[i]
		}
	}
	return nil
}

// Name identifies the link in traces.
func (l *Link) Name() string { return l.name }

// Up reports whether the link is carrying traffic.
func (l *Link) Up() bool { return l.up }

// SetUp raises or cuts the link. In-flight deliveries on a link that goes
// down are dropped. Topology control: call from the control domain (chaos
// schedulers and experiments already do).
func (l *Link) SetUp(up bool) { l.up = up }

// SetFaults installs (or with a zero profile, removes) a fault profile on
// the link, using a generator seeded deterministically: fault decisions are
// then a pure function of the seed and the packet sequence, so chaos
// campaigns replay bit-for-bit. A cross-domain link derives one independent
// stream per direction from the seed.
func (l *Link) SetFaults(p FaultProfile, seed uint64) {
	l.faults = p
	if p == (FaultProfile{}) {
		l.faultRNG = [2]*sim.RNG{}
		return
	}
	if l.cross {
		l.faultRNG[0] = sim.DeriveRNG(seed, 0)
		l.faultRNG[1] = sim.DeriveRNG(seed, 1)
		return
	}
	r := sim.NewRNG(seed)
	l.faultRNG = [2]*sim.RNG{r, r}
}

// Faults returns the installed fault profile (zero when healthy).
func (l *Link) Faults() FaultProfile { return l.faults }

// Stats returns a snapshot of the traffic counters for direction end->peer.
// The copy-out is deliberate: callers audit counters against each other and
// must not alias live state.
func (l *Link) Stats(end int) LinkStats {
	s := l.stats[end]
	s.Dropped += l.rxDropped[end]
	return s
}

// Utilization reports the busy fraction of direction end over elapsed time
// since the start of the simulation.
func (l *Link) Utilization(end int) float64 {
	now := l.engs[end].Now()
	if now == 0 {
		return 0
	}
	return float64(l.stats[end].Busy) / float64(now)
}
