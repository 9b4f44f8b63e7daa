package mcp

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/lanai"
	"repro/internal/sim"
)

// EventSink receives events the MCP posts into a port's receive queue,
// after the event record has been DMAed to host memory. The gm library
// installs one per open port.
type EventSink func(ev gmproto.Event)

// MCP is one control-program instance, bound to a chip.
type MCP struct {
	eng  *sim.Engine
	chip *lanai.Chip
	cfg  Config
	mode Mode

	nodeID gmproto.NodeID
	uid    uint64
	// routes is indexed by NodeID; a nil entry means no route.
	routes [][]byte

	mapSink    MapSink
	gossipSink GossipSink

	// onNetFault is the host-side sink for NET_FAULT_SUSPECTED reports
	// (the driver wires it to the network watchdog).
	onNetFault func(gmproto.NodeID)

	// deadPeers marks destinations the watchdog declared unreachable: sends
	// toward them complete immediately with SendErrorUnreachable instead of
	// entering a retransmit loop. Cleared per peer by ResetPeerStreams.
	deadPeers map[gmproto.NodeID]bool

	// gen invalidates engine-level timers (retransmission) across reloads.
	gen uint64

	ports [gmproto.MaxPorts]*portState

	// tx and rx head each remote node's stream chain (see sizeTables).
	tx []*txStream
	rx []*rxStream

	nextMsgID uint32

	// host request queue serviced by L_timer(): alarms etc. (§4.2).
	alarms []alarmReq

	pageTableEntries int // cached page-hash-table registration (§4.3)

	stats Stats

	// inService holds packets popped from the receive ring whose handler
	// closures are queued on the processor. A card reset wipes the Exec
	// queue without running them, so LoadAndStart and Shutdown release
	// whatever is still here (pool ownership contract, DESIGN.md §11).
	inService []*fabric.Packet

	// recvScheduled coalesces packet-ring service into one queued handler.
	recvScheduled bool
	// sendScheduled coalesces doorbell service.
	sendScheduled bool
	// Cached dispatch closures: doorbell and ring service fire on every
	// message, so scheduling them must not allocate.
	sendSvcFn func()
	recvSvcFn func()
	ringFn    func() // bound serviceRecvRing, for drop-path continuations
	lTimerFn  func() // bound lTimer

	// Pending-work rings, each consumed by one cached callback in FIFO
	// order (the chip's Exec and HostDMA queues preserve issue order, so a
	// plain ring replaces a captured closure per item). A card reset drops
	// the queued callbacks without running them; Shutdown clears the rings
	// to match (it runs exactly when those callbacks can no longer fire).
	svcQ        []svcItem // decoded packets awaiting their handler slot
	svcHead     int
	svcFn       func()
	commitQ     []dmaCommit // per-fragment receive-DMA completions
	commitHead  int
	commitFn    func()
	ctrlQ       []ctrlItem // ACK/NACK builds awaiting their AckProc slot
	ctrlHead    int
	ctrlFn      func()
	evQ         []evItem // event records awaiting their DMA completion
	evHead      int
	evFn        func()
	rawQ        []*fabric.Packet // sealed mapper packets awaiting injection
	rawHead     int
	rawFn       func()
	deliverQ    []deliverItem // committed messages awaiting their delivery slot
	deliverHead int
	deliverFn   func()
	edmaQ       []deliverItem // FTGM deliveries awaiting the event-record DMA
	edmaHead    int
	edmaFn      func()

	// fragQ is the send pipeline: one entry per fragment on its way through
	// SendProcA, the host DMA and SendProcB, each stage with its own cursor
	// and cached callback. fragQ[fragProcA:] wait for SendProcA,
	// fragQ[fragDMA:fragProcA] for their DMA and fragQ[fragHead:fragDMA]
	// for SendProcB. One ring serves all three stages because the Exec
	// queue and the DMA engine both complete in issue order, so fragments
	// leave each stage in the order they entered the first.
	fragQ       []*txStream
	fragHead    int
	fragDMA     int
	fragProcA   int
	fragProcAFn func()
	fragDMAFn   func()
	fragProcBFn func()

	// msgPool / pmPool recycle the per-message send-window and reassembly
	// records, the last two per-message heap objects on the data path.
	msgPool []*txMsg
	pmPool  []*partialMsg

	// touched is serviceSendQueues's per-round scratch (reused across
	// rounds; rebuilt maps/slices per doorbell were a measurable share of
	// steady-state garbage).
	touched []*txStream

	// adoptNackSeq reproduces the Figure 4 vulnerability: after a naive
	// MCP reload the sender has lost its sequence state, and on a NACK it
	// adopts the receiver's expected sequence number for its pending
	// message — which makes the receiver accept a duplicate.
	adoptNackSeq bool

	// corruptNextSend, when nonzero, flips a payload bit of the next DATA
	// fragment before the CRC is computed (fault injection: "Messages
	// Corrupted").
	corruptNextSend int

	// loaded marks that a control program is present (LoadAndStart ran
	// after the last reset).
	loaded bool

	// Speculation journaling (sim spec.go, DESIGN.md §16).
	specMark uint64
	shadow   mcpShadow
}

type alarmReq struct {
	port gmproto.PortID
	at   sim.Time
}

// svcItem is one ring packet decoded by serviceRecvRing, waiting for its
// processor slot.
type svcItem struct {
	kind uint8 // svcData, svcAck, svcNack, svcMap
	pt   gmproto.PacketType
	dh   gmproto.DataHeader
	ah   gmproto.AckHeader
	frag []byte
	pkt  *fabric.Packet
}

const (
	svcData = uint8(iota)
	svcAck
	svcNack
	svcMap
)

// dmaCommit is one receive fragment's DMA-completion record.
type dmaCommit struct {
	ps *portState
	rs *rxStream
	id gmproto.StreamID
	p  *partialMsg
	n  uint32
}

// ctrlItem is one ACK/NACK waiting for its AckProc slot.
type ctrlItem struct {
	h     gmproto.AckHeader
	route []byte
}

// evItem is one event record in flight to the host queue.
type evItem struct {
	sink EventSink
	ev   gmproto.Event
}

// deliverItem is one fully committed message waiting for its delivery
// processor slot — and, under FTGM, then for the event-record DMA that
// gates the delayed ACK (§4.1).
type deliverItem struct {
	ps       *portState
	rs       *rxStream
	ev       gmproto.Event
	src      gmproto.NodeID
	port     gmproto.PortID // stream port carried in the released ACK
	prio     gmproto.Priority
	seq      uint32
	directed bool
}

type portState struct {
	open       bool
	sendQ      []gmproto.SendToken
	recvTokens []gmproto.RecvToken
	sink       EventSink
	// regions maps registered-memory ids to their pinned host buffers
	// (directed-send targets). The byte slices ARE host memory: deposits
	// into them survive a card reset, and the process re-registers the
	// same slices during recovery.
	regions map[uint32][]byte

	// frozen parks committed deliveries in frozenQ instead of running them
	// (bounded-drain periodic checkpointing). Parking happens BEFORE the
	// §4.1 commit point — no host table advances and no delayed ACK leaves
	// for a parked item — so everything parked is still covered by the
	// sender's Go-Back-N window and a checkpoint cut taken during the
	// freeze is consistent. ThawPort replays the queue in arrival order.
	frozen  bool
	frozenQ []deliverItem

	// Speculation journaling (sim spec.go, DESIGN.md §16).
	specMark uint64
	shadow   portShadow
}

// New creates a control program for chip. It is inert until LoadAndStart.
func New(chip *lanai.Chip, cfg Config, mode Mode) *MCP {
	m := &MCP{
		eng:       chip.Engine(),
		chip:      chip,
		cfg:       cfg,
		mode:      mode,
		deadPeers: make(map[gmproto.NodeID]bool),
	}
	m.sendSvcFn = func() {
		m.sendScheduled = false
		m.serviceSendQueues()
	}
	m.recvSvcFn = func() {
		m.recvScheduled = false
		m.serviceRecvRing()
	}
	m.ringFn = m.serviceRecvRing
	m.lTimerFn = m.lTimer
	m.svcFn = m.svcDispatch
	m.commitFn = m.commitDispatch
	m.ctrlFn = m.ctrlDispatch
	m.evFn = m.evDispatch
	m.rawFn = m.rawDispatch
	m.deliverFn = m.deliverDispatch
	m.edmaFn = m.edmaDispatch
	m.fragProcAFn = m.fragProcADone
	m.fragDMAFn = m.fragDMADone
	m.fragProcBFn = m.fragProcBDone
	chip.SetISRHandler(m.onISR)
	return m
}

// svcDispatch runs the handler for the oldest decoded ring packet, then
// continues draining the ring.
func (m *MCP) svcDispatch() {
	m.specTouch()
	it := m.svcQ[m.svcHead]
	m.svcQ[m.svcHead] = svcItem{}
	m.svcHead++
	switch it.kind {
	case svcData:
		// handleData copies the fragment into the host buffer before
		// returning, so the wire packet can go back to the arena here.
		m.handleData(it.dh, it.frag)
		m.finishService(it.pkt)
	case svcAck:
		m.handleAck(it.ah)
	case svcNack:
		m.handleNack(it.ah)
	case svcMap:
		// Map decoders copy the route/config bytes they keep.
		m.handleMapPacket(it.pt, it.pkt.Payload)
		m.finishService(it.pkt)
	}
	m.serviceRecvRing()
}

// commitDispatch credits the oldest pending fragment DMA and tries to
// commit its message.
func (m *MCP) commitDispatch() {
	m.specTouch()
	it := m.commitQ[m.commitHead]
	m.commitQ[m.commitHead] = dmaCommit{}
	m.commitHead++
	m.touchPartial(it.p)
	it.p.dmaDone += it.n
	m.maybeCommit(it.ps, it.rs, it.id, it.p)
}

// ctrlDispatch builds and injects the oldest queued ACK/NACK.
func (m *MCP) ctrlDispatch() {
	m.specTouch()
	it := m.ctrlQ[m.ctrlHead]
	m.ctrlQ[m.ctrlHead] = ctrlItem{}
	m.ctrlHead++
	pkt := fabric.GetPacketSpec(m.eng)
	pkt.Route = it.route // interned: see injectFrag
	pkt.SrcLabel = m.chip.Name()
	pkt.Injected = m.eng.Now()
	it.h.EncodeTo(pkt.Buf(gmproto.AckHeaderSize))
	pkt.SealCRC()
	if it.h.Nack {
		m.stats.NacksSent++
	} else {
		m.stats.AcksSent++
	}
	m.chip.TransmitPacket(pkt)
}

// evDispatch hands the oldest DMAed event record to its host sink.
func (m *MCP) evDispatch() {
	m.specTouch()
	it := m.evQ[m.evHead]
	m.evQ[m.evHead] = evItem{}
	m.evHead++
	it.sink(it.ev)
}

// deliverDispatch finishes the oldest committed message once its delivery
// processor slot fires: directed deposits commit silently, stock GM posts
// the receive event, FTGM first DMAs the event record to the host queue.
func (m *MCP) deliverDispatch() {
	m.specTouch()
	it := m.deliverQ[m.deliverHead]
	m.deliverQ[m.deliverHead] = deliverItem{}
	m.deliverHead++
	if it.ps.frozen {
		// Bounded-drain freeze: park ahead of the commit point. The item
		// is unacknowledged, so the sender's window still owns it.
		m.touchPort(it.ps)
		it.ps.frozenQ = append(it.ps.frozenQ, it)
		return
	}
	m.deliverBody(it)
}

// deliverBody is the committed-delivery tail shared by the live dispatch
// path and ThawPort's replay of parked items.
func (m *MCP) deliverBody(it deliverItem) {
	m.touchRx(it.rs)
	if it.directed {
		// Deposit complete: the receiver process is not notified (GM's
		// directed-send semantics). Stock GM commits the sequence number
		// and is done (the ACK already left at arrival). FTGM falls through
		// to the event-DMA stage below with the internal commit record: the
		// host ACK table must learn the deposit's sequence number — it is
		// part of the checkpointable recovery anchor, and a restored MCP
		// seeded without it would NACK the stream forever — and the §4.1
		// delayed ACK leaves only after that record lands in host memory.
		m.stats.DirectedDeposits++
		if m.mode != ModeFTGM {
			if it.seq > it.rs.committedSeq {
				it.rs.committedSeq = it.seq
			}
			return
		}
	} else {
		m.stats.MsgsDelivered++
	}
	if m.mode == ModeFTGM {
		m.edmaQ, m.edmaHead = sim.SlideFIFO(m.edmaQ, m.edmaHead)
		m.edmaQ = append(m.edmaQ, it)
		m.chip.HostDMA(m.cfg.EventBytes, m.edmaFn)
		return
	}
	if it.seq > it.rs.committedSeq {
		it.rs.committedSeq = it.seq
	}
	m.postEvent(it.ps.sink, it.ev)
}

// edmaDispatch runs when the oldest delivery's event record lands in host
// memory. Delayed commit point: the ACK leaves only after the message and
// its event are in host memory (§4.1).
func (m *MCP) edmaDispatch() {
	m.specTouch()
	it := m.edmaQ[m.edmaHead]
	m.edmaQ[m.edmaHead] = deliverItem{}
	m.edmaHead++
	m.touchRx(it.rs)
	if it.ps.sink != nil {
		it.ps.sink(it.ev)
	}
	if it.seq > it.rs.committedSeq {
		it.rs.committedSeq = it.seq
	}
	if !m.cfg.ImmediateAck {
		m.sendControl(gmproto.AckHeader{
			Src: m.nodeID, Dst: it.src, SrcPort: it.port, Prio: it.prio,
			AckSeq: it.rs.committedSeq,
		})
	}
}

// getTxMsg / freeTxMsg recycle send-window records. A record still owned by
// an in-progress fragment chain is left to the garbage collector.
func (m *MCP) getTxMsg() *txMsg {
	if n := len(m.msgPool); n > 0 {
		msg := m.msgPool[n-1]
		m.msgPool[n-1] = nil
		m.msgPool = m.msgPool[:n-1]
		// Touch before the caller writes fields: the first-touch image must
		// be the zeroed pool state a rollback returns the record to.
		m.touchMsg(msg)
		return msg
	}
	return &txMsg{}
}

func (m *MCP) freeTxMsg(s *txStream, msg *txMsg) {
	if msg.sending || msg == s.cur {
		return
	}
	// Field-wise zero: a whole-struct clear would wipe the record's spec
	// mark and shadow, which the open span may still need for rollback.
	m.touchMsg(msg)
	msg.tok, msg.seq, msg.msgID = gmproto.SendToken{}, 0, 0
	msg.inFlight, msg.sending, msg.needRtx, msg.failed = false, false, false, false
	m.msgPool = append(m.msgPool, msg)
}

// getPartial / freePartial recycle reassembly records.
func (m *MCP) getPartial() *partialMsg {
	if n := len(m.pmPool); n > 0 {
		p := m.pmPool[n-1]
		m.pmPool[n-1] = nil
		m.pmPool = m.pmPool[:n-1]
		m.touchPartial(p)
		return p
	}
	return &partialMsg{}
}

func (m *MCP) freePartial(p *partialMsg) {
	// Field-wise zero for the same reason as freeTxMsg.
	m.touchPartial(p)
	p.hdr, p.buf, p.arrived, p.dmaDone = gmproto.DataHeader{}, nil, 0, 0
	p.tok, p.committed, p.directed = gmproto.RecvToken{}, false, false
	m.pmPool = append(m.pmPool, p)
}

// Chip returns the chip the program runs on.
func (m *MCP) Chip() *lanai.Chip { return m.chip }

// Mode returns the protocol variant.
func (m *MCP) Mode() Mode { return m.mode }

// Stats returns protocol counters.
func (m *MCP) Stats() Stats { return m.stats }

// NodeID returns the interface's mapper-assigned identity.
func (m *MCP) NodeID() gmproto.NodeID { return m.nodeID }

// SetNodeID assigns the interface identity (mapper/driver).
func (m *MCP) SetNodeID(id gmproto.NodeID) {
	m.specTouch()
	m.nodeID = id
}

// LoadAndStart models the driver finishing an MCP load: the processor
// starts, timers are armed, and the protocol state is empty. The time cost
// of loading lives in the driver/FTD, which calls this at the right moment.
func (m *MCP) LoadAndStart() {
	m.specTouch()
	m.gen++
	// A load follows either power-on (nothing in service) or a card reset
	// (the reset's epoch bump dropped the queued handler closures), so the
	// previous program's in-service packets can only be released here.
	m.Shutdown()
	m.tx = make([]*txStream, len(m.routes))
	m.rx = make([]*rxStream, len(m.routes))
	for i := range m.ports {
		m.ports[i] = nil
	}
	m.alarms = nil
	m.recvScheduled = false
	m.sendScheduled = false
	m.pageTableEntries = 0
	m.loaded = true
	m.chip.Start()
	m.armLTimer()
	if m.mode == ModeFTGM {
		// The IMR is modified so IT1 expiry raises a host interrupt; the
		// L_timer routine re-arms IT1 just in time during normal operation
		// (§4.2).
		m.chip.SetIMR(m.chip.IMR() | lanai.ISRTimer1)
		m.chip.SetTimer(1, m.cfg.WatchdogTicks)
	}
}

// Shutdown releases the pooled packets whose handler closures died with the
// Exec queue. Call only when those closures cannot run anymore — after a
// card reset (epoch bump) or at end of simulation.
func (m *MCP) Shutdown() {
	m.specTouch()
	for _, pkt := range m.inService {
		pkt.ReleaseSpec(m.eng)
	}
	m.inService = nil
	// The pending-work rings pair 1:1 with callbacks that died with the
	// Exec/DMA queues; clear them so the next program's callbacks realign.
	for i := range m.svcQ {
		m.svcQ[i] = svcItem{}
	}
	m.svcQ, m.svcHead = m.svcQ[:0], 0
	for i := range m.commitQ {
		m.commitQ[i] = dmaCommit{}
	}
	m.commitQ, m.commitHead = m.commitQ[:0], 0
	for i := range m.ctrlQ {
		m.ctrlQ[i] = ctrlItem{}
	}
	m.ctrlQ, m.ctrlHead = m.ctrlQ[:0], 0
	for i := range m.evQ {
		m.evQ[i] = evItem{}
	}
	m.evQ, m.evHead = m.evQ[:0], 0
	for i := m.rawHead; i < len(m.rawQ); i++ {
		m.rawQ[i].ReleaseSpec(m.eng)
	}
	for i := range m.rawQ {
		m.rawQ[i] = nil
	}
	m.rawQ, m.rawHead = m.rawQ[:0], 0
	for i := range m.deliverQ {
		m.deliverQ[i] = deliverItem{}
	}
	m.deliverQ, m.deliverHead = m.deliverQ[:0], 0
	for i := range m.edmaQ {
		m.edmaQ[i] = deliverItem{}
	}
	m.edmaQ, m.edmaHead = m.edmaQ[:0], 0
	clear(m.fragQ)
	m.fragQ, m.fragHead, m.fragDMA, m.fragProcA = m.fragQ[:0], 0, 0, 0
}

// Routes returns the currently uploaded route table (driver keeps the
// authoritative copy; this accessor serves tests and the FTD).
func (m *MCP) Routes() map[gmproto.NodeID][]byte {
	out := make(map[gmproto.NodeID][]byte)
	for k, v := range m.routes {
		if v != nil {
			out[gmproto.NodeID(k)] = append([]byte(nil), v...)
		}
	}
	return out
}

// UploadRoutes installs the source-route table (mapper or FTD restore) and
// grows the stream tables to cover every routed node.
func (m *MCP) UploadRoutes(routes map[gmproto.NodeID][]byte) {
	m.specTouch() // the core shadow holds the old table
	n := 0
	for k := range routes {
		n = max(n, int(k)+1)
	}
	m.routes = make([][]byte, n)
	for k, v := range routes {
		r := make([]byte, len(v)) // non-nil even when empty
		copy(r, v)
		m.routes[k] = r
	}
	m.sizeTables(n)
}

// RegisterPageTable records the host's page-hash-table registration; the
// MCP caches entries from it on demand (§4.3). Only the registration count
// is modeled.
func (m *MCP) RegisterPageTable(entries int) {
	m.specTouch()
	m.pageTableEntries = entries
}

// --- Host interface (called by the gm library / driver at host time) ---

// HostOpenPort opens a port and installs its event sink.
func (m *MCP) HostOpenPort(port gmproto.PortID, sink EventSink) error {
	if int(port) >= gmproto.MaxPorts {
		return fmt.Errorf("mcp: no port %d", port)
	}
	if m.ports[port] != nil && m.ports[port].open {
		return fmt.Errorf("mcp: port %d already open", port)
	}
	m.specTouch() // the ports array lives in the core shadow
	m.ports[port] = &portState{open: true, sink: sink}
	return nil
}

// HostClosePort closes a port; pending tokens are dropped, as are any
// deliveries parked by a freeze (they were never acknowledged, so the
// sender still owns them).
func (m *MCP) HostClosePort(port gmproto.PortID) {
	if ps := m.port(port); ps != nil {
		m.touchPort(ps)
		ps.open = false
		ps.frozen = false
		for i := range ps.frozenQ {
			ps.frozenQ[i] = deliverItem{}
		}
		ps.frozenQ = ps.frozenQ[:0]
	}
}

// FreezePort stops committed-message delivery on a port: items reaching the
// delivery stage park in the port's freeze queue ahead of the §4.1 commit
// point (no host event, no ACK). Send-side traffic and control processing
// continue. Idempotent; a closed or unknown port is a no-op.
func (m *MCP) FreezePort(port gmproto.PortID) {
	ps := m.port(port)
	if ps == nil || !ps.open || ps.frozen {
		return
	}
	m.touchPort(ps)
	ps.frozen = true
}

// ThawPort resumes delivery, replaying parked items in arrival order
// through the same commit path the live dispatch uses (event DMA, ACK
// release). Replay happens at the thaw instant: the delivery processor
// slot for each item was already charged before it parked.
func (m *MCP) ThawPort(port gmproto.PortID) {
	ps := m.port(port)
	if ps == nil || !ps.frozen {
		return
	}
	m.touchPort(ps)
	ps.frozen = false
	for i := 0; i < len(ps.frozenQ); i++ {
		it := ps.frozenQ[i]
		ps.frozenQ[i] = deliverItem{}
		m.deliverBody(it)
	}
	ps.frozenQ = ps.frozenQ[:0]
}

// Frozen reports whether a port is holding deliveries.
func (m *MCP) Frozen(port gmproto.PortID) bool {
	ps := m.port(port)
	return ps != nil && ps.frozen
}

// PortOpen reports whether a port is open.
func (m *MCP) PortOpen(port gmproto.PortID) bool {
	ps := m.port(port)
	return ps != nil && ps.open
}

func (m *MCP) port(p gmproto.PortID) *portState {
	if int(p) >= gmproto.MaxPorts {
		return nil
	}
	return m.ports[p]
}

// HostPostSend enqueues a send token on a port and rings the doorbell.
func (m *MCP) HostPostSend(tok gmproto.SendToken) error {
	ps := m.port(tok.SrcPort)
	if ps == nil || !ps.open {
		return fmt.Errorf("mcp: send on closed port %d", tok.SrcPort)
	}
	m.touchPort(ps)
	ps.sendQ = append(ps.sendQ, tok)
	m.chip.RaiseISR(lanai.ISRDoorbell)
	return nil
}

// HostPostRecvToken provides a receive buffer on a port.
func (m *MCP) HostPostRecvToken(port gmproto.PortID, tok gmproto.RecvToken) error {
	ps := m.port(port)
	if ps == nil || !ps.open {
		return fmt.Errorf("mcp: recv token on closed port %d", port)
	}
	m.touchPort(ps)
	ps.recvTokens = append(ps.recvTokens, tok)
	return nil
}

// HostRegisterRegion registers a pinned host buffer as a directed-send
// target. The MCP writes deposits straight into buf (modeling DMA into
// user memory); re-registering an id replaces the mapping.
func (m *MCP) HostRegisterRegion(port gmproto.PortID, id uint32, buf []byte) error {
	ps := m.port(port)
	if ps == nil || !ps.open {
		return fmt.Errorf("mcp: register region on closed port %d", port)
	}
	m.touchPort(ps) // shadow holds the old regions-map reference (or nil)
	if ps.regions == nil {
		ps.regions = make(map[uint32][]byte)
	}
	old, had := ps.regions[id]
	var hadV uint64
	if had {
		hadV = 1
	}
	m.eng.SpecUndo(regionUndoSet, ps.regions, old, uint64(id), hadV)
	ps.regions[id] = buf
	return nil
}

// HostSetAlarm asks the MCP to post an EvAlarm on the port at the given
// virtual time; serviced by L_timer like other host requests (§4.2).
func (m *MCP) HostSetAlarm(port gmproto.PortID, at sim.Time) {
	m.specTouch()
	m.alarms = append(m.alarms, alarmReq{port: port, at: at})
}

// --- Recovery entry points (FTD / gm library fault handler, §4.3-4.4) ---

// PostFaultDetected places a FAULT_DETECTED event in the receive queue of a
// port. The FTD calls this for every open port after reloading the MCP.
func (m *MCP) PostFaultDetected(port gmproto.PortID) {
	ps := m.port(port)
	if ps == nil || !ps.open || ps.sink == nil {
		return
	}
	sink := ps.sink
	m.postEvent(sink, gmproto.Event{Type: gmproto.EvFaultDetected, Port: port})
}

// ReopenPort re-establishes a port after recovery with its event sink; the
// LANai "initializes the per-port state and, as usual, starts sending and
// receiving messages for the port" (§4.4).
func (m *MCP) ReopenPort(port gmproto.PortID, sink EventSink) {
	m.specTouch()
	m.ports[port] = &portState{open: true, sink: sink}
}

// RestoreRxSeqs uploads the last in-order sequence number received on each
// stream, "one for each (connection, port) pair", so the reloaded MCP "ACKs
// the right messages and NACKs those that arrive out-of-order" (§4.4).
func (m *MCP) RestoreRxSeqs(seqs map[gmproto.StreamID]uint32) {
	for id, seq := range seqs {
		rs := m.rxStreamFor(id)
		m.touchRx(rs)
		if seq > rs.arrivedSeq {
			rs.arrivedSeq = seq
		}
		if seq > rs.committedSeq {
			rs.committedSeq = seq
		}
	}
}

// --- Network-fault entry points (driver / network watchdog) ---

// SetNetFaultSink installs the host callback for NET_FAULT_SUSPECTED
// reports. The sink survives MCP reloads (it models the interrupt vector
// the driver owns, not LANai state).
func (m *MCP) SetNetFaultSink(fn func(target gmproto.NodeID)) { m.onNetFault = fn }

// --- Fault hooks (package fault drives these) ---

// SetAdoptNackSeq toggles the naive-restart vulnerability: a freshly
// reloaded MCP that lost its sequence state adopts the expected sequence
// number carried by a NACK, re-stamping its pending messages with it — the
// exact mechanism by which Figure 4's duplicate message gets accepted.
func (m *MCP) SetAdoptNackSeq(v bool) { m.adoptNackSeq = v }

// InjectHang stops the network processor (soft hang: timers and interrupt
// logic stay alive).
func (m *MCP) InjectHang() { m.chip.Hang() }

// InjectHardHang stops the processor and the timer/interrupt logic.
func (m *MCP) InjectHardHang() { m.chip.HardHang() }

// InjectSendCorruption makes the next transmitted DATA fragment carry a
// flipped payload bit. If preSeal, the flip happens before send_chunk
// computes the CRC — it passes the link-level check and reaches the
// application undetected (Table 1 "Messages Corrupted"). Otherwise the flip
// happens on the sealed packet and the receiver's CRC check drops it.
func (m *MCP) InjectSendCorruption(bit int, preSeal bool) {
	bit |= 1 // zero would disarm the injection
	if preSeal {
		m.corruptNextSend = bit
	} else {
		m.corruptNextSend = -bit
	}
}

// --- Dispatch ---

func (m *MCP) onISR(bit uint32) {
	m.specTouch()
	switch bit {
	case lanai.ISRDoorbell:
		m.chip.AckISR(lanai.ISRDoorbell)
		if !m.sendScheduled {
			m.sendScheduled = true
			m.chip.Exec(0, m.sendSvcFn)
		}
	case lanai.ISRRecvPacket:
		m.chip.AckISR(lanai.ISRRecvPacket)
		if !m.recvScheduled {
			m.recvScheduled = true
			m.chip.Exec(0, m.recvSvcFn)
		}
	case lanai.ISRTimer0:
		m.chip.AckISR(lanai.ISRTimer0)
		m.chip.Exec(m.cfg.LTimerProc, m.lTimerFn)
	}
}

// lTimer is the L_timer() routine (§4.2): it services host requests
// (alarms), clears the FTD's magic word, re-arms the watchdog (FTGM) and
// finally re-arms IT0.
func (m *MCP) lTimer() {
	m.specTouch()
	m.stats.LTimerRuns++
	now := m.eng.Now()
	rest := m.alarms[:0]
	for _, a := range m.alarms {
		if a.at <= now {
			if ps := m.port(a.port); ps != nil && ps.open && ps.sink != nil {
				m.postEvent(ps.sink, gmproto.Event{Type: gmproto.EvAlarm, Port: a.port})
			}
			continue
		}
		rest = append(rest, a)
	}
	m.alarms = rest

	// Liveness handshake: a running MCP clears the magic word (§4.3).
	if m.chip.ReadWord(lanai.MagicAddr) == lanai.MagicWord {
		m.chip.WriteWord(lanai.MagicAddr, 0)
	}

	if m.mode == ModeFTGM {
		m.chip.SetTimer(1, m.cfg.WatchdogTicks)
	}
	m.armLTimer()
}

func (m *MCP) armLTimer() { m.chip.SetTimer(0, m.cfg.LTimerTicks) }

// postEvent DMAs an event record into the port's host receive queue, then
// hands it to the host-side sink. The sink call is the commit point: once
// it runs, the host owns the information.
func (m *MCP) postEvent(sink EventSink, ev gmproto.Event) {
	if !m.chip.Running() {
		// HostDMA would drop the request; don't queue an orphan record.
		return
	}
	m.specTouch()
	m.evQ, m.evHead = sim.SlideFIFO(m.evQ, m.evHead)
	m.evQ = append(m.evQ, evItem{sink: sink, ev: ev})
	m.chip.HostDMA(m.cfg.EventBytes, m.evFn)
}
