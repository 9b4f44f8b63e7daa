package mcp

import (
	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/sim"
)

// MapSink receives mapper replies arriving at the node running the mapper
// process.
type MapSink func(payload []byte)

// SetUID burns in the interface's unique hardware identity (analogous to a
// Myrinet interface's globally unique address), which the mapper uses to
// recognize interfaces before NodeIDs exist.
func (m *MCP) SetUID(uid uint64) { m.uid = uid }

// UID returns the burned-in identity.
func (m *MCP) UID() uint64 { return m.uid }

// SetMapSink installs the local mapper process's reply hook.
func (m *MCP) SetMapSink(fn MapSink) { m.mapSink = fn }

// GossipSink receives gossip control-plane datagrams (PTGossip payloads)
// arriving at this interface; the cluster wires it to the node's
// membership agent. Unlike the map sink — which only the mapping node
// installs, for the duration of one run — the gossip sink is permanent and
// present on every node.
type GossipSink func(payload []byte)

// SetGossipSink installs the node's gossip-plane datagram hook.
func (m *MCP) SetGossipSink(fn GossipSink) { m.gossipSink = fn }

// RawTransmit injects an arbitrary payload onto the wire along an explicit
// route; the mapper uses it to launch scouts and distribute configuration.
// The packet is built (and route/payload copied) at call time; a ring holds
// it until its AckProc slot, so a mapping flood queues no closure per probe.
func (m *MCP) RawTransmit(route []byte, payload []byte) {
	if !m.chip.Running() {
		// Exec would drop the callback; don't queue an orphan packet.
		return
	}
	m.specTouch()
	pkt := fabric.GetPacketSpec(m.eng)
	// Unlike the route table, the mapper reuses and mutates its route
	// buffers, so this path copies instead of interning.
	pkt.CopyRoute(route)
	pkt.SrcLabel = m.chip.Name()
	copy(pkt.Buf(len(payload)), payload)
	pkt.SealCRC()
	m.rawQ, m.rawHead = sim.SlideFIFO(m.rawQ, m.rawHead)
	m.rawQ = append(m.rawQ, pkt)
	m.chip.Exec(m.cfg.AckProc, m.rawFn)
}

// rawDispatch injects the oldest queued mapper packet.
func (m *MCP) rawDispatch() {
	m.specTouch()
	pkt := m.rawQ[m.rawHead]
	m.rawQ[m.rawHead] = nil
	m.rawHead++
	pkt.SpecTouch(m.eng)
	pkt.Injected = m.eng.Now()
	m.chip.TransmitPacket(pkt)
}

// handleMapPacket implements the interface side of the mapping protocol:
// scouts are answered with the interface identity over the reverse route,
// replies are handed to the local mapper process, and config installs the
// NodeID and route table.
func (m *MCP) handleMapPacket(t gmproto.PacketType, payload []byte) {
	switch t {
	case gmproto.PTMapScout:
		s, err := gmproto.DecodeScout(payload)
		if err != nil {
			m.stats.BadHeaderDrops++
			return
		}
		reply := gmproto.ReplyPayload{UID: m.uid, Fwd: s.Fwd}
		m.RawTransmit(gmproto.ReverseRoute(s.Fwd), reply.Encode())
	case gmproto.PTMapReply:
		if m.mapSink != nil {
			m.mapSink(payload)
		}
	case gmproto.PTMapConfig:
		c, err := gmproto.DecodeConfig(payload)
		if err != nil {
			m.stats.BadHeaderDrops++
			return
		}
		m.nodeID = c.ID
		m.UploadRoutes(c.Routes)
	case gmproto.PTGossip:
		// The sink decodes (and copies what it keeps) before returning; the
		// packet goes back to the arena right after, like a map reply.
		if m.gossipSink != nil {
			m.gossipSink(payload)
		}
	}
}
