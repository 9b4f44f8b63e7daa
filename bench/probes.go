package main

import (
	"fmt"
	"time"

	"repro/gm"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/gmproto"
	"repro/internal/gossip"
	"repro/internal/host"
	"repro/internal/lanai"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Probes time one layer's exported functions in isolation, with inputs
// shaped like the workloads' (4 KB fragments, 64 B messages, 128-node
// tables). They run in the traced pass only. Each reports the median cost
// per operation over batches timed for at least the probe budget.

// timeOp runs batch-sized loops of op until budget has elapsed and returns
// the median ns per operation.
func timeOp(budget time.Duration, batch int, op func()) float64 {
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// sink is a fabric.Device that releases what it receives.
type sink struct{ name string }

func (s *sink) Name() string                                      { return s.name }
func (s *sink) RecvPacket(p *fabric.Packet, _ *fabric.Attachment) { p.Release() }

// runProbes returns every probe metric by name. scale shrinks the aged
// shadow stores (the smoke test cannot afford to age one to 100k tokens).
func runProbes(budget time.Duration, scale int) (map[string]float64, error) {
	out := map[string]float64{}

	// core: one Add+Remove cycle on a shadow store that has already seen n
	// tokens. A store is aged to n, timed for at most n/20 further cycles (so
	// its history stays near n), then replaced.
	for _, c := range []struct {
		name string
		n    int
	}{{"core.probe_shadow_cycle_ns_1k", 1000}, {"core.probe_shadow_cycle_ns_100k", 100000}} {
		const cycles = 50
		var per []float64
		for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
			s := core.NewShadowStore(2)
			id := uint64(0)
			cycle := func() {
				id++
				s.AddSendToken(gmproto.SendToken{ID: id, Dest: 1})
				s.RemoveSendToken(id)
			}
			n := c.n / scale
			for i := 0; i < n; i++ {
				cycle()
			}
			for batch := 0; batch <= n/20/cycles; batch++ {
				t0 := time.Now()
				for i := 0; i < cycles; i++ {
					cycle()
				}
				per = append(per, float64(time.Since(t0).Nanoseconds())/cycles)
			}
		}
		out[c.name] = median(per)
	}

	// host: one 4 KB PCI transaction, queued and completed.
	{
		eng := sim.NewEngine(1)
		bus := host.NewPCIBus(eng, "probe/pci", host.DefaultPCIConfig())
		done := func() {}
		out["host.probe_pci_transfer_ns"] = timeOp(budget, 256, func() {
			bus.Transfer(4096, done)
			eng.Run()
		})
	}

	// lanai: one 4 KB host DMA through the chip's DMA engine.
	{
		eng := sim.NewEngine(1)
		bus := host.NewPCIBus(eng, "probe/pci", host.DefaultPCIConfig())
		chip := lanai.New(eng, "probe/lanai", lanai.DefaultConfig(), bus)
		chip.Start()
		done := func() {}
		out["lanai.probe_host_dma_ns_4k"] = timeOp(budget, 256, func() {
			chip.HostDMA(4096, done)
			eng.Run()
		})
	}

	// fabric: check out a packet, fill 4 KB, seal, verify, release.
	{
		src := make([]byte, 4096)
		out["fabric.probe_seal_check_ns_4k"] = timeOp(budget, 256, func() {
			p := fabric.GetPacket()
			copy(p.Buf(len(src)), src)
			p.SealCRC()
			if !p.CRCOk() {
				panic("probe: sealed packet fails its CRC")
			}
			p.Release()
		})
	}

	// fabric: one packet across a cable, a crossbar and a second cable.
	{
		eng := sim.NewEngine(1)
		sw := fabric.NewSwitch(eng, "probe/sw", fabric.DefaultSwitchConfig())
		a, b := &sink{"probe/a"}, &sink{"probe/b"}
		la := fabric.NewLink(eng, fabric.DefaultLinkConfig(), a, sw)
		lb := fabric.NewLink(eng, fabric.DefaultLinkConfig(), sw, b)
		if err := sw.AttachLink(0, la); err != nil {
			return nil, err
		}
		if err := sw.AttachLink(1, lb); err != nil {
			return nil, err
		}
		route := []byte{1}
		out["fabric.probe_hop_ns"] = timeOp(budget, 256, func() {
			p := fabric.GetPacket()
			p.CopyRoute(route)
			p.Buf(64)
			p.SealCRC()
			la.End(0).Send(p)
			eng.Run()
		})
	}

	// gmproto: encode and decode one 64 B DATA fragment.
	{
		h := gmproto.DataHeader{Src: 1, Dst: 2, SrcPort: 2, DstPort: 2, Seq: 7, MsgID: 9, MsgLen: 64}
		payload := make([]byte, 64)
		buf := make([]byte, gmproto.DataHeaderSize+len(payload))
		out["gmproto.probe_data_codec_ns"] = timeOp(budget, 1024, func() {
			h.EncodeTo(buf, payload)
			if _, _, err := gmproto.DecodeData(buf); err != nil {
				panic(err)
			}
		})
	}

	// sim: schedule and execute one event with d others pending.
	for _, c := range []struct {
		name  string
		depth int
	}{{"sim.probe_event_ns_d16", 16}, {"sim.probe_event_ns_d4096", 4096}} {
		eng := sim.NewEngine(1)
		nop := func() {}
		for i := 0; i < c.depth; i++ {
			eng.After(sim.Duration(i+1)*sim.Second*1000, nop)
		}
		out[c.name] = timeOp(budget, 1024, func() {
			eng.After(sim.Nanosecond, nop)
			eng.Step()
		})
	}

	// gossip: encode and decode a ping carrying four membership deltas.
	{
		m := gossip.Message{Type: gossip.MsgPing, From: 3, FromInc: 2, Target: 5, Seq: 11, Deltas: make([]gossip.Delta, 4)}
		out["gossip.probe_wire_codec_ns"] = timeOp(budget, 1024, func() {
			if _, err := gossip.Decode(m.Encode()); err != nil {
				panic(err)
			}
		})
	}

	// routing: all-pairs tables of a 128-node Clos from node 0's routes.
	{
		cl := gm.NewCluster(gm.DefaultConfig(gm.ModeFTGM))
		topo, err := gm.BuildClos(cl, 4, 16, 8)
		if err != nil {
			return nil, err
		}
		members := make([]gmproto.NodeID, len(topo.Nodes))
		anchor := make(map[gmproto.NodeID][]byte, len(topo.Nodes))
		for i := range topo.Nodes {
			members[i] = gmproto.NodeID(i + 1)
			anchor[members[i]] = topo.Route(0, i)
		}
		out["routing.probe_tables_ms_128"] = timeOp(budget, 1, func() {
			if len(routing.Tables(members, anchor)) != len(members) {
				panic("probe: short route table set")
			}
		}) / 1e6
	}

	// isa: Table 1's fault-injection campaign, 1000 flips, one worker.
	{
		c, err := fault.NewCampaign(2003)
		if err != nil {
			return nil, err
		}
		nsPerCampaign := timeOp(budget, 1, func() { c.RunWorkers(1000, 1) })
		out["isa.probe_campaign_runs_per_s"] = 1000 / (nsPerCampaign / 1e9)
	}

	if err := ckptProbes(budget, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ckptProbes times the checkpoint codec on a recovery anchor and a delta
// chain cut from a live testbed node under light traffic.
func ckptProbes(budget time.Duration, out map[string]float64) error {
	tb, err := buildPair(gm.DefaultConfig(gm.ModeFTGM), nil)
	if err != nil {
		return err
	}
	if err := tb.openPorts(64, 32); err != nil {
		return err
	}
	a, b := tb.nodes[0], tb.nodes[1]
	tb.ports[1].SetReceiveHandler(func(ev gm.RecvEvent) {
		_ = tb.ports[1].RecycleReceiveBuffer(ev.Data, gm.PriorityLow)
	})
	var base []byte
	var deltas [][]byte
	err = a.StartPeriodicCheckpoint(500*sim.Microsecond, 200*sim.Microsecond, func(f gm.PeriodicFrame) {
		frame := append([]byte(nil), f.Bytes...)
		if f.Kind == gm.FrameBase {
			base, deltas = frame, nil
		} else {
			deltas = append(deltas, frame)
		}
	})
	if err != nil {
		return err
	}
	payload := make([]byte, 64)
	var pump func()
	pump = func() {
		_ = tb.ports[0].Send(b.ID(), benchPort, gm.PriorityLow, payload, nil)
		tb.cl.After(100*sim.Microsecond, pump)
	}
	tb.cl.After(0, pump)
	tb.cl.Run(20 * sim.Millisecond)
	a.StopPeriodicCheckpoint()
	defer tb.cl.Shutdown(50 * gm.Millisecond)
	if base == nil || len(deltas) == 0 {
		return fmt.Errorf("ckpt probe: no checkpoint chain was cut (%d deltas)", len(deltas))
	}
	full, err := ckpt.ReplayChain(base, deltas)
	if err != nil {
		return fmt.Errorf("ckpt probe: %w", err)
	}
	enc := full.Encode()
	buf := make([]byte, 0, len(enc))
	out["ckpt.probe_encode_ns"] = timeOp(budget, 64, func() { buf = full.AppendTo(buf[:0]) })
	out["ckpt.probe_decode_ns"] = timeOp(budget, 64, func() {
		if _, err := ckpt.Decode(enc); err != nil {
			panic(err)
		}
	})
	out["ckpt.probe_replay_ns_per_frame"] = timeOp(budget, 4, func() {
		if _, err := ckpt.ReplayChain(base, deltas); err != nil {
			panic(err)
		}
	}) / float64(1+len(deltas))
	return nil
}
