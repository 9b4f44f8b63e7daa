package gm_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/gm"
)

// The complete life of a message: build a cluster, boot it (MCP load + GM
// mapping), exchange a message, observe the callback.
func Example() {
	cluster := gm.NewCluster(gm.DefaultConfig(gm.ModeFTGM))
	alice := cluster.AddNode("alice")
	bob := cluster.AddNode("bob")
	sw := cluster.AddSwitch("sw0")
	if err := cluster.Connect(alice, sw, 0); err != nil {
		panic(err)
	}
	if err := cluster.Connect(bob, sw, 1); err != nil {
		panic(err)
	}
	if _, err := cluster.Boot(); err != nil {
		panic(err)
	}

	pa, _ := alice.OpenPort(2)
	pb, _ := bob.OpenPort(2)
	pb.SetReceiveHandler(func(ev gm.RecvEvent) {
		fmt.Printf("bob received %q\n", ev.Data)
	})
	_ = pb.ProvideReceiveBuffer(4096, gm.PriorityLow)
	_ = pa.Send(bob.ID(), 2, gm.PriorityLow, []byte("hello"), func(s gm.SendStatus) {
		fmt.Printf("send status: %v\n", s)
	})
	cluster.Run(5 * gm.Millisecond)
	// Output:
	// bob received "hello"
	// send status: ok
}

// pair boots two nodes on one switch and opens port 1 on each.
func pair(cfg gm.Config) (c *gm.Cluster, a, b *gm.Node, pa, pb *gm.Port) {
	c = gm.NewCluster(cfg)
	a, b = c.AddNode("a"), c.AddNode("b")
	sw := c.AddSwitch("sw")
	must(c.Connect(a, sw, 0))
	must(c.Connect(b, sw, 1))
	_, err := c.Boot()
	must(err)
	pa, err = a.OpenPort(1)
	must(err)
	pb, err = b.OpenPort(1)
	must(err)
	return c, a, b, pa, pb
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Transparent fault recovery (§4.4): a sender streams 300 numbered
// messages, one every 100 µs, and its network processor hangs halfway
// through. The watchdog detects the hang, the FTD reloads the interface and
// the library restores the port. The application code contains no fault
// handling, yet the receiver's audit finds every message exactly once, in
// order.
func ExampleNode_InjectHang() {
	const messages = 300
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Host.SendTokens = 1024 // deep pool: tokens stay out during the outage
	cluster, sender, receiver, ps, pr := pair(cfg)

	var delivered, dups, gaps int
	next := uint64(1)
	pr.SetReceiveHandler(func(ev gm.RecvEvent) {
		switch id := binary.LittleEndian.Uint64(ev.Data); {
		case id == next:
			next++
		case id < next:
			dups++
		default:
			gaps++
			next = id + 1
		}
		delivered++
		must(pr.ProvideReceiveBuffer(64, gm.PriorityLow))
	})
	for i := 0; i < 64; i++ {
		must(pr.ProvideReceiveBuffer(64, gm.PriorityLow))
	}

	sent := 0
	var pump func()
	pump = func() {
		if sent == messages {
			return
		}
		sent++
		msg := binary.LittleEndian.AppendUint64(nil, uint64(sent))
		must(ps.Send(receiver.ID(), 1, gm.PriorityLow, msg, nil))
		cluster.After(100*gm.Microsecond, pump)
	}
	pump()
	cluster.After(messages/2*100*gm.Microsecond, func() {
		fmt.Printf("t=%v  network processor hung after %d sends\n", cluster.Now(), sent)
		sender.InjectHang()
	})
	sender.Recovered = func() {
		tl := sender.FTD().Timeline()
		fmt.Printf("t=%v  recovered: detection %v, FTD %v, per-process %v\n",
			cluster.Now(), tl.DetectionTime(), tl.FTDTime(), tl.PerProcessTime())
	}
	cluster.Run(5 * gm.Second)

	fmt.Printf("sent %d, delivered %d, duplicates %d, order gaps %d\n", sent, delivered, dups, gaps)
	// Output:
	// t=538.0ms  network processor hung after 150 sends
	// t=2217.5ms  recovered: detection 922.0us, FTD 763.6ms, per-process 915.0ms
	// sent 300, delivered 300, duplicates 0, order gaps 0
}

// GM's polling style (Figure 3): the application drains each port with
// Receive and hands every event it does not handle to UnknownEvent, the
// gm_unknown() of the paper. The sensor's network processor hangs twice
// during a 400-frame pass. Each time FAULT_DETECTED arrives in the sensor's
// queue and goes through UnknownEvent, which runs the recovery; the poll
// loop itself has no fault handling.
func ExamplePort_Receive() {
	const frames = 400
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Host.SendTokens = 2048
	cluster, sensor, recorder, sp, rp := pair(cfg)
	sp.EnablePolling()
	rp.EnablePolling()
	for i := 0; i < 64; i++ {
		must(rp.ProvideReceiveBuffer(64, gm.PriorityLow))
	}

	recorded := make(map[uint64]int)
	poll := func(p *gm.Port) {
		for ev, ok := p.Receive(); ok; ev, ok = p.Receive() {
			switch ev.Type {
			case gm.EvReceived:
				recorded[binary.LittleEndian.Uint64(ev.Data)]++
				must(p.ProvideReceiveBuffer(64, gm.PriorityLow))
			default:
				if ev.Type != gm.EvSent {
					fmt.Printf("t=%v  %v -> UnknownEvent\n", cluster.Now(), ev.Type)
				}
				p.UnknownEvent(ev)
			}
		}
	}
	// Every 250 µs: poll both ports and emit the next frame.
	sent := 0
	var loop func()
	loop = func() {
		poll(sp)
		poll(rp)
		if sent < frames {
			sent++
			frame := binary.LittleEndian.AppendUint64(nil, uint64(sent))
			must(sp.Send(recorder.ID(), 1, gm.PriorityLow, frame, nil))
		}
		cluster.After(250*gm.Microsecond, loop)
	}
	loop()

	// Two upsets: one 20 ms into the pass, one 100 ms after the first
	// recovery completes.
	hangs := 0
	strike := func() {
		hangs++
		fmt.Printf("t=%v  sensor network processor hung\n", cluster.Now())
		sensor.InjectHang()
	}
	cluster.After(20*gm.Millisecond, strike)
	sensor.Recovered = func() {
		if hangs < 2 {
			cluster.After(100*gm.Millisecond, strike)
		}
	}
	cluster.Run(5 * gm.Second)

	dups := 0
	for _, n := range recorded {
		if n > 1 {
			dups++
		}
	}
	fmt.Printf("%d/%d frames recorded, %d duplicates\n", len(recorded), frames, dups)
	// Output:
	// t=543.0ms  sensor network processor hung
	// t=1307.5ms  FAULT_DETECTED -> UnknownEvent
	// t=2339.5ms  sensor network processor hung
	// t=3104.2ms  FAULT_DETECTED -> UnknownEvent
	// 400/400 frames recorded, 0 duplicates
}

// Figure 8's workload: a ping-pong between two hosts, timed in simulated
// time. The half round trip at 16 bytes shows FTGM's overhead over stock GM.
func ExamplePort_Send_pingpong() {
	const rounds = 100
	for _, mode := range []gm.Mode{gm.ModeGM, gm.ModeFTGM} {
		cluster, a, b, pa, pb := pair(gm.DefaultConfig(mode))
		payload := make([]byte, 16)
		var start gm.Time
		var total gm.Duration
		done := 0
		ping := func() {
			start = cluster.Now()
			must(pa.ProvideReceiveBuffer(64, gm.PriorityLow))
			must(pa.Send(b.ID(), 1, gm.PriorityLow, payload, nil))
		}
		pb.SetReceiveHandler(func(gm.RecvEvent) { // echo
			must(pb.ProvideReceiveBuffer(64, gm.PriorityLow))
			must(pb.Send(a.ID(), 1, gm.PriorityLow, payload, nil))
		})
		pa.SetReceiveHandler(func(gm.RecvEvent) {
			total += cluster.Now() - start
			if done++; done < rounds {
				ping()
			}
		})
		must(pb.ProvideReceiveBuffer(64, gm.PriorityLow))
		ping()
		cluster.Run(100 * gm.Millisecond)
		fmt.Printf("%-4v half round trip: %.2fus over %d rounds\n", mode, (total / (2 * rounds)).Micros(), done)
	}
	// Output:
	// GM   half round trip: 11.52us over 100 rounds
	// FTGM half round trip: 12.97us over 100 rounds
}

// A ring all-reduce (global sum) over four ranks: the MPI-style job that,
// per the paper's introduction, one interface hang kills under stock GM.
// Rank 2's interface hangs mid-job; on FTGM every rank still holds every
// round's sum.
func Example_allreduce() {
	const ranks, rounds = 4, 6
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Host.SendTokens = 256
	cluster := gm.NewCluster(cfg)
	sw := cluster.AddSwitch("sw")
	nodes := make([]*gm.Node, ranks)
	for i := range nodes {
		nodes[i] = cluster.AddNode(fmt.Sprintf("rank%d", i))
		must(cluster.Connect(nodes[i], sw, i))
	}
	_, err := cluster.Boot()
	must(err)

	// A message is (hop, sum). On hops 1..ranks-1 each rank adds its value
	// 100+rank and forwards; the rank that closes the lap holds the sum and
	// starts a broadcast lap of ranks-1 more hops.
	ports := make([]*gm.Port, ranks)
	results := make([][]uint64, ranks)
	send := func(from, hop int, sum uint64) {
		msg := binary.LittleEndian.AppendUint64([]byte{byte(hop)}, sum)
		must(ports[from].Send(nodes[(from+1)%ranks].ID(), 1, gm.PriorityLow, msg, nil))
	}
	for i := range ports {
		p, err := nodes[i].OpenPort(1)
		must(err)
		for j := 0; j < 16; j++ {
			must(p.ProvideReceiveBuffer(64, gm.PriorityLow))
		}
		p.SetReceiveHandler(func(ev gm.RecvEvent) {
			must(p.ProvideReceiveBuffer(64, gm.PriorityLow))
			hop, sum := int(ev.Data[0]), binary.LittleEndian.Uint64(ev.Data[1:])
			if hop < ranks {
				sum += uint64(100 + i)
			}
			if hop >= ranks-1 {
				results[i] = append(results[i], sum)
			}
			if hop < 2*ranks-2 {
				send(i, hop+1, sum)
			}
		})
		ports[i] = p
	}

	for r := 0; r < rounds; r++ {
		cluster.After(gm.Duration(r)*gm.Millisecond, func() { send(0, 1, 100) })
	}
	cluster.After(2*gm.Millisecond, func() {
		fmt.Printf("t=%v  rank2's interface hung\n", cluster.Now())
		nodes[2].InjectHang()
	})
	cluster.Run(5 * gm.Second)
	fmt.Println(results)
	// Output:
	// t=515.0ms  rank2's interface hung
	// [[406 406 406 406 406 406] [406 406 406 406 406 406] [406 406 406 406 406 406] [406 406 406 406 406 406]]
}

// Directed sends deposit straight into a remote port's registered memory:
// no receive tokens, no receiver-side events. The compute node stages 64
// checkpoint blocks of 8 KB into the storage node's region, one every
// 300 µs, and its interface hangs mid-transfer. The deposits resume after
// recovery and the image verifies block for block.
func ExamplePort_DirectedSend() {
	const blocks, blockSize = 64, 8192
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Host.SendTokens = 256
	cluster, compute, storage, pc, ps := pair(cfg)
	region, err := ps.RegisterMemory(blocks * blockSize)
	must(err)

	block := func(i int) []byte {
		b := make([]byte, blockSize)
		for j := range b {
			b[j] = byte(i) ^ byte(j*7)
		}
		return b
	}
	staged := 0
	for i := 0; i < blocks; i++ {
		cluster.After(gm.Duration(i)*300*gm.Microsecond, func() {
			must(pc.DirectedSend(storage.ID(), 1, region.ID, uint32(i*blockSize), block(i),
				func(s gm.SendStatus) {
					if s == gm.SendOK {
						staged++
					}
				}))
		})
	}
	cluster.After(5*gm.Millisecond, func() {
		fmt.Printf("t=%v  interface hung with %d/%d blocks staged\n", cluster.Now(), staged, blocks)
		compute.InjectHang()
	})
	cluster.Run(5 * gm.Second)

	intact := 0
	for i := 0; i < blocks; i++ {
		if bytes.Equal(region.Buf[i*blockSize:(i+1)*blockSize], block(i)) {
			intact++
		}
	}
	fmt.Printf("staged %d/%d blocks, %d intact\n", staged, blocks, intact)
	// Output:
	// t=528.0ms  interface hung with 17/64 blocks staged
	// staged 64/64 blocks, 64 intact
}

// The GM mapper re-runs after a topology change (§2): six nodes on two
// trunked switches are mapped at boot, one node's cable is cut, and the
// remap drops it. Surviving nodes keep their IDs.
func ExampleCluster_Remap() {
	cluster := gm.NewCluster(gm.DefaultConfig(gm.ModeFTGM))
	sw1, sw2 := cluster.AddSwitch("sw1"), cluster.AddSwitch("sw2")
	must(cluster.ConnectSwitches(sw1, sw2, 7, 7))
	nodes := make([]*gm.Node, 6)
	for i := range nodes {
		nodes[i] = cluster.AddNode(fmt.Sprintf("node%d", i))
		sw, port := sw1, i
		if i >= 3 {
			sw, port = sw2, i-3
		}
		must(cluster.Connect(nodes[i], sw, port))
	}
	show := func(what string, tables map[gm.NodeID]map[gm.NodeID][]byte) {
		var ids []int
		routes := 0
		for id, tbl := range tables {
			ids = append(ids, int(id))
			routes += len(tbl)
		}
		sort.Ints(ids)
		fmt.Printf("%s: IDs %v, %d routes\n", what, ids, routes)
	}
	res, err := cluster.Boot()
	must(err)
	show("boot", res.Routes)
	nodes[2].SetLinkUp(false)
	res, err = cluster.Remap()
	must(err)
	show("remap after cutting node2's cable", res.Routes)
	// Output:
	// boot: IDs [1 2 3 4 5 6], 30 routes
	// remap after cutting node2's cable: IDs [1 2 4 5 6], 20 routes
}
