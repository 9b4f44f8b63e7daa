package gm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// TestFigure6HeadOfLineBlocking demonstrates the structural change of
// Figure 6: stock GM multiplexes all ports' traffic to one remote node into
// a single connection with one sequence space, so a message one port cannot
// deliver (its destination port has no buffer) blocks every other port's
// traffic to that node. FTGM's independent per-(port,dest) streams remove
// the coupling.
func TestFigure6HeadOfLineBlocking(t *testing.T) {
	check := func(mode Mode) (port2Delivered bool) {
		cl, a, b := twoNodes(t, mode)
		pa1, err := a.OpenPort(1)
		if err != nil {
			t.Fatal(err)
		}
		pa2, err := a.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		pb1, err := b.OpenPort(1)
		if err != nil {
			t.Fatal(err)
		}
		pb2, err := b.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		got2 := false
		pb1.SetReceiveHandler(func(ev RecvEvent) {})
		pb2.SetReceiveHandler(func(ev RecvEvent) { got2 = true })
		// Only port 2 on B has a buffer; port 1's message cannot land.
		if err := pb2.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
		// Port 1 first (it will starve), then port 2.
		if err := pa1.Send(b.ID(), 1, PriorityLow, []byte("starved"), nil); err != nil {
			t.Fatal(err)
		}
		if err := pa2.Send(b.ID(), 2, PriorityLow, []byte("flows"), nil); err != nil {
			t.Fatal(err)
		}
		cl.Run(5 * Millisecond)
		return got2
	}
	if check(ModeGM) {
		t.Error("stock GM: port 2 delivered despite port 1 blocking the shared connection")
	}
	if !check(ModeFTGM) {
		t.Error("FTGM: independent per-port streams still head-of-line blocked")
	}
}

func TestMultiPortRecoverySamePair(t *testing.T) {
	// Two ports open on the failing node: the FTD posts FAULT_DETECTED to
	// both, both handlers run, and both ports' traffic survives.
	cfg := DefaultConfig(ModeFTGM)
	cfg.Host.SendTokens = 256
	cl, a, b := twoNodesCfg(t, cfg)
	var pas, pbs []*Port
	for _, id := range []PortID{1, 5} {
		pa, err := a.OpenPort(id)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.OpenPort(id)
		if err != nil {
			t.Fatal(err)
		}
		pas = append(pas, pa)
		pbs = append(pbs, pb)
	}
	recv := make([]int, 2)
	for i := range pbs {
		i := i
		pbs[i].SetReceiveHandler(func(ev RecvEvent) {
			recv[i]++
			_ = pbs[i].ProvideReceiveBuffer(64, PriorityLow)
		})
		for j := 0; j < 64; j++ {
			if err := pbs[i].ProvideReceiveBuffer(64, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	const perPort = 60
	var pump func(n int)
	pump = func(n int) {
		if n >= perPort {
			return
		}
		for i := range pas {
			if err := pas[i].Send(b.ID(), pas[i].ID(), PriorityLow, []byte{byte(n)}, nil); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		cl.After(200*Microsecond, func() { pump(n + 1) })
	}
	pump(0)
	cl.After(4*Millisecond, func() { a.InjectHang() })
	cl.Run(10 * Second)
	for i := range recv {
		if recv[i] != perPort {
			t.Errorf("port %d delivered %d/%d", pas[i].ID(), recv[i], perPort)
		}
	}
	if pas[0].Stats().Recoveries != 1 || pas[1].Stats().Recoveries != 1 {
		t.Errorf("recoveries = %d, %d; want 1 each",
			pas[0].Stats().Recoveries, pas[1].Stats().Recoveries)
	}
}

func TestRepeatedFaultsTorture(t *testing.T) {
	// Multiple hangs over a long run, alternating victims, with continuous
	// audited traffic in both directions: FTGM must deliver everything
	// exactly once, in order, through every recovery.
	if testing.Short() {
		t.Skip("long torture run")
	}
	cfg := DefaultConfig(ModeFTGM)
	cfg.Host.SendTokens = 4096
	cl, a, b := twoNodesCfg(t, cfg)
	pa, _ := a.OpenPort(1)
	pb, _ := b.OpenPort(1)

	type audit struct {
		delivered int
		dups      int
		reorder   int
		next      uint64
	}
	mkAudit := func(p *Port) *audit {
		au := &audit{next: 1}
		p.SetReceiveHandler(func(ev RecvEvent) {
			id := binary.LittleEndian.Uint64(ev.Data)
			switch {
			case id == au.next:
				au.next++
			case id < au.next:
				au.dups++
			default:
				au.reorder++
			}
			au.delivered++
			_ = p.ProvideReceiveBuffer(64, PriorityLow)
		})
		for i := 0; i < 128; i++ {
			if err := p.ProvideReceiveBuffer(64, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
		return au
	}
	auB := mkAudit(pb) // audits a->b traffic
	auA := mkAudit(pa) // audits b->a traffic

	const total = 400
	sendN := func(p *Port, dest NodeID, n uint64) {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, n)
		if err := p.Send(dest, 1, PriorityLow, buf, nil); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	var na, nb uint64
	var pump func()
	pump = func() {
		if na >= total && nb >= total {
			return
		}
		if na < total {
			na++
			sendN(pa, b.ID(), na)
		}
		if nb < total {
			nb++
			sendN(pb, a.ID(), nb)
		}
		cl.After(150*Microsecond, pump)
	}
	pump()

	// Three faults: sender, receiver, then sender again, spaced well apart
	// (recovery takes ~1.8 s each).
	cl.After(10*Millisecond, func() { a.InjectHang() })
	cl.After(3*Second, func() { b.InjectHang() })
	cl.After(6*Second, func() { a.InjectHang() })

	limit := cl.Now() + 60*Second
	for (auB.delivered < total || auA.delivered < total) && cl.Now() < limit {
		cl.Run(500 * Millisecond)
	}
	// The traffic may drain before the later faults fire; play out every
	// scheduled hang and its recovery.
	if cl.Now() < 12*Second {
		cl.RunUntil(12 * Second)
	}
	if auB.delivered != total || auA.delivered != total {
		t.Fatalf("delivered a->b %d/%d, b->a %d/%d", auB.delivered, total, auA.delivered, total)
	}
	if auB.dups+auA.dups != 0 {
		t.Errorf("duplicates: %d + %d", auB.dups, auA.dups)
	}
	if auB.reorder+auA.reorder != 0 {
		t.Errorf("reorders: %d + %d", auB.reorder, auA.reorder)
	}
	if got := a.FTD().Stats().Recoveries; got != 2 {
		t.Errorf("A recoveries = %d, want 2", got)
	}
	if got := b.FTD().Stats().Recoveries; got != 1 {
		t.Errorf("B recoveries = %d, want 1", got)
	}
}

func TestSimultaneousHangBothNodes(t *testing.T) {
	// Both interfaces hang at once; both FTDs recover independently and
	// traffic resumes.
	cfg := DefaultConfig(ModeFTGM)
	cfg.Host.SendTokens = 512
	cl, a, b := twoNodesCfg(t, cfg)
	pa, _ := a.OpenPort(1)
	pb, _ := b.OpenPort(1)
	got := 0
	pb.SetReceiveHandler(func(ev RecvEvent) {
		got++
		_ = pb.ProvideReceiveBuffer(64, PriorityLow)
	})
	for i := 0; i < 32; i++ {
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	const total = 50
	sent := 0
	var pump func()
	pump = func() {
		if sent >= total {
			return
		}
		sent++
		if err := pa.Send(b.ID(), 1, PriorityLow, []byte{byte(sent)}, nil); err != nil {
			t.Fatal(err)
		}
		cl.After(200*Microsecond, pump)
	}
	pump()
	cl.After(3*Millisecond, func() {
		a.InjectHang()
		b.InjectHang()
	})
	cl.Run(15 * Second)
	if got != total {
		t.Fatalf("delivered %d/%d after double hang", got, total)
	}
	if a.FTD().Stats().Recoveries != 1 || b.FTD().Stats().Recoveries != 1 {
		t.Errorf("recoveries: A=%d B=%d", a.FTD().Stats().Recoveries, b.FTD().Stats().Recoveries)
	}
}

func TestHangWithLargeMessageInFlight(t *testing.T) {
	// A multi-fragment message is mid-transfer when the sender hangs; the
	// restored send token retransmits the whole message and it reassembles
	// intact.
	cfg := DefaultConfig(ModeFTGM)
	cfg.Host.SendTokens = 64
	cl, a, b := twoNodesCfg(t, cfg)
	pa, _ := a.OpenPort(1)
	pb, _ := b.OpenPort(1)
	size := 6*4096 + 123
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 13)
	}
	var got []byte
	pb.SetReceiveHandler(func(ev RecvEvent) { got = append([]byte(nil), ev.Data...) })
	if err := pb.ProvideReceiveBuffer(uint32(size), PriorityLow); err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(b.ID(), 1, PriorityLow, data, nil); err != nil {
		t.Fatal(err)
	}
	// Hang after ~2 fragments are on the wire (each 4 KB fragment costs
	// ~22 µs of DMA + wire).
	cl.After(50*Microsecond, func() {
		if got == nil {
			a.InjectHang()
		}
	})
	cl.Run(15 * Second)
	if got == nil {
		t.Fatal("large message never delivered")
	}
	if len(got) != size {
		t.Fatalf("delivered %d bytes, want %d", len(got), size)
	}
	for i := range got {
		if got[i] != byte(i*13) {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

// TestHangMidFragmentPipeline hangs the sender while a 4-fragment message
// has a fragment past SendProcA and short of SendProcB. The MCP's fragment
// ring then holds an entry whose remaining stages died with the hang; the
// reloaded program must start on an empty ring, or each later fragment's
// stage callbacks pop the entry ahead of their own. After recovery the
// interrupted message and a fresh one to a second peer must both arrive
// intact, exactly once.
func TestHangMidFragmentPipeline(t *testing.T) {
	cl := NewCluster(DefaultConfig(ModeFTGM))
	sw := cl.AddSwitch("sw")
	nodes := []*Node{cl.AddNode("a"), cl.AddNode("b"), cl.AddNode("c")}
	ports := make([]*Port, len(nodes))
	for i, n := range nodes {
		if err := cl.Connect(n, sw, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Boot(); err != nil {
		t.Fatal(err)
	}
	const size = 3*4096 + 100 // four fragments
	got := make([][][]byte, len(nodes))
	for i, n := range nodes {
		i := i
		p, err := n.OpenPort(1)
		if err != nil {
			t.Fatal(err)
		}
		p.SetReceiveHandler(func(ev RecvEvent) { got[i] = append(got[i], append([]byte(nil), ev.Data...)) })
		for j := 0; j < 2; j++ {
			if err := p.ProvideReceiveBuffer(size, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
		ports[i] = p
	}
	a := nodes[0]
	msg := func(seed byte) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	interrupted, fresh := msg(1), msg(2)
	if err := ports[0].Send(nodes[1].ID(), 1, PriorityLow, interrupted, nil); err != nil {
		t.Fatal(err)
	}
	// Only fragment DMAs run on the sender before its first ACK, so the
	// second DMA issued with one fragment injected is fragment 1 between
	// SendProcA and SendProcB.
	dmas, frags := a.ChipStats().HostDMAs, a.MCPStats().FragmentsSent
	for a.ChipStats().HostDMAs != dmas+2 || a.MCPStats().FragmentsSent != frags+1 {
		if a.MCPStats().FragmentsSent > frags+1 || !cl.Engine().Step() {
			t.Fatal("never caught a fragment between SendProcA and SendProcB")
		}
	}
	a.InjectHang()
	if err := ports[0].Send(nodes[2].ID(), 1, PriorityLow, fresh, nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(5 * Second)
	if n := a.FTD().Stats().Recoveries; n != 1 {
		t.Fatalf("recoveries = %d, want 1", n)
	}
	// The reloaded program injects the two messages' eight fragments and
	// nothing else: a fragment of the dead program's stream would show
	// here, and as a malformed arrival at the first peer.
	if n := a.MCPStats().FragmentsSent - frags - 1; n != 8 {
		t.Errorf("sender injected %d fragments after the hang, want 8", n)
	}
	if n := nodes[1].MCPStats().BadHeaderDrops; n != 0 {
		t.Errorf("first peer dropped %d malformed fragments, want 0", n)
	}
	for i, want := range [][]byte{interrupted, fresh} {
		if d := got[i+1]; len(d) != 1 || !bytes.Equal(d[0], want) {
			t.Errorf("node %s: %d deliveries, want the %d-byte message exactly once intact", nodes[i+1].Name(), len(d), size)
		}
	}
}

func TestEightPortsMaxOpen(t *testing.T) {
	cl, a, _ := twoNodes(t, ModeFTGM)
	var ports []*Port
	for i := 0; i < MaxPorts; i++ {
		p, err := a.OpenPort(PortID(i))
		if err != nil {
			t.Fatalf("port %d: %v", i, err)
		}
		ports = append(ports, p)
	}
	if _, err := a.OpenPort(PortID(MaxPorts)); err == nil {
		t.Error("9th port opened")
	}
	// All eight recover from a hang.
	recovered := false
	a.Recovered = func() { recovered = true }
	a.InjectHang()
	cl.Run(10 * Second)
	if !recovered {
		t.Fatal("recovery with 8 open ports did not finish")
	}
	for _, p := range ports {
		if p.Stats().Recoveries != 1 {
			t.Errorf("port %d recoveries = %d", p.ID(), p.Stats().Recoveries)
		}
	}
}

func TestSendDuringOutageIsTransparent(t *testing.T) {
	// Sends issued while the interface is down queue in the shadow store
	// and complete after recovery — the application sees ordinary callback
	// completion, never an error.
	cfg := DefaultConfig(ModeFTGM)
	cfg.Host.SendTokens = 64
	cl, a, b := twoNodesCfg(t, cfg)
	pa, _ := a.OpenPort(1)
	pb, _ := b.OpenPort(1)
	delivered := 0
	pb.SetReceiveHandler(func(ev RecvEvent) { delivered++ })
	for i := 0; i < 8; i++ {
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	a.InjectHang()
	cl.Run(1 * Millisecond)
	// The interface is already dead when these sends are posted.
	statuses := make([]SendStatus, 0, 3)
	for i := 0; i < 3; i++ {
		if err := pa.Send(b.ID(), 1, PriorityLow, []byte{byte(i)}, func(s SendStatus) {
			statuses = append(statuses, s)
		}); err != nil {
			t.Fatalf("send during outage: %v", err)
		}
	}
	cl.Run(10 * Second)
	if delivered != 3 {
		t.Fatalf("delivered %d/3", delivered)
	}
	if len(statuses) != 3 {
		t.Fatalf("callbacks fired %d/3", len(statuses))
	}
	for _, s := range statuses {
		if s != SendOK {
			t.Errorf("status = %v", s)
		}
	}
}

func TestFourNodeHangOnlyAffectsVictimPaths(t *testing.T) {
	// In a 4-node cluster, node 0 hangs; traffic between nodes 1<->2 is
	// never disturbed, and traffic to/from node 0 resumes after recovery.
	cfg := DefaultConfig(ModeFTGM)
	cfg.Host.SendTokens = 512
	cl := NewCluster(cfg)
	sw := cl.AddSwitch("sw")
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n := cl.AddNode(fmt.Sprintf("n%d", i))
		if err := cl.Connect(n, sw, i); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	if _, err := cl.Boot(); err != nil {
		t.Fatal(err)
	}
	ports := make([]*Port, 4)
	recv := make([]int, 4)
	for i, n := range nodes {
		i := i
		p, err := n.OpenPort(1)
		if err != nil {
			t.Fatal(err)
		}
		p.SetReceiveHandler(func(ev RecvEvent) {
			recv[i]++
			_ = p.ProvideReceiveBuffer(64, PriorityLow)
		})
		for j := 0; j < 64; j++ {
			if err := p.ProvideReceiveBuffer(64, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
		ports[i] = p
	}
	// 1->2 bystander stream and 0->3 victim stream.
	const total = 80
	var i12, i03 int
	var bystanderStalled bool
	var lastRecv12 Time
	var pump func()
	pump = func() {
		if i12 < total {
			i12++
			if err := ports[1].Send(nodes[2].ID(), 1, PriorityLow, []byte{1}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if i03 < total {
			i03++
			if err := ports[0].Send(nodes[3].ID(), 1, PriorityLow, []byte{3}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if i12 < total || i03 < total {
			cl.After(300*Microsecond, pump)
		}
	}
	pump()
	cl.After(5*Millisecond, func() { nodes[0].InjectHang() })
	// Watch the bystander stream for stalls during the outage window.
	var watch func()
	watch = func() {
		if cl.Now() > 2*Second {
			return
		}
		if recv[2] > 0 && cl.Now()-lastRecv12 > 200*Millisecond && recv[2] < total {
			bystanderStalled = true
		}
		cl.After(50*Millisecond, watch)
	}
	prev := 0
	var track func()
	track = func() {
		if recv[2] != prev {
			prev = recv[2]
			lastRecv12 = cl.Now()
		}
		if cl.Now() < 2*Second {
			cl.After(10*Millisecond, track)
		}
	}
	track()
	watch()
	cl.Run(15 * Second)
	if recv[2] != total {
		t.Errorf("bystander stream delivered %d/%d", recv[2], total)
	}
	if recv[3] != total {
		t.Errorf("victim stream delivered %d/%d after recovery", recv[3], total)
	}
	if bystanderStalled {
		t.Error("bystander traffic stalled during an unrelated node's recovery")
	}
}
