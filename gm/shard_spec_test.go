package gm

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// --- Speculation probes -------------------------------------------------
//
// With cfg.Speculate the cluster's own node and switch domains are
// speculation-eligible (their state journals itself — DESIGN.md §16), and
// the trials below additionally ride a pair of co-simulated probe domains
// along with the fabric: a dense conservative ticker A whose rare transfers
// land inside the spans of a dense spec-capable ticker B. That deterministically
// forces both speculation outcomes — quiet spans commit, invaded spans roll
// back — independent of how the gm traffic happens to phase against the
// window schedule.

// workCell holds one node's test-workload state: the tick loop's peer cursor
// and the counters the fingerprint prints. The workload runs as node-domain
// event code, so on a speculating cluster it must journal itself like any
// other domain-resident component — touch() at the top of every mutating
// callback (receive handlers included).
type workCell struct {
	eng      *sim.Engine
	mark     uint64
	peer     int
	sent     int
	rejected int
	recv     int
	extra    int // trial-specific (e.g. recovery completions)

	shadow workSnap
}

type workSnap struct{ peer, sent, rejected, recv, extra int }

func (w *workCell) touch() { w.eng.SpecTouch(&w.mark, w) }

func (w *workCell) SpecSave() {
	w.shadow = workSnap{w.peer, w.sent, w.rejected, w.recv, w.extra}
}

func (w *workCell) SpecRestore() {
	s := w.shadow
	w.peer, w.sent, w.rejected, w.recv, w.extra = s.peer, s.sent, s.rejected, s.recv, s.extra
}

type probeMsg struct {
	at sim.Time
	v  uint64
}

type probeBoundary struct {
	src, dst *sim.Engine
	owner    *specProbe
	class    uint32 // arrival ordering class (sim.AtArrival)
	q        []probeMsg
	noted    bool
}

func (b *probeBoundary) BoundaryTarget() *sim.Engine { return b.dst }

func (b *probeBoundary) EarliestPending() sim.Time {
	min := sim.Forever
	for _, m := range b.q {
		if m.at < min {
			min = m.at
		}
	}
	return min
}

func (b *probeBoundary) FlushBoundary() {
	b.noted = false
	for _, m := range b.q {
		m := m
		b.dst.AtArrival(m.at, b.class, "xfer", func() { b.owner.recv(m.v) })
	}
	b.q = b.q[:0]
}

func (b *probeBoundary) send(v uint64, lat Duration) {
	b.q = append(b.q, probeMsg{at: b.src.Now() + lat, v: v})
	if !b.noted {
		b.noted = true
		b.src.NoteBoundary(b)
	}
}

type specProbe struct {
	eng      *sim.Engine
	name     string
	counter  uint64
	hash     uint64
	out      *probeBoundary // nil for pure receivers
	lat      Duration
	sendMod  uint64 // send every sendMod ticks (0 = never)
	deadline Time
}

type probeSnap struct {
	counter uint64
	hash    uint64
	outQ    []probeMsg
	noted   bool
}

func (p *specProbe) save() any {
	s := probeSnap{counter: p.counter, hash: p.hash}
	if p.out != nil {
		s.outQ = append([]probeMsg(nil), p.out.q...)
		s.noted = p.out.noted
	}
	return s
}

func (p *specProbe) restore(v any) {
	s := v.(probeSnap)
	p.counter = s.counter
	p.hash = s.hash
	if p.out != nil {
		p.out.q = append(p.out.q[:0], s.outQ...)
		p.out.noted = s.noted
	}
}

func (p *specProbe) fold(v uint64) {
	h := p.hash ^ v
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	p.hash = h ^ (h >> 27)
}

func (p *specProbe) recv(v uint64) {
	p.fold(v ^ 0xabcdef)
	p.fold(uint64(p.eng.Now()))
}

func (p *specProbe) tick() {
	p.counter++
	p.fold(p.counter)
	p.fold(uint64(p.eng.Now()))
	p.fold(p.eng.RNG().Uint64())
	if p.sendMod > 0 && p.counter%p.sendMod == 0 && p.out != nil {
		p.out.send(p.hash, p.lat)
	}
	if p.counter%97 == 0 {
		p.eng.Tracef("probe", "%s c=%d h=%x", p.name, p.counter, p.hash)
	}
	next := p.eng.Now() + 50*Nanosecond + p.eng.RNG().Duration(150*Nanosecond)
	if next <= p.deadline {
		p.eng.AtLabel(next, "tick", func() { p.tick() })
	}
}

// attachSpecProbes wires the A→B probe pair into a cluster before Boot and
// returns both probes. The horizon must stay below the probe link latency
// for spans to commit; the cluster config carries it.
func attachSpecProbes(c *Cluster, deadline Time) (a, b *specProbe) {
	root := c.Engine()
	ea := root.NewDomain("probeA")
	eb := root.NewDomain("probeB")
	const lat = Microsecond
	b = &specProbe{eng: eb, name: "B", deadline: deadline}
	a = &specProbe{eng: ea, name: "A", lat: lat, sendMod: 199, deadline: deadline}
	a.out = &probeBoundary{src: ea, dst: eb, owner: b, class: eb.ArrivalClass()}
	ea.ObserveEdgeLookahead(eb, lat)
	eb.ObserveEdgeLookahead(ea, lat)
	eb.EnableSpeculation(b.save, b.restore)
	ea.AtLabel(100*Nanosecond, "tick", func() { a.tick() })
	eb.AtLabel(130*Nanosecond, "tick", func() { b.tick() })
	return a, b
}

// runClosSpecShardTrial runs the large-cluster invariance trial: a 256-node
// Clos (4 spines, 32 leaves) with speculation armed, carrying all the fault
// machinery at once — a lossy cable (Go-Back-N), a processor hang with full
// FTGM recovery, and a transient leaf-uplink outage that blackholes a slice
// of the spine traffic until the port revives — plus the probe pair forcing
// both speculative outcomes. Returns a byte-exact fingerprint (trace hash +
// every counter) and the speculation totals.
func runClosSpecShardTrial(t *testing.T, shards int, speculate bool) (string, uint64, uint64) {
	t.Helper()
	cfg := fastRecoveryConfig(ModeFTGM, shards)
	cfg.Speculate = speculate
	cfg.SpecHorizon = 800 * Nanosecond // below the probe link latency
	c := NewCluster(cfg)
	topo, err := BuildClos(c, 4, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := attachSpecProbes(c, Time(500*Microsecond))
	// At 256 nodes the boot flood alone is megabytes of trace; hash the
	// stream instead of holding it (the hash is just as byte-exact).
	th := fnv.New64a()
	c.enableTrace(th)
	if _, err := topo.Boot(c); err != nil {
		t.Fatal(err)
	}
	n := len(topo.Nodes)
	cells := make([]*workCell, n)
	ports := make([]*Port, n)
	for i, node := range topo.Nodes {
		p, err := node.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
		cells[i] = &workCell{eng: node.Engine(), peer: (i + 1) % n}
		w := cells[i]
		p.SetReceiveHandler(func(ev RecvEvent) {
			w.touch()
			w.recv++
			_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
		})
		for j := 0; j < 8; j++ {
			if err := p.ProvideReceiveBuffer(512, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	topo.Nodes[2].Recovered = func() { cells[2].touch(); cells[2].extra++ }
	// Chaos ingredient one: a lossy cable on node 1 keeps Go-Back-N busy.
	topo.Nodes[1].Link().SetFaults(fabric.FaultProfile{DropProb: 0.05}, 7)

	stopAt := c.Now() + 2*Millisecond
	payload := make([]byte, 256)
	for i, node := range topo.Nodes {
		i := i
		eng := node.Engine()
		w := cells[i]
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt {
				return
			}
			w.touch()
			if w.peer == i {
				w.peer = (w.peer + 1) % n
			}
			if err := ports[i].Send(topo.Nodes[w.peer].ID(), 2, PriorityLow, payload, nil); err != nil {
				w.rejected++
			} else {
				w.sent++
			}
			w.peer = (w.peer + 1) % n
			eng.After(40*Microsecond, tick)
		}
		eng.After(Duration(i%16+1)*500*Nanosecond, tick)
	}
	// Chaos ingredient two: hang node 2's processor mid-traffic; the FTD
	// detects and recovers it while peers retransmit into the outage.
	c.After(300*Microsecond, func() { topo.Nodes[2].InjectHang() })
	// Netfault ingredient: kill leaf 0's uplink to spine 0 for 600 µs.
	// Every cross-leaf flow hashed onto that spine blackholes at the
	// crossbar until the port revives and Go-Back-N repairs the streams.
	// (No watchdog remap here — the outage is shorter than a suspicion —
	// just raw transient-fault pressure on the sharded schedule.)
	up := topo.PerLeaf
	c.After(800*Microsecond, func() { topo.Leaves[0].SetPortDead(up, true) })
	c.After(1400*Microsecond, func() { topo.Leaves[0].SetPortDead(up, false) })

	c.RunUntil(stopAt + 16*Millisecond)
	c.Shutdown(Millisecond)
	if cells[2].extra == 0 {
		t.Fatal("256-node trial never completed FTGM recovery on the hung node")
	}

	root := c.Engine()
	commits, rollbacks, _, _ := root.SpecStats()
	// The speculation totals stay out of the fingerprint: the fingerprint is
	// compared against the conservative run too, where they are zero by
	// definition. They are returned separately so same-mode comparisons can
	// still assert the decisions themselves are shard-invariant.
	var sum bytes.Buffer
	fmt.Fprintf(&sum, "events=%d now=%d recovered=%d trace=%x\n",
		root.ExecutedAll(), c.Now(), cells[2].extra, th.Sum64())
	fmt.Fprintf(&sum, "probeA c=%d h=%x exec=%d\nprobeB c=%d h=%x exec=%d\n",
		pa.counter, pa.hash, pa.eng.Executed(), pb.counter, pb.hash, pb.eng.Executed())
	for i, node := range topo.Nodes {
		fmt.Fprintf(&sum, "node%d sent=%d rejected=%d recv=%d mcp=%+v\n",
			i, cells[i].sent, cells[i].rejected, cells[i].recv, node.MCPStats())
	}
	return sum.String(), commits, rollbacks
}

// TestShardInvarianceSpecClos is the large-cluster contract: on a 256-node
// Clos with speculation armed and every fault class active at once (lossy
// cable, processor hang + recovery, transient uplink outage), the complete
// fingerprint — trace stream, per-node counters — and the speculation
// decisions themselves are bit-for-bit identical across 1, 4 and 8
// executors, the trial provably exercised both speculative outcomes, and
// the whole speculative run is byte-identical to the conservative one:
// run-ahead must be invisible everywhere but the wall clock.
func TestShardInvarianceSpecClos(t *testing.T) {
	serial, commits, rollbacks := runClosSpecShardTrial(t, 1, true)
	if commits == 0 {
		t.Fatalf("no speculative span committed (rollbacks=%d); probes mistuned", rollbacks)
	}
	if rollbacks == 0 {
		t.Fatalf("no speculative span rolled back (commits=%d); probes mistuned", commits)
	}
	for _, shards := range []int{4, 8} {
		got, c, r := runClosSpecShardTrial(t, shards, true)
		diffFingerprints(t, fmt.Sprintf("shards=%d", shards), serial, got)
		if c != commits || r != rollbacks {
			t.Errorf("speculation decisions differ at %d shards: c=%d r=%d, want c=%d r=%d",
				shards, c, r, commits, rollbacks)
		}
	}
	cons, c, r := runClosSpecShardTrial(t, 1, false)
	if c != 0 || r != 0 {
		t.Fatalf("conservative run reported speculation activity: c=%d r=%d", c, r)
	}
	diffFingerprints(t, "conservative", serial, cons)
}
