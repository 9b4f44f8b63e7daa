package sim

import (
	"fmt"
	"strings"
	"testing"
)

// --- Toy speculation harness -------------------------------------------
//
// A ring of domains, each running an RNG-paced ticker that folds a running
// hash and periodically sends its hash across a TimedBoundary to the next
// domain. Every domain registers speculation hooks, so the harness
// exercises the full span lifecycle: journaled execution, commits on quiet
// windows, rollbacks when a neighbor's transfer (or possible transfer)
// lands inside a span. Fingerprints cover component state, event counts,
// speculation outcomes and the merged trace stream — byte-equal across
// every shard count is the contract under test.

type toyMsg struct {
	at Time
	v  uint64
}

type toyBoundary struct {
	src, dst *Engine
	owner    *toyDom // receiving component
	class    uint32  // arrival ordering class (AtArrival)
	q        []toyMsg
	noted    bool
}

func (b *toyBoundary) BoundaryTarget() *Engine { return b.dst }

func (b *toyBoundary) EarliestPending() Time {
	min := Forever
	for _, m := range b.q {
		if m.at < min {
			min = m.at
		}
	}
	return min
}

func (b *toyBoundary) FlushBoundary() {
	b.noted = false
	for _, m := range b.q {
		m := m
		b.dst.AtArrival(m.at, b.class, "xfer", func() { b.owner.recv(m.v) })
	}
	b.q = b.q[:0]
}

func (b *toyBoundary) send(v uint64, lat Duration) {
	b.q = append(b.q, toyMsg{at: b.src.Now() + lat, v: v})
	if !b.noted {
		b.noted = true
		b.src.NoteBoundary(b)
	}
}

type toyDom struct {
	eng      *Engine
	idx      int
	counter  uint64
	hash     uint64
	out      *toyBoundary // boundary this domain produces into (nil for sinks)
	lat      Duration
	sendMod  uint64 // send every sendMod ticks (0 = never)
	deadline Time
}

// toySnap is the component checkpoint the speculation hooks copy.
type toySnap struct {
	counter uint64
	hash    uint64
	outQ    []toyMsg
	noted   bool
}

func (d *toyDom) save() any {
	s := toySnap{counter: d.counter, hash: d.hash}
	if d.out != nil {
		s.outQ = append([]toyMsg(nil), d.out.q...)
		s.noted = d.out.noted
	}
	return s
}

func (d *toyDom) restore(v any) {
	s := v.(toySnap)
	d.counter = s.counter
	d.hash = s.hash
	if d.out != nil {
		d.out.q = append(d.out.q[:0], s.outQ...)
		d.out.noted = s.noted
	}
}

func (d *toyDom) fold(v uint64) {
	h := d.hash ^ v
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	d.hash = h ^ (h >> 27)
}

func (d *toyDom) recv(v uint64) {
	d.fold(v ^ 0xabcdef)
	d.fold(uint64(d.eng.Now()))
}

func (d *toyDom) tick() {
	d.counter++
	d.fold(d.counter)
	d.fold(uint64(d.eng.Now()))
	d.fold(d.eng.RNG().Uint64())
	if d.sendMod > 0 && d.counter%d.sendMod == 0 && d.out != nil {
		d.out.send(d.hash, d.lat)
	}
	if d.counter%97 == 0 {
		d.eng.Tracef("toy", "dom%d c=%d h=%x", d.idx, d.counter, d.hash)
	}
	next := d.eng.Now() + 50*Nanosecond + d.eng.RNG().Duration(150*Nanosecond)
	if next <= d.deadline {
		d.eng.AtLabel(next, "tick", func() { d.tick() })
	}
}

// runToyRing builds an n-domain ring, runs it to the deadline (stopping
// once at pause first, when pause > 0) and returns a full fingerprint of the
// simulated state plus the speculation counters (commits, rollbacks and
// their event counts).
func runToyRing(n, shards, threshold int, horizon Duration, pause, deadline Time) (string, [4]uint64) {
	root := NewEngine(42)
	root.SetShards(shards)
	if threshold > 0 {
		root.SetParallelThreshold(threshold)
	}
	if horizon > 0 {
		root.SetSpeculation(horizon)
	}
	var trace strings.Builder
	root.SetTrace(func(at Time, comp, format string, args ...any) {
		fmt.Fprintf(&trace, "[%d] %s %s\n", at, comp, fmt.Sprintf(format, args...))
	})
	const lat = 1 * Microsecond
	doms := make([]*toyDom, n)
	for i := range doms {
		doms[i] = &toyDom{
			eng:      root.NewDomain(fmt.Sprintf("d%d", i)),
			idx:      i,
			lat:      lat,
			sendMod:  13,
			deadline: deadline,
		}
	}
	for i, d := range doms {
		next := doms[(i+1)%n]
		d.out = &toyBoundary{src: d.eng, dst: next.eng, owner: next, class: next.eng.ArrivalClass()}
		d.eng.ObserveEdgeLookahead(next.eng, lat)
	}
	for _, d := range doms {
		d := d
		if horizon > 0 {
			d.eng.EnableSpeculation(d.save, d.restore)
		}
		d.eng.AtLabel(Time(100+d.idx*7)*Nanosecond, "tick", func() { d.tick() })
	}
	if pause > 0 {
		root.RunUntil(pause)
	}
	root.RunUntil(deadline)
	var fp strings.Builder
	for _, d := range doms {
		fmt.Fprintf(&fp, "dom%d c=%d h=%x exec=%d now=%d\n",
			d.idx, d.counter, d.hash, d.eng.Executed(), d.eng.Now())
	}
	var spec [4]uint64
	spec[0], spec[1], spec[2], spec[3] = root.SpecStats()
	fp.WriteString(trace.String())
	return fp.String(), spec
}

// TestSpecRingInvariance is the core contract: with speculation armed, the
// complete observable state — component hashes, event counts, speculation
// outcomes, merged trace bytes — is identical for every executor count and
// every dispatch threshold. A run stopped once mid-way by RunUntil ends in
// the same state too; only its speculation outcomes may differ, because the
// stop moves the barriers that resolve spans.
func TestSpecRingInvariance(t *testing.T) {
	const deadline = Time(300 * Microsecond)
	ref, refSpec := runToyRing(12, 1, 0, 6*Microsecond, 0, deadline)
	if refSpec[0] == 0 {
		t.Fatalf("workload never committed a speculative span; harness is not exercising speculation")
	}
	for _, cfg := range []struct {
		shards, threshold int
		pause             Time
	}{
		{2, 0, 0}, {4, 0, 0}, {8, 0, 0}, {4, 1, 0}, {4, 100, 0},
		{1, 0, 150 * Microsecond}, {4, 0, 150 * Microsecond}, {8, 0, 150 * Microsecond},
	} {
		got, spec := runToyRing(12, cfg.shards, cfg.threshold, 6*Microsecond, cfg.pause, deadline)
		if got != ref {
			t.Errorf("shards=%d threshold=%d pause=%v diverged from serial run:\n--- serial ---\n%.400s\n--- got ---\n%.400s",
				cfg.shards, cfg.threshold, cfg.pause, ref, got)
		}
		if cfg.pause == 0 && spec != refSpec {
			t.Errorf("shards=%d threshold=%d: speculation outcomes %v, serial run %v",
				cfg.shards, cfg.threshold, spec, refSpec)
		}
	}
}

// runToyRollback wires a sparse sender A into a dense spec-capable ticker B
// (edges both ways, so neither runs away): B's spans repeatedly overlap A's
// next possible — and periodically actual — transfer, forcing rollbacks.
func runToyRollback(shards int, horizon Duration) (string, uint64, uint64) {
	root := NewEngine(7)
	root.SetShards(shards)
	if horizon > 0 {
		root.SetSpeculation(horizon)
	}
	var trace strings.Builder
	root.SetTrace(func(at Time, comp, format string, args ...any) {
		fmt.Fprintf(&trace, "[%d] %s %s\n", at, comp, fmt.Sprintf(format, args...))
	})
	const lat = 1 * Microsecond
	const deadline = Time(200 * Microsecond)
	ea := root.NewDomain("A")
	eb := root.NewDomain("B")
	b := &toyDom{eng: eb, idx: 1, deadline: deadline}
	// A ticks densely (so B's earliest-affect bound advances every window,
	// letting quiet spans commit) and sends rarely — each send's arrival
	// lands at the start of a span B has already executed through, forcing
	// a rollback.
	a := &toyDom{eng: ea, idx: 0, lat: lat, sendMod: 199, deadline: deadline}
	a.out = &toyBoundary{src: ea, dst: eb, owner: b, class: eb.ArrivalClass()}
	ea.ObserveEdgeLookahead(eb, lat)
	eb.ObserveEdgeLookahead(ea, lat)
	if horizon > 0 {
		eb.EnableSpeculation(b.save, b.restore)
	}
	ea.AtLabel(100*Nanosecond, "tick", func() { a.tick() })
	eb.AtLabel(130*Nanosecond, "tick", func() { b.tick() })
	root.RunUntil(deadline)
	var fp strings.Builder
	fmt.Fprintf(&fp, "B c=%d h=%x exec=%d\nA c=%d h=%x exec=%d\n",
		b.counter, b.hash, eb.Executed(), a.counter, a.hash, ea.Executed())
	fp.WriteString(trace.String())
	commits, rollbacks, _, _ := root.SpecStats()
	return fp.String(), commits, rollbacks
}

// TestSpecForcedRollback injects boundary transfers that land inside
// speculated spans and checks three things: rollbacks actually happen,
// commits still happen in the quiet stretches, and the final state is
// byte-identical both across shard counts and against a fully conservative
// (speculation-off) run of the same workload.
func TestSpecForcedRollback(t *testing.T) {
	ref, commits, rollbacks := runToyRollback(1, 800*Nanosecond)
	if rollbacks == 0 {
		t.Fatalf("no span rolled back; the late transfers never landed inside a span (commits=%d)", commits)
	}
	if commits == 0 {
		t.Fatalf("no span committed; speculation never paid off (rollbacks=%d)", rollbacks)
	}
	for _, shards := range []int{2, 4} {
		got, _, rb := runToyRollback(shards, 800*Nanosecond)
		if got != ref {
			t.Errorf("shards=%d diverged under forced rollbacks:\n--- serial ---\n%.400s\n--- got ---\n%.400s", shards, ref, got)
		}
		if rb != rollbacks {
			t.Errorf("shards=%d: %d rollbacks, want %d (decisions must be executor-count invariant)", shards, rb, rollbacks)
		}
	}
	cons, _, _ := runToyRollback(1, 0)
	if cons != ref {
		t.Errorf("speculative run diverged from conservative run:\n--- conservative ---\n%.400s\n--- speculative ---\n%.400s", cons, ref)
	}
}

// TestZeroLookaheadPanics: domains with no registered lookahead used to
// silently degrade to 1 ns windows; now the first Run must refuse loudly.
func TestZeroLookaheadPanics(t *testing.T) {
	root := NewEngine(1)
	d1 := root.NewDomain("a")
	d2 := root.NewDomain("b")
	d1.AtLabel(10, "x", func() {})
	d2.AtLabel(20, "x", func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("Run with domains but no lookahead did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("panic message does not mention lookahead: %v", r)
		}
	}()
	root.Run()
}

// TestRNGStateRestoreRoundTrip: Restore(State()) must replay the identical
// stream, arbitrarily often and from any point.
func TestRNGStateRestoreRoundTrip(t *testing.T) {
	r := NewRNG(12345)
	for i := 0; i < 10; i++ {
		r.Uint64() // advance to an arbitrary mid-stream point
	}
	s := r.State()
	var first [32]uint64
	for i := range first {
		first[i] = r.Uint64()
	}
	f1, p1 := r.Float64(), r.perm(16)
	r.Restore(s)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after Restore = %#x, want %#x", i, got, first[i])
		}
	}
	f2, p2 := r.Float64(), r.perm(16)
	if f1 != f2 {
		t.Fatalf("Float64 after Restore = %v, want %v", f2, f1)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("perm after Restore = %v, want %v", p2, p1)
		}
	}
	// Restoring twice from the same snapshot replays again.
	r.Restore(s)
	if got := r.Uint64(); got != first[0] {
		t.Fatalf("second Restore: draw = %#x, want %#x", got, first[0])
	}
}

// TestSpeculationGuards covers the API misuse panics.
func TestSpeculationGuards(t *testing.T) {
	root := NewEngine(1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("EnableSpeculation on control engine", func() {
		root.EnableSpeculation(func() any { return nil }, func(any) {})
	})
	d := root.NewDomain("a")
	mustPanic("EnableSpeculation with nil hooks", func() {
		d.EnableSpeculation(nil, nil)
	})
	mustPanic("ObserveEdgeLookahead with zero latency", func() {
		d.ObserveEdgeLookahead(root, 0)
	})
	mustPanic("ObserveEdgeLookahead across coordinators", func() {
		other := NewEngine(2)
		d.ObserveEdgeLookahead(other, Microsecond)
	})
}
