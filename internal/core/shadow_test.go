package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gmproto"
	"repro/internal/sim"
)

// storeModel is the reference the store is checked against: a map per queue
// with an explicit posting-order slice, and a map of sequence cursors.
type storeModel struct {
	sends     map[uint64]gmproto.SendToken
	sendOrder []uint64
	recvs     map[uint64]gmproto.RecvToken
	recvOrder []uint64
	seqs      map[seqKey]uint32
}

func newStoreModel() *storeModel {
	return &storeModel{
		sends: make(map[uint64]gmproto.SendToken),
		recvs: make(map[uint64]gmproto.RecvToken),
		seqs:  make(map[seqKey]uint32),
	}
}

// toBack moves id to the back of order (fresh and re-added ids queue last).
func toBack(order []uint64, id uint64) []uint64 {
	order = slices.DeleteFunc(order, func(v uint64) bool { return v == id })
	return append(order, id)
}

// storeOp is one mutation applied to a store and to the model alike;
// opRead asks for an ordered read of both instead.
type storeOp struct {
	kind uint8
	id   uint64
	val  uint32
}

const (
	opAddSend uint8 = iota
	opRemoveSend
	opAddRecv
	opRemoveRecv
	opNextSeq
	opRead
	numStoreOps
)

// run applies op to a store; for opNextSeq it returns the number minted.
func (op storeOp) run(s *ShadowStore) uint32 {
	switch op.kind {
	case opAddSend:
		s.AddSendToken(gmproto.SendToken{ID: op.id, Seq: op.val})
	case opRemoveSend:
		s.RemoveSendToken(op.id)
	case opAddRecv:
		s.AddRecvToken(gmproto.RecvToken{ID: op.id, Size: op.val})
	case opRemoveRecv:
		s.RemoveRecvToken(op.id)
	case opNextSeq:
		return s.NextSeq(op.seqKey().node, op.seqKey().prio)
	}
	return 0
}

func (op storeOp) seqKey() seqKey {
	return seqKey{node: gmproto.NodeID(op.id % 4), prio: gmproto.Priority(op.val % 2)}
}

// apply is run on the model.
func (m *storeModel) apply(op storeOp) uint32 {
	switch op.kind {
	case opAddSend:
		if _, live := m.sends[op.id]; !live {
			m.sendOrder = toBack(m.sendOrder, op.id)
		}
		m.sends[op.id] = gmproto.SendToken{ID: op.id, Seq: op.val}
	case opRemoveSend:
		delete(m.sends, op.id)
	case opAddRecv:
		if _, live := m.recvs[op.id]; !live {
			m.recvOrder = toBack(m.recvOrder, op.id)
		}
		m.recvs[op.id] = gmproto.RecvToken{ID: op.id, Size: op.val}
	case opRemoveRecv:
		delete(m.recvs, op.id)
	case opNextSeq:
		m.seqs[op.seqKey()]++
		return m.seqs[op.seqKey()]
	}
	return 0
}

// fingerprint renders the model the way storeFingerprint renders the store.
func (m *storeModel) fingerprint() string {
	var sends []gmproto.SendToken
	for _, id := range m.sendOrder {
		if tok, live := m.sends[id]; live {
			sends = append(sends, tok)
		}
	}
	var recvs []gmproto.RecvToken
	for _, id := range m.recvOrder {
		if tok, live := m.recvs[id]; live {
			recvs = append(recvs, tok)
		}
	}
	var streams []SeqStream
	for k, v := range m.seqs {
		streams = append(streams, SeqStream{Node: k.node, Prio: k.prio, Last: v})
	}
	slices.SortFunc(streams, func(a, b SeqStream) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return int(a.Prio) - int(b.Prio)
	})
	return renderStore(sends, recvs, len(m.sends), len(m.recvs), streams)
}

// storeFingerprint renders everything a store exposes: both queues in
// posting order, the counts and the sequence cursors.
func storeFingerprint(s *ShadowStore) string {
	ns, nr := s.Counts()
	return renderStore(s.OutstandingSends(), s.OutstandingRecvs(), ns, nr, s.AppendSeqStreams(nil))
}

func renderStore(sends []gmproto.SendToken, recvs []gmproto.RecvToken, ns, nr int, streams []SeqStream) string {
	out := fmt.Sprintf("n=%d/%d sends", ns, nr)
	for _, t := range sends {
		out += fmt.Sprintf(" %d:%d", t.ID, t.Seq)
	}
	out += " recvs"
	for _, t := range recvs {
		out += fmt.Sprintf(" %d:%d", t.ID, t.Size)
	}
	return out + fmt.Sprintf(" seqs %v", streams)
}

// Property: under any interleaving of adds, removes and sequence draws on
// both queues — with ordered reads in the middle of the sequence, not only
// at its end — the store behaves exactly like the model.
func TestPropertyShadowStoreModel(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewShadowStore(1)
		m := newStoreModel()
		for _, v := range ops {
			op := storeOp{kind: uint8(v>>8) % numStoreOps, id: uint64(v%32) + 1, val: uint32(v)}
			if op.kind == opRead && storeFingerprint(s) != m.fingerprint() {
				return false
			}
			if op.run(s) != m.apply(op) {
				return false
			}
		}
		return storeFingerprint(s) == m.fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// specFeed is the producer half of the speculation harness: a boundary from
// a dense ticker's domain into the store's domain. Each transfer lands
// inside a span the store's domain has already run through and rolls it
// back.
type specFeed struct {
	src, dst *sim.Engine
	class    uint32
	at       []sim.Time
	noted    bool
}

func (b *specFeed) BoundaryTarget() *sim.Engine { return b.dst }

func (b *specFeed) EarliestPending() sim.Time {
	if len(b.at) == 0 {
		return sim.Forever
	}
	return b.at[0]
}

func (b *specFeed) FlushBoundary() {
	b.noted = false
	for _, at := range b.at {
		b.dst.AtArrival(at, b.class, "xfer", func() {})
	}
	b.at = b.at[:0]
}

func (b *specFeed) send(lat sim.Duration) {
	b.at = append(b.at, b.src.Now()+lat)
	if !b.noted {
		b.noted = true
		b.src.NoteBoundary(b)
	}
}

// Property: a store bound to a speculating domain rolls back to exactly its
// span-start state and commits to exactly the model's. A ticker on the
// store's domain applies random adds, removes, re-adds and sequence draws;
// a neighbour's rare transfers land inside its spans and force rollbacks.
// Ticks are numbered by a journaled counter, so a tick that runs again was
// rolled back: the store it finds must read — Outstanding*, Counts,
// SeqStreams — as it did the first time, which for the first tick of a span
// is the span-start state. After the run, replaying the (now committed) op
// log on the model must reproduce every tick's reading and the final one.
func TestPropertyShadowStoreSpeculation(t *testing.T) {
	const (
		lat      = 1 * sim.Microsecond
		deadline = sim.Time(300 * sim.Microsecond)
	)
	root := sim.NewEngine(2003)
	root.SetShards(1)
	root.SetSpeculation(800 * sim.Nanosecond)
	ea, eb := root.NewDomain("feeder"), root.NewDomain("store")
	ea.ObserveEdgeLookahead(eb, lat)
	eb.ObserveEdgeLookahead(ea, lat)

	// The feeder ticks densely, so the store domain's earliest-affect bound
	// advances every window and quiet spans commit, and sends rarely.
	feed := &specFeed{src: ea, dst: eb, class: eb.ArrivalClass()}
	feeds := 0
	var feedTick func()
	feedTick = func() {
		if feeds++; feeds%199 == 0 {
			feed.send(lat)
		}
		if next := ea.Now() + 50*sim.Nanosecond + ea.RNG().Duration(150*sim.Nanosecond); next <= deadline {
			ea.AtLabel(next, "tick", feedTick)
		}
	}
	ea.AtLabel(100*sim.Nanosecond, "tick", feedTick)

	s := NewShadowStore(1)
	s.Bind(eb)
	var (
		tick  int                   // journaled by the domain hooks below
		found = map[int]string{}    // tick → store reading before its ops
		log   = map[int][]storeOp{} // tick → ops it applied
		reran int
	)
	eb.EnableSpeculation(func() any { return tick }, func(v any) { tick = v.(int) })
	var storeTick func()
	storeTick = func() {
		k := tick
		tick++
		got := storeFingerprint(s)
		if want, ran := found[k]; ran {
			reran++
			if got != want {
				t.Errorf("tick %d after rollback reads\n  %s\nwant the first reading\n  %s", k, got, want)
			}
		}
		found[k] = got
		ops := log[k][:0]
		for n := 1 + eb.RNG().Intn(4); n > 0; n-- {
			r := eb.RNG().Uint64()
			op := storeOp{kind: uint8(r>>32) % opRead, id: r%24 + 1, val: uint32(r >> 8)}
			ops = append(ops, op)
			op.run(s)
		}
		log[k] = ops
		if next := eb.Now() + 50*sim.Nanosecond + eb.RNG().Duration(150*sim.Nanosecond); next <= deadline {
			eb.AtLabel(next, "tick", storeTick)
		}
	}
	eb.AtLabel(130*sim.Nanosecond, "tick", storeTick)
	root.RunUntil(deadline)

	commits, rollbacks, _, _ := root.SpecStats()
	if commits == 0 || rollbacks == 0 || reran == 0 {
		t.Fatalf("harness did not exercise both outcomes: commits=%d rollbacks=%d ticks rerun=%d", commits, rollbacks, reran)
	}
	m := newStoreModel()
	for k := 0; k < tick; k++ {
		if got, want := found[k], m.fingerprint(); got != want {
			t.Fatalf("tick %d found\n  %s\nmodel has\n  %s", k, got, want)
		}
		for _, op := range log[k] {
			m.apply(op)
		}
	}
	if got, want := storeFingerprint(s), m.fingerprint(); got != want {
		t.Errorf("committed store\n  %s\nmodel\n  %s", got, want)
	}
}

// ageStore runs n add/remove cycles through s with at most live tokens
// outstanding per queue, ids never reused (as gm issues them).
func ageStore(s *ShadowStore, id *uint64, n, live int) {
	for i := 0; i < n; i++ {
		shadowCycle(s, id, live)
	}
}

// shadowCycle is one message's worth of backup work on each side: mint a
// sequence number, post a send and a receive token, retire the oldest of
// each once live are outstanding.
func shadowCycle(s *ShadowStore, id *uint64, live int) {
	*id++
	seq := s.NextSeq(1, gmproto.PriorityLow)
	s.AddSendToken(gmproto.SendToken{ID: *id, Dest: 1, Seq: seq, HasSeq: true})
	s.AddRecvToken(gmproto.RecvToken{ID: *id, Size: 64})
	if *id > uint64(live) {
		s.RemoveSendToken(*id - uint64(live))
		s.RemoveRecvToken(*id - uint64(live))
	}
}

// The store's cost must not depend on how many tokens it has seen. Aging it
// through 200k cycles at 64 live may allocate only what 64 live tokens need
// (an order log or id history grows by megabytes here), and afterwards one
// more cycle and a warmed ordered read allocate nothing.
func TestShadowStoreAgeIndependent(t *testing.T) {
	const live = 64
	s := NewShadowStore(1)
	var id uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ageStore(s, &id, 200_000, live)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("aging the store allocated %d bytes; want memory bounded by the %d live tokens", grew, live)
	}
	sends := s.AppendOutstandingSends(nil)
	recvs := s.AppendOutstandingRecvs(nil)
	if len(sends) != live || len(recvs) != live || sends[0].ID != id-live+1 || sends[live-1].ID != id {
		t.Fatalf("aged store holds %d/%d tokens, sends %d..%d; want %d each, ids %d..%d",
			len(sends), len(recvs), sends[0].ID, sends[len(sends)-1].ID, live, id-live+1, id)
	}
	if n := testing.AllocsPerRun(1000, func() { shadowCycle(s, &id, live) }); n != 0 {
		t.Errorf("one cycle on an aged store allocates %.2f, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sends = s.AppendOutstandingSends(sends[:0])
		recvs = s.AppendOutstandingRecvs(recvs[:0])
	}); n != 0 {
		t.Errorf("a warmed ordered read on an aged store allocates %.2f, want 0", n)
	}
}

func BenchmarkShadowCycle(b *testing.B) {
	for _, c := range []struct {
		name string
		age  int
	}{{"aged1k", 1_000}, {"aged100k", 100_000}} {
		b.Run(c.name, func(b *testing.B) {
			s := NewShadowStore(1)
			var id uint64
			ageStore(s, &id, c.age, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shadowCycle(s, &id, 64)
			}
		})
	}
}

// Token ids never repeat, so a store's maps see endless fresh-key churn. A
// fresh store must absorb it at GM's live token counts without allocating:
// a map grown on demand keeps rehashing here.
func TestShadowStoreChurnAllocFree(t *testing.T) {
	const (
		live   = 32
		cycles = 10_000
	)
	// AllocsPerRun makes one unmeasured warm-up call, so each call gets its
	// own fresh store; the sequence map's one key is minted up front.
	stores := []*ShadowStore{NewShadowStore(1), NewShadowStore(1)}
	for _, s := range stores {
		s.NextSeq(1, gmproto.PriorityLow)
	}
	call := 0
	if n := testing.AllocsPerRun(1, func() {
		var id uint64
		ageStore(stores[call], &id, cycles, live)
		call++
	}); n != 0 {
		t.Errorf("%d add/remove cycles at %d live allocate %.0f, want 0", cycles, live, n)
	}
}
