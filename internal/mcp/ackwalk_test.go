package mcp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gmproto"
	"repro/internal/sim"
)

// refAckWalk is the reference model for ackPrefix: the full-window walk
// handleAck and handleNack used to run, which completes every in-flight
// message with seq < end wherever it sits and re-appends every other entry.
// It returns the token IDs it completes, in order, and those of the window
// it leaves.
func refAckWalk(window []*txMsg, end uint64) (done, rest []uint64) {
	for _, msg := range window {
		if uint64(msg.seq) < end && msg.inFlight {
			done = append(done, msg.tok.ID)
			continue
		}
		rest = append(rest, msg.tok.ID)
	}
	return done, rest
}

// randomWindow builds a seq-sorted window of n messages starting at base,
// with random gaps and a random mix of inFlight/sending/failed flags.
func randomWindow(rng *rand.Rand, n int, base uint32, nextID *uint64) []*txMsg {
	w := make([]*txMsg, 0, n)
	seq := uint64(base)
	for i := 0; i < n && seq <= math.MaxUint32; i++ {
		*nextID++
		msg := &txMsg{seq: uint32(seq)}
		msg.tok.ID = *nextID
		msg.tok.SrcPort = 1
		msg.inFlight = rng.Intn(10) < 6
		msg.sending = rng.Intn(5) == 0
		msg.failed = rng.Intn(10) == 0
		w = append(w, msg)
		seq += 1 + uint64(rng.Intn(3)) // gaps: restored tokens are not dense
	}
	return w
}

// randomEnd draws an ACK bound below, inside or above the window (and at
// the edges of the uint32 sequence space).
func randomEnd(rng *rand.Rand, w []*txMsg) uint64 {
	if len(w) == 0 || rng.Intn(8) == 0 {
		return uint64(rng.Int63n(math.MaxUint32 + 2))
	}
	lo, hi := uint64(w[0].seq), uint64(w[len(w)-1].seq)
	switch rng.Intn(4) {
	case 0: // below the window
		return lo - uint64(rng.Int63n(int64(lo)+1))
	case 1: // above it
		return hi + 1 + uint64(rng.Intn(5))
	case 2: // on a window entry
		return uint64(w[rng.Intn(len(w))].seq) + uint64(rng.Intn(2))
	default: // anywhere inside, gaps included
		return lo + uint64(rng.Int63n(int64(hi-lo)+2))
	}
}

// TestAckPrefixMatchesFullWalk is the equivalence property behind the
// prefix-only ACK walk: on any seq-sorted window, for any cumulative bound
// (an ACK's AckSeq+1 or a NACK's expected seq), ackPrefix completes the same
// messages in the same order, leaves the same window and counts the same
// MsgsAcked as the full-window walk it replaced.
func TestAckPrefixMatchesFullWalk(t *testing.T) {
	p := newPair(t, ModeFTGM)
	p.openPorts(1)
	m := p.a
	rng := rand.New(rand.NewSource(2003))
	var nextID uint64
	for trial := 0; trial < 3000; trial++ {
		base := uint32(rng.Int63n(math.MaxUint32 + 1))
		if rng.Intn(4) == 0 {
			base = uint32(rng.Intn(8)) // near zero: bounds below the window hit 0
		}
		w := randomWindow(rng, rng.Intn(70), base, &nextID)
		end := randomEnd(rng, w)
		if rng.Intn(2) == 0 {
			// A NACK's bound is the receiver's expected seq; an ACK's is
			// AckSeq+1. Both reach ackPrefix as an exclusive end.
			end = min(end, math.MaxUint32)
		}
		wantDone, wantRest := refAckWalk(w, end)

		s := &txStream{window: w}
		evBefore := len(m.evQ)
		ackedBefore := m.stats.MsgsAcked
		m.ackPrefix(s, end)

		var gotDone []uint64
		for _, it := range m.evQ[evBefore:] {
			if it.ev.Type != gmproto.EvSent {
				t.Fatalf("trial %d: completion posted %v, want EvSent", trial, it.ev.Type)
			}
			gotDone = append(gotDone, it.ev.TokenID)
		}
		gotRest := make([]uint64, 0, len(s.window))
		for _, msg := range s.window {
			gotRest = append(gotRest, msg.tok.ID)
		}
		if !slices.Equal(gotDone, wantDone) {
			t.Fatalf("trial %d (end %d, %d msgs): completed %v, reference %v", trial, end, len(w), gotDone, wantDone)
		}
		if !slices.Equal(gotRest, wantRest) {
			t.Fatalf("trial %d (end %d, %d msgs): window %v, reference %v", trial, end, len(w), gotRest, wantRest)
		}
		if got := m.stats.MsgsAcked - ackedBefore; got != uint64(len(wantDone)) {
			t.Fatalf("trial %d: MsgsAcked +%d, reference +%d", trial, got, len(wantDone))
		}
		// Drop the posted completions; the engine never runs in this test.
		for i := evBefore; i < len(m.evQ); i++ {
			m.evQ[i] = evItem{}
		}
		m.evQ = m.evQ[:evBefore]
	}
}

// TestWindowSortedAfterRestoredTokens checks the invariant ackPrefix relies
// on: when serviceSendQueues takes restored tokens (lower host-assigned
// seqs, as FTD re-posts them after a recovery) interleaved with fresh sends,
// the needSort path leaves the whole window sorted by seq — including the
// messages already in flight from an earlier round.
func TestWindowSortedAfterRestoredTokens(t *testing.T) {
	p := newPair(t, ModeFTGM)
	p.openPorts(1)
	p.linkOf(1).SetUp(false) // no ACKs: every message stays in the window
	post := func(seqs ...uint32) {
		t.Helper()
		for _, seq := range seqs {
			tok := sendTok(2, 1, []byte{byte(seq)})
			tok.Seq, tok.HasSeq = seq, true
			if err := p.a.HostPostSend(tok); err != nil {
				t.Fatal(err)
			}
		}
		p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
	}
	post(20, 21, 22)                 // fresh sends, in flight
	post(23, 10, 24, 11, 12, 25, 13) // restored tokens interleaved with fresh ones
	post(14, 26, 15)

	s := p.a.txFind(gmproto.StreamID{Node: 2, Port: 1, Prio: gmproto.PriorityLow})
	if s == nil {
		t.Fatal("stream missing")
	}
	var seqs []uint32
	for _, msg := range s.window {
		seqs = append(seqs, msg.seq)
	}
	want := []uint32{10, 11, 12, 13, 14, 15, 20, 21, 22, 23, 24, 25, 26}
	if !slices.Equal(seqs, want) {
		t.Fatalf("window seqs = %v, want %v", seqs, want)
	}

	// A cumulative ACK over that window completes exactly its in-flight
	// prefix, as the full walk would.
	wantDone, wantRest := refAckWalk(s.window, 22+1)
	evBefore := len(p.evA)
	p.a.handleAck(gmproto.AckHeader{Src: 2, SrcPort: 1, Prio: gmproto.PriorityLow, AckSeq: 22})
	p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
	var gotDone []uint64
	for _, ev := range p.evA[evBefore:] {
		if ev.Type == gmproto.EvSent {
			gotDone = append(gotDone, ev.TokenID)
		}
	}
	var gotRest []uint64
	for _, msg := range s.window {
		gotRest = append(gotRest, msg.tok.ID)
	}
	if len(wantDone) == 0 || !slices.Equal(gotDone, wantDone) || !slices.Equal(gotRest, wantRest) {
		t.Fatalf("ACK 22: completed %v rest %v; reference %v rest %v", gotDone, gotRest, wantDone, wantRest)
	}
}
