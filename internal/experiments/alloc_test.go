//go:build !race

// Full-stack steady-state allocation regression bound. The per-fragment
// primitives are pinned at zero allocations by guards in internal/fabric and
// internal/mcp; what remains per message at full stack is simulation idiom
// (event closures on the engine heap), which this test bounds so the
// zero-copy data path cannot silently regrow per-message garbage.

package experiments

import (
	"runtime"
	"testing"

	"repro/gm"
)

// measureAllocsPerMsg streams `count` messages of `size` bytes one way on a
// fresh pair and returns heap allocations per delivered message.
func measureAllocsPerMsg(t *testing.T, mode gm.Mode, size, count int) float64 {
	t.Helper()
	p, err := NewPair(PairOptions{Mode: mode, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up stream so pools, rings, and maps reach steady state.
	st := stream(p.Cluster, p.PA, p.PB, p.B.ID(), size, count, 32)
	limit := p.Cluster.Now() + 60*gm.Second
	for st.delivered < count && p.Cluster.Now() < limit {
		p.Cluster.Run(10 * gm.Millisecond)
	}
	if st.delivered < count {
		t.Fatalf("warm-up stalled at %d/%d", st.delivered, count)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st2 := stream(p.Cluster, p.PA, p.PB, p.B.ID(), size, count, 32)
	limit = p.Cluster.Now() + 60*gm.Second
	for st2.delivered < count && p.Cluster.Now() < limit {
		p.Cluster.Run(10 * gm.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if st2.delivered < count {
		t.Fatalf("measured stream stalled at %d/%d", st2.delivered, count)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(count)
}

// measureAllocsPerRound runs warmed-up ping-pong rounds and returns heap
// allocations per round (two messages).
func measureAllocsPerRound(t *testing.T, mode gm.Mode, size, rounds int) float64 {
	t.Helper()
	p, err := NewPair(PairOptions{Mode: mode, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	HalfRoundTrip(p, size, rounds) // warm-up: pools and rings reach steady state
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	HalfRoundTrip(p, size, rounds)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds)
}

// TestLatencyAllocBound bounds allocations per ping-pong round in the
// Figure 8 latency harness. The send-window, reassembly and delivery
// records are pooled and the host post path uses a deferred dispatcher, so
// a warmed-up round leaves only harness bookkeeping (latency samples,
// occasional slice growth) — low single digits per round, bounded loosely.
func TestLatencyAllocBound(t *testing.T) {
	const bound = 8.0
	for _, mode := range []gm.Mode{gm.ModeGM, gm.ModeFTGM} {
		got := measureAllocsPerRound(t, mode, 64, 200)
		t.Logf("mode=%v allocs/round=%.2f", mode, got)
		if got > bound {
			t.Errorf("mode=%v: %.2f allocs/round exceeds bound %.0f", mode, got, bound)
		}
	}
}

// TestLatencyAllocsPerRunGuard pins the warmed-up Figure 8 harness with the
// runtime's own AllocsPerRun accounting, much tighter than the MemStats
// bound above. A warmed pair's ping-pong call costs a fixed handful of
// per-call setup allocations (payload buffer, the two handler closures, the
// receive-buffer provides, the pre-reserved latency series) and ~0 per
// round. A Figure 8 sweep's per-round allocation count (~70) is therefore
// sweep-point amortized cluster construction — sweepPoints boots a fresh
// Pair per (mode, size) point — not the data path. This guard keeps the data
// path pinned: half an allocation per round only trips if per-round garbage
// creeps back in.
func TestLatencyAllocsPerRunGuard(t *testing.T) {
	const rounds = 50
	for _, mode := range []gm.Mode{gm.ModeGM, gm.ModeFTGM} {
		p, err := NewPair(PairOptions{Mode: mode, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		HalfRoundTrip(p, 100, rounds) // warm-up: pools and rings reach steady state
		HalfRoundTrip(p, 100, rounds)
		per := testing.AllocsPerRun(3, func() { HalfRoundTrip(p, 100, rounds) })
		perRound := per / rounds
		t.Logf("mode=%v allocs/call=%.1f allocs/round=%.3f", mode, per, perRound)
		if perRound > 0.5 {
			t.Errorf("mode=%v: %.3f allocs/round exceeds the 0.5 pin", mode, perRound)
		}
	}
}

// TestSteadyStateAllocBound bounds allocations per message on the
// steady-state streaming workload for both protocol modes.
func TestSteadyStateAllocBound(t *testing.T) {
	// Budget: with the send-window, reassembly and delivery records pooled
	// and every per-message pipeline stage on a cached callback, a
	// steady-state message costs ~2 allocations (residual slice growth and
	// map churn). A breach here means per-message garbage crept back in.
	const bound = 12.0
	for _, mode := range []gm.Mode{gm.ModeGM, gm.ModeFTGM} {
		got := measureAllocsPerMsg(t, mode, 4096, 300)
		t.Logf("mode=%v allocs/msg=%.1f", mode, got)
		if got > bound {
			t.Errorf("mode=%v: %.1f allocs/msg exceeds bound %.0f", mode, got, bound)
		}
	}
}
