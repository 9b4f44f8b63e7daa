//go:build !race

// Excluded under the race detector, whose instrumentation allocates.

package sim

import (
	"runtime"
	"testing"
)

// TestEventBlockAllocs pins the block allocation of Events: with an empty
// free list, 1,000 schedule calls allocate at most ⌈1000/eventBlock⌉
// objects. The queue and the free list get their capacity up front, so every
// allocation counted holds Events.
func TestEventBlockAllocs(t *testing.T) {
	const n = 1000
	e := NewEngine(1)
	e.queue = make([]*Event, 0, n)
	e.free = make([]*Event, 0, eventBlock)
	fired := 0
	fn := func() { fired++ }

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		e.After(Duration(i), fn)
	}
	runtime.ReadMemStats(&after)

	if got, limit := after.Mallocs-before.Mallocs, uint64((n+eventBlock-1)/eventBlock); got > limit {
		t.Errorf("%d schedules allocated %d objects, want at most %d", n, got, limit)
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired %d of %d events", fired, n)
	}
}
