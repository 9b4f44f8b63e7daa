package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond || Microsecond != 1000*Nanosecond {
		t.Fatal("unit ladder broken")
	}
	if got := (1500 * Nanosecond).Micros(); got != 1.5 {
		t.Errorf("Micros() = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Errorf("Millis() = %v, want 2.5", got)
	}
	if got := (3 * Second).Seconds(); got != 3.0 {
		t.Errorf("Seconds() = %v, want 3", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{12*Microsecond + 500*Nanosecond, "12.5us"},
		{765 * Millisecond, "765.0ms"},
		{2 * Second, "2000.0ms"},
		{30 * Second, "30.00s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.After(5, func() {
		fired = append(fired, e.Now())
		e.After(7, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 12 {
		t.Fatalf("fired = %v, want [5 12]", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	if !ev.canceled {
		t.Error("Canceled() = false after Cancel")
	}
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Clock should not advance past the only (canceled) event's time in a
	// meaningful way; we only require that Run terminates.
	var nilEv *Event
	nilEv.Cancel() // must not panic
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(50)
	if e.Now() != 50 {
		t.Errorf("Now() = %v, want 50", e.Now())
	}
	e.RunFor(25)
	if e.Now() != 75 {
		t.Errorf("Now() = %v, want 75", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(10, func() { count++; e.Stop() })
	e.At(20, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d after Stop, want 1", count)
	}
	e.Run() // resume
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeAfterClamped(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		fired := false
		e.After(-5, func() { fired = true })
		_ = fired
	})
	e.Run() // must not panic
}

func TestEngineExecutedAndPending(t *testing.T) {
	e := NewEngine(1)
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Executed() != 2 {
		t.Errorf("Executed() = %d, want 2", e.Executed())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEngineTrace(t *testing.T) {
	e := NewEngine(1)
	var lines int
	e.SetTrace(func(at Time, component, format string, args ...any) { lines++ })
	e.Tracef("test", "hello %d", 1)
	e.SetTrace(nil)
	e.Tracef("test", "dropped")
	if lines != 1 {
		t.Errorf("trace lines = %d, want 1", lines)
	}
}

func TestCancelCompactsQueue(t *testing.T) {
	// Regression for the Cancel leak: canceled events used to stay queued
	// (and counted by Pending()) until their timestamp was reached, so
	// timer churn grew the heap unboundedly. Canceling must now shrink the
	// queue once dead events dominate.
	e := NewEngine(1)
	keep := e.At(1_000_000, func() {})
	var timers []*Event
	for i := 0; i < 10000; i++ {
		timers = append(timers, e.At(Time(10+i), func() {}))
	}
	for _, ev := range timers {
		ev.Cancel()
	}
	// Compaction stops below the compactMin threshold, so a few dead events
	// may linger — but nothing near the 10k that used to.
	if p := e.Pending(); p > 2*compactMin {
		t.Fatalf("Pending() = %d after canceling 10k timers, want < %d", p, 2*compactMin)
	}
	if keep.canceled {
		t.Fatal("live event marked canceled")
	}
	e.Run()
	if e.Executed() != 1 {
		t.Fatalf("Executed() = %d, want only the live event", e.Executed())
	}
	if e.Now() != 1_000_000 {
		t.Fatalf("Now() = %v, want 1000000", e.Now())
	}
}

func TestCompactionPreservesOrder(t *testing.T) {
	// Interleave live and canceled events so compaction rebuilds the heap
	// mid-stream, and check the firing order is untouched.
	e := NewEngine(1)
	var fired []Time
	var doomed []*Event
	for i := 0; i < 500; i++ {
		at := Time(1000 - i) // reverse order insertion
		e.At(at, func() { fired = append(fired, e.Now()) })
		doomed = append(doomed, e.At(at, func() { t.Error("canceled event fired") }))
	}
	for _, ev := range doomed {
		ev.Cancel()
	}
	e.Run()
	if len(fired) != 500 {
		t.Fatalf("fired %d live events, want 500", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order after compaction: %v then %v", fired[i-1], fired[i])
		}
	}
}

func TestEventRecycling(t *testing.T) {
	// The free list must recycle fired events without leaking state into
	// later schedules.
	e := NewEngine(1)
	count := 0
	for i := 0; i < 1000; i++ {
		e.After(1, func() { count++ })
		if !e.Step() {
			t.Fatal("Step found no event")
		}
	}
	if count != 1000 {
		t.Fatalf("count = %d", count)
	}
	if len(e.free) == 0 {
		t.Fatal("free list empty after 1000 fired events")
	}
	if len(e.free) > maxFree {
		t.Fatalf("free list grew to %d, cap is %d", len(e.free), maxFree)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincided %d/100 times", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.perm(50)
	seen := make(map[int]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(11)
	f := r.Fork()
	if f.Uint64() == r.Uint64() {
		t.Error("forked stream tracks parent")
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestPropertyEventOrder(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(1)
		for _, at := range times {
			at := Time(at)
			e.At(at, func() {
				if e.Now() != at {
					t.Errorf("fired at %v, scheduled %v", e.Now(), at)
				}
			})
		}
		last := Time(-1)
		for e.Step() {
			if e.Now() < last {
				return false
			}
			last = e.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil never fires events past the deadline and always leaves
// the clock at exactly the deadline.
func TestPropertyRunUntilDeadline(t *testing.T) {
	f := func(times []uint16, deadline uint16) bool {
		e := NewEngine(1)
		ok := true
		for _, at := range times {
			at := Time(at)
			e.At(at, func() {
				if at > Time(deadline) {
					ok = false
				}
			})
		}
		e.RunUntil(Time(deadline))
		return ok && e.Now() == Time(deadline)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRunUntilCanceledRootNoOvershoot(t *testing.T) {
	// Regression: a canceled event at the heap root must not let RunUntil
	// execute a live event beyond the deadline (observed as virtual clocks
	// snapping to timer-re-arm boundaries).
	e := NewEngine(1)
	ev := e.At(10, func() {})
	ev.Cancel()
	fired := false
	e.At(100, func() { fired = true })
	e.RunUntil(50)
	if fired {
		t.Fatal("event beyond the deadline fired")
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", e.Now())
	}
	e.RunUntil(150)
	if !fired {
		t.Fatal("event not fired after its time")
	}
}
