package sim

// Deferred runs queued calls of one function at caller-chosen times, using a
// single pending engine event instead of a closure-carrying event per call.
// It is the engine-level idiom for a serial resource whose completion times
// are nondecreasing (a FIFO pipeline stage, a fixed post-processing delay):
// the per-call state travels in a plain ring slot, and the one callback is
// allocated when the Deferred is built.
//
// Calls MUST be issued with nondecreasing times; call panics otherwise,
// because the ring would then dispatch later-due work first.
type Deferred[T any] struct {
	eng      *Engine
	label    string
	run      func(T)
	q        []deferredItem[T]
	head     int
	wake     *Event
	draining bool
	drainFn  func() // cached; arming a drain must not allocate

	// Speculation journaling (spec.go): the ring checkpoints its live region
	// into shadowQ on first touch per span and rebuilds canonically (head 0)
	// on rollback. Slot positions inside the array are unobservable, so the
	// canonical rebuild preserves dispatch order bit-for-bit.
	specEpoch  uint64
	shadowQ    []deferredItem[T]
	shadowWake *Event
}

type deferredItem[T any] struct {
	at Time
	v  T
}

// NewDeferred returns a Deferred that dispatches queued values to run.
func NewDeferred[T any](eng *Engine, label string, run func(T)) *Deferred[T] {
	d := &Deferred[T]{eng: eng, label: label, run: run}
	d.drainFn = d.drain
	return d
}

// call queues run(v) for virtual time t. t must be >= every previously
// queued time.
func (d *Deferred[T]) call(t Time, v T) {
	d.eng.SpecTouch(&d.specEpoch, d)
	if n := len(d.q); n > d.head && t < d.q[n-1].at {
		panic("sim: Deferred.call with decreasing time")
	}
	d.q, d.head = SlideFIFO(d.q, d.head)
	d.q = append(d.q, deferredItem[T]{at: t, v: v})
	if d.wake == nil && !d.draining {
		d.wake = d.eng.AtLabel(t, d.label, d.drainFn)
	}
}

// After queues run(v) for dur from now.
func (d *Deferred[T]) After(dur Duration, v T) { d.call(d.eng.Now()+dur, v) }

// Pending reports how many queued calls have not yet dispatched.
func (d *Deferred[T]) Pending() int { return len(d.q) - d.head }

// SpecSave / SpecRestore implement SpecSaver (spec.go): first-touch
// checkpoint of the ring's live region, wake event and cursor.
func (d *Deferred[T]) SpecSave() {
	d.shadowQ = append(d.shadowQ[:0], d.q[d.head:]...)
	d.shadowWake = d.wake
}

// SpecRestore rebuilds the ring canonically from the shadow. The wake event
// object is revived by the engine's own rollback (popped events are
// retained, span-new events erased), so re-pointing at the saved handle is
// always safe.
func (d *Deferred[T]) SpecRestore() {
	var zero deferredItem[T]
	for i := len(d.shadowQ); i < len(d.q); i++ {
		d.q[i] = zero
	}
	d.q = append(d.q[:0], d.shadowQ...)
	d.head = 0
	d.wake = d.shadowWake
	d.draining = false
}

func (d *Deferred[T]) drain() {
	// Touch before the transient flags flip, so a first-touch checkpoint
	// taken here (or by a reentrant call from a dispatched callback) captures
	// the quiescent shape.
	d.eng.SpecTouch(&d.specEpoch, d)
	d.wake = nil
	d.draining = true
	now := d.eng.Now()
	var zero deferredItem[T]
	for d.head < len(d.q) {
		it := &d.q[d.head]
		if it.at > now {
			break
		}
		v := it.v
		*it = zero
		d.head++
		d.run(v)
	}
	d.draining = false
	if d.head < len(d.q) {
		d.wake = d.eng.AtLabel(d.q[d.head].at, d.label, d.drainFn)
	}
}
