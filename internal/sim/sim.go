// Package sim provides the deterministic discrete-event simulation core on
// which the Myrinet/GM model runs. All times are virtual: the engine keeps a
// virtual clock and a priority queue of scheduled events, and advances the
// clock from event to event. Given the same seed and the same schedule of
// calls, a simulation is bit-for-bit reproducible.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. Nanosecond granularity comfortably resolves the paper's
// microsecond-scale timing constants (the LANai interval timers tick every
// 500 ns).
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring the time package but in virtual units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Forever is a time later than any event a simulation will schedule.
const Forever Time = math.MaxInt64

// Micros reports t as a floating-point number of microseconds, the unit the
// paper reports nearly all results in.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "12.5us" or "1.2s".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 10*Millisecond:
		return fmt.Sprintf("%.1fus", t.Micros())
	case t < 10*Second:
		return fmt.Sprintf("%.1fms", t.Millis())
	default:
		return fmt.Sprintf("%.2fs", t.Seconds())
	}
}

// Event is a scheduled callback. The zero Event is invalid; events are
// created through Engine.At and Engine.After.
//
// Event objects are recycled through the engine's free list once they fire
// or are discarded after cancellation, so a handle is only valid until its
// callback runs. Callers that retain a handle must clear it inside the
// callback (every caller in this repo does); calling Cancel through a stale
// handle after the callback ran may cancel an unrelated, later event.
type Event struct {
	when Time
	// pri is the event's arrival class: 0 for locally scheduled events,
	// >0 for cross-domain arrivals (AtArrival). It sorts between when and
	// seq so that an arrival's position among same-instant events is a
	// stable property of its source, not of which window barrier happened
	// to flush it — the ingredient that makes results invariant under
	// window-schedule changes (shard count, speculation horizon, resume).
	pri      uint32
	seq      uint64 // FIFO tiebreak among events at the same (when, pri)
	index    int    // heap index, -1 when not queued
	canceled bool
	// specNew marks an event scheduled inside a speculative span (spec.go):
	// on rollback it is erased rather than restored, on commit the mark is
	// cleared.
	specNew bool
	fn      func()
	label   string
	eng     *Engine // owner, for cancellation bookkeeping
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or been canceled is a no-op (but see the staleness caveat on
// Event: a retained handle must be cleared when its callback runs).
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.eng != nil && e.index >= 0 {
		e.eng.noteCanceled(e)
	}
}

// eventBefore is the queue's strict total order: by timestamp, then by
// arrival class (local events before cross-domain arrivals, arrivals by
// source class), then by scheduling sequence. A total order means any valid
// heap arrangement pops events in exactly one order, so compaction cannot
// perturb determinism. Ranking arrivals by class rather than raw sequence
// keeps same-instant ties independent of WHEN a barrier flushed the
// arrival: sequence numbers are assigned at flush time, which moves with
// the window schedule, while the class is fixed at construction.
func eventBefore(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// TraceFunc receives a line of simulation trace output.
type TraceFunc func(t Time, component, format string, args ...any)

// ErrPastTime is returned when an event is scheduled before the current
// virtual time.
var ErrPastTime = errors.New("sim: event scheduled in the past")

// Engine is the discrete-event simulation engine. It is not safe for
// concurrent use: the entire simulation is single-threaded and deterministic.
// (Parallel experiments run one private Engine per worker.)
type Engine struct {
	now     Time
	queue   []*Event
	nextSeq uint64
	rng     *RNG
	trace   TraceFunc
	stopped bool
	// executed counts events that have fired, for diagnostics and runaway
	// detection in tests.
	executed uint64
	// canceled counts queued events whose Cancel has been called; when they
	// outnumber the live half of the queue, compact() sweeps them out so
	// timer churn cannot grow the heap unboundedly.
	canceled int
	// free recycles fired/discarded Event objects so scheduling on the hot
	// path does not allocate.
	free []*Event
	// arrivalClasses allocates AtArrival ordering classes for a legacy
	// (coordinator-less) engine; domained engines allocate from the coord.
	arrivalClasses uint32

	// Domain-mode plumbing (see shard.go). A legacy engine has co == nil and
	// none of these fields are touched.
	co         *coord
	domIdx     int
	dname      string
	dirty      []Boundary  // boundaries with transfers awaiting the barrier
	dirtyNoted bool        // this domain is already on the coordinator's dirty list
	ctrlq      []func()    // control closures awaiting the barrier
	traceBuf   []traceLine // trace lines awaiting the barrier merge
	tracePos   int

	// Speculation plumbing (see spec.go). specCapable domains may run past
	// their conservative bound into a journaled span that the barrier
	// commits or rolls back. specFree pools the one span journal an engine
	// ever needs (spans never nest), so reopening reuses its arenas.
	spec        *specState
	specFree    *specState
	specCapable bool
	specSave    func() any
	specRestore func(any)
}

// maxFree bounds the recycling pool; beyond this, fired events are left to
// the garbage collector.
const maxFree = 8192

// eventBlock is how many Events schedule allocates at once when the free
// list is empty.
const eventBlock = 16

// compactMin is the queue size below which canceled events are not worth
// sweeping eagerly — the normal discard-at-root path handles them.
const compactMin = 64

// NewEngine returns an engine with its clock at zero and a deterministic RNG
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Executed reports how many events have fired so far on this engine (this
// domain only, in domain mode).
func (e *Engine) Executed() uint64 { return e.executed }

// ExecutedAll reports how many events have fired across every domain (the
// same as Executed on a legacy engine).
func (e *Engine) ExecutedAll() uint64 {
	if e.co == nil {
		return e.executed
	}
	var n uint64
	for _, d := range e.co.engines {
		n += d.executed
	}
	return n
}

// Pending reports how many events are queued on this engine (including
// canceled ones that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// SetTrace installs fn as the trace sink; pass nil to disable tracing. In
// domain mode the sink is shared by every domain: lines emitted during a run
// are buffered per domain and merged deterministically at window barriers.
func (e *Engine) SetTrace(fn TraceFunc) {
	if e.co != nil {
		e.co.sink = fn
		return
	}
	e.trace = fn
}

// TraceEnabled reports whether a trace sink is installed. Hot paths guard
// Tracef calls with it: the variadic args are boxed at the call site even
// when tracing is off, and drop-path traces fire per packet.
func (e *Engine) TraceEnabled() bool {
	if e.co != nil {
		return e.co.sink != nil
	}
	return e.trace != nil
}

// Tracef emits a trace line attributed to component if tracing is enabled.
// During a domain-mode run the line is formatted immediately (arguments may
// be mutable simulation state) but buffered until the window barrier, where
// all domains' lines merge in deterministic order.
func (e *Engine) Tracef(component, format string, args ...any) {
	if e.co != nil {
		c := e.co
		if c.sink == nil {
			return
		}
		if c.running {
			e.traceBuf = append(e.traceBuf, traceLine{at: e.now, comp: component, msg: fmt.Sprintf(format, args...)})
			return
		}
		c.sink(e.now, component, format, args...)
		return
	}
	if e.trace != nil {
		e.trace(e.now, component, format, args...)
	}
}

// At schedules fn to run at virtual time t and returns a handle that can
// cancel it. Scheduling at the current time is allowed (the event runs after
// already-queued events at the same instant). Scheduling in the past panics:
// it is always a programming error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.AtLabel(t, "", fn)
}

// AtLabel is At with a label attached for diagnostics.
func (e *Engine) AtLabel(t Time, label string, fn func()) *Event {
	return e.schedule(t, label, 0, fn)
}

// ArrivalClass allocates a stable ordering class for one cross-domain
// arrival source (one direction of a boundary). Classes are handed out in
// construction order — which the determinism contract already requires to
// be fixed — so they are identical across shard counts, speculation
// horizons and resumed runs. Class 0 is reserved for local events.
func (e *Engine) ArrivalClass() uint32 {
	if e.co != nil {
		e.co.arrivalClasses++
		return e.co.arrivalClasses
	}
	e.arrivalClasses++
	return e.arrivalClasses
}

// AtArrival schedules a cross-domain arrival: an event injected into this
// engine by a boundary flush (or a wake derived from one). Same-instant
// ordering is local events first, then arrivals by class — a pure function
// of (time, source, sender FIFO order), never of which barrier performed
// the flush. Every TimedBoundary implementation must schedule its
// receiver-side events (including deferred-wake re-arms) through the class
// it allocated at construction, or same-instant ties would make results
// depend on the window schedule.
func (e *Engine) AtArrival(t Time, class uint32, label string, fn func()) *Event {
	return e.schedule(t, label, class, fn)
}

func (e *Engine) schedule(t Time, label string, pri uint32, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("%v: at %v, now %v", ErrPastTime, t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		// One allocation per eventBlock events: the first serves this call,
		// the rest wait on the free list. A timer that stays queued for long
		// (one per retransmission stream) then costs a sixteenth of an
		// allocation instead of one.
		blk := new([eventBlock]Event)
		for i := eventBlock - 1; i > 0; i-- {
			e.free = append(e.free, &blk[i])
		}
		ev = &blk[0]
	}
	*ev = Event{when: t, pri: pri, seq: e.nextSeq, fn: fn, label: label, eng: e}
	e.nextSeq++
	if e.spec != nil {
		ev.specNew = true
		e.spec.pushed = append(e.spec.pushed, ev)
	}
	e.heapPush(ev)
	return ev
}

// --- Queue internals: a concrete 4-ary heap on []*Event. The previous
// container/heap implementation boxed every push/pop through interfaces;
// scheduling is the simulator's hottest path, so the sift loops are inlined
// on the concrete type. A branching factor of four halves the tree depth,
// which pays on the push-heavy schedule/cancel churn the MCP timers
// generate; the extra sibling comparisons on pop stay in one cache line of
// the slice. The comparison is a strict total order, so pop order — and
// therefore every simulation result — is identical to the binary heap's. ---

// heapArity is the branching factor of the event queue.
const heapArity = 4

func (e *Engine) heapPush(ev *Event) {
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// heapPop removes and returns the earliest event. The caller owns the
// returned event; its index is -1.
func (e *Engine) heapPop() *Event {
	q := e.queue
	root := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	root.index = -1
	if n > 0 {
		e.queue[0] = last
		e.siftDown(0)
	}
	return root
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !eventBefore(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		child := heapArity*i + 1
		if child >= n {
			break
		}
		end := child + heapArity
		if end > n {
			end = n
		}
		for c := child + 1; c < end; c++ {
			if eventBefore(q[c], q[child]) {
				child = c
			}
		}
		if !eventBefore(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = ev
	ev.index = i
}

// heapRemove unlinks a still-queued event from an arbitrary heap position
// (rollback erases speculatively scheduled events this way). The caller owns
// the returned slot; the event's index is -1.
func (e *Engine) heapRemove(ev *Event) {
	i := ev.index
	if i < 0 {
		return
	}
	q := e.queue
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	ev.index = -1
	if i < n {
		e.queue[i] = last
		last.index = i
		e.siftDown(i)
		e.siftUp(i)
	}
}

// recycle returns a no-longer-queued event to the allocation pool, dropping
// its callback reference so captured state can be collected.
func (e *Engine) recycle(ev *Event) {
	if len(e.free) >= maxFree {
		return
	}
	*ev = Event{index: -1}
	e.free = append(e.free, ev)
}

// discardCanceledRoot drops canceled events off the front of the queue so
// that the root, if any, is live. This is the single home of the discard
// logic Step and RunUntil share: a canceled timer with an early timestamp
// must neither fire nor mask the deadline check on the first live event.
// During a speculative span the discarded events are retained on the undo
// log instead of recycled, so a rollback can restore them.
func (e *Engine) discardCanceledRoot() {
	for len(e.queue) > 0 && e.queue[0].canceled {
		e.canceled--
		if e.spec != nil {
			e.spec.popped = append(e.spec.popped, e.heapPop())
			continue
		}
		e.recycle(e.heapPop())
	}
}

// noteCanceled records a cancellation of a queued event and triggers a
// compaction sweep once canceled events exceed half of Pending(). The
// watchdog re-arms a timer every L_timer interval; without this, each re-arm
// would leave a dead event queued until its (possibly far-future) timestamp.
// During speculation compaction is deferred (rollback must be able to find
// every pre-span event) and cancellations of pre-span events are journaled.
func (e *Engine) noteCanceled(ev *Event) {
	e.canceled++
	if e.spec != nil {
		if !ev.specNew {
			e.spec.canceledEvs = append(e.spec.canceledEvs, ev)
		}
		return
	}
	if n := len(e.queue); n >= compactMin && e.canceled*2 > n {
		e.compact()
	}
}

// compact removes every canceled event from the queue and re-establishes the
// heap invariant. The comparison is a strict total order, so the surviving
// events still fire in exactly the same sequence.
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.canceled {
			ev.index = -1
			e.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	for i, ev := range live {
		ev.index = i
	}
	if n := len(live); n > 1 {
		for i := (n - 2) / heapArity; i >= 0; i-- {
			e.siftDown(i)
		}
	}
	e.canceled = 0
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AfterLabel is After with a label attached for diagnostics.
func (e *Engine) AfterLabel(d Duration, label string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.AtLabel(e.now+d, label, fn)
}

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes. Pending events remain queued. In domain mode a concurrent
// window finishes before the run returns. A Stop issued from inside a
// speculative span is journaled with the span: it takes effect only if the
// span commits (a rolled-back stop re-fires when its event re-executes
// conservatively).
func (e *Engine) Stop() {
	if e.spec != nil {
		e.spec.stopped = true
		return
	}
	if e.co != nil {
		e.co.stopReq.Store(true)
	}
	e.stopped = true
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	e.discardCanceledRoot()
	if len(e.queue) == 0 {
		return false
	}
	ev := e.heapPop()
	e.now = ev.when
	e.executed++
	ev.fn()
	e.recycle(ev)
	return true
}

// Run fires events until the queue drains or Stop is called. It returns the
// final virtual time. On a control engine with domains (see NewDomain) the
// run proceeds in conservative windows across every domain.
func (e *Engine) Run() Time {
	if c := e.co; c != nil && len(c.engines) > 1 {
		e.checkControl()
		return c.run(Forever)
	}
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// checkControl guards the run entry points: only the control domain may
// drive a domained simulation.
func (e *Engine) checkControl() {
	if e.domIdx != 0 {
		panic("sim: Run on a domain engine; drive the control engine")
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock to
// deadline (if it is later than the last event). It returns the final time.
// On a control engine with domains, every domain's clock ends at deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	if c := e.co; c != nil && len(c.engines) > 1 {
		e.checkControl()
		return c.run(deadline)
	}
	e.stopped = false
	for !e.stopped {
		// Discard before peeking: a canceled timer with an early timestamp
		// must not let Step() fire a live event beyond the deadline.
		e.discardCanceledRoot()
		if len(e.queue) == 0 || e.queue[0].when > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunFor advances the simulation by d virtual time.
func (e *Engine) RunFor(d Duration) Time { return e.RunUntil(e.now + d) }
