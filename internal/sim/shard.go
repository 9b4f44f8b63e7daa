package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements within-trial parallelism: an Engine can be split into
// per-component *domains* — each with its own event queue, clock, sequence
// counter and RNG — synchronized with link propagation delays as lookahead.
// Three mechanisms bound how far a domain may run between barriers:
//
//  1. Per-edge lookahead. Boundaries register directed edges
//     (ObserveEdgeLookahead), and each window computes every domain's
//     earliest-affect time: the minimum over chains of queued foreign
//     events of (event time + accumulated edge latency) — the classic
//     lower-bound-on-timestamp fixpoint. A leaf domain three switch hops
//     from the nearest busy sender runs three hops of latency past the
//     global minimum instead of being clipped to it.
//  2. Sole-due run-ahead. When exactly one domain has work, it runs to the
//     earliest foreign head under a self-containment rule (stop at the
//     first cross-domain transfer), collapsing drain tails into one
//     barrier per interaction.
//  3. Speculative run-ahead (spec.go). Domains that registered state hooks
//     may execute past their conservative bound into a journaled span that
//     the next barrier commits or rolls back.
//
// The design keys on one observation: every component in this codebase takes
// its *Engine at construction and schedules exclusively through that pointer.
// A domain therefore IS an Engine — no goroutine-local state, no domain
// handles threaded through APIs. The root engine (domain 0) remains the
// control domain: experiment harnesses, chaos schedulers, the cluster's
// mapper/netwatch plumbing all schedule there, and any window in which a
// control event is due runs *serialized* in global (time, domain, seq) order,
// so control code may freely touch every domain. Windows with no due control
// event run the domains concurrently.
//
// Determinism contract (bit-for-bit, invariant in shard count):
//   - Within a domain, events fire in (when, seq) order — the same strict
//     total order the serial engine uses; seq is domain-local.
//   - Cross-domain transfers move only at window barriers, in domain-index
//     order, FIFO within each boundary; the receiver assigns its own local
//     seqs at that point. Transfer order is thus a pure function of the
//     window schedule, which depends only on queue contents — never on how
//     many OS threads executed a window.
//   - Window bounds, speculation commit/rollback decisions and control
//     promotion times are all pure functions of queue contents and the
//     registered edge graph, so they too are executor-count invariant.
//   - Trace lines are buffered per domain and merged by (time, domain
//     index, emission order) — lines are held back until the global clock
//     floor passes them, so per-domain window skew (and rolled-back
//     speculation) never reorders or leaks a line.
//
// SetShards(1) keeps the exact same windowed schedule but executes every
// window on the coordinator goroutine, domain by domain in index order —
// which is precisely what the concurrent execution is equivalent to.

// Boundary is a cross-domain edge (e.g. one direction of a fabric link) that
// accumulated transfers during a window. The coordinator flushes all dirty
// boundaries at each window barrier, in domain-index order of the producing
// engine, FIFO within the boundary.
type Boundary interface {
	// FlushBoundary moves the boundary's accumulated transfers into the
	// receiving domain (scheduling receiver-side events as needed). Runs on
	// the coordinator goroutine between windows.
	FlushBoundary()
}

// TimedBoundary is a Boundary that can report where its pending transfers
// are headed and when the earliest lands. The barrier uses this to decide
// speculation commits: an in-flight transfer is an arrival source for its
// target domain. Boundaries that do not implement it force every open
// speculative span to roll back whenever they are dirty, so any producer
// feeding a speculation-capable simulation should implement it.
type TimedBoundary interface {
	Boundary
	// BoundaryTarget is the domain the pending transfers will flush into.
	BoundaryTarget() *Engine
	// EarliestPending is the delivery time of the earliest pending
	// transfer (Forever when none, though a dirty boundary has at least
	// one).
	EarliestPending() Time
}

// traceLine is one buffered trace emission awaiting the barrier merge.
type traceLine struct {
	at   Time
	comp string
	msg  string
}

// edge is one directed in-edge of the lookahead graph: transfers from
// domain `from` arrive after at least `lat`.
type edge struct {
	from int
	lat  Duration
}

// coord synchronizes a root (control) engine and its domains.
type coord struct {
	root    *Engine
	engines []*Engine // engines[0] == root
	shards  int       // requested parallel executors; <=1 means serial sweep

	// lookahead is the minimum latency over every registered edge: the
	// nominal window span and the serialized-window width.
	lookahead Duration
	// inEdges[i] lists domain i's in-edges, deduplicated by source with the
	// minimum latency; edgeIdx maps (from<<32|to) to the slice position.
	inEdges [][]edge
	edgeIdx map[int64]int

	sink    TraceFunc // installed trace sink (domain mode buffers + merges)
	running bool      // inside coord.run; Control() defers, Tracef buffers
	stopReq atomic.Bool

	// heads caches every domain's next live event time for the window being
	// planned — one contiguous scan instead of re-chasing queue pointers in
	// each of the per-window decision passes.
	heads []Time
	// minIdx / secondMin describe the heads just collected: the index of
	// the earliest head and the earliest head among the OTHER domains
	// (Forever when no other domain has events). When minIdx is the only
	// domain due in a window, it may safely run ahead toward secondMin.
	minIdx    int
	secondMin Time
	// eat holds each domain's per-window earliest-affect time: the
	// conservative bound below which no foreign event chain can land. src
	// and arr are relaxation scratch (per-domain source times and pending
	// boundary arrival times) for speculation resolution.
	eat []Time
	src []Time
	arr []Time

	// dirtyDoms lists domains that noted a dirty boundary this window, so
	// the barrier touches only producers with pending transfers instead of
	// sweeping every domain. Appended under dirtyMu from domain executors,
	// sorted (for deterministic flush order) and drained by the
	// coordinator.
	dirtyMu   sync.Mutex
	dirtyDoms []int
	// anyCtrl notes that some domain deferred control closures this window,
	// so the barrier can skip the promotion pass entirely on quiet windows.
	anyCtrl atomic.Bool

	// arrivalClasses allocates AtArrival ordering classes (sim.go): one per
	// cross-domain arrival source, in construction order.
	arrivalClasses uint32

	// parThreshold is the number of domains with due work below which a
	// window executes inline on the coordinator: dispatching to the worker
	// pool costs ~a microsecond of channel and barrier traffic, which only
	// pays for itself when several domains have events to fire.
	// sparseStreak counts consecutive inline windows; waking a cold pool is
	// charged against it, so alternating sparse/dense phases do not pay a
	// wakeup per window.
	parThreshold int
	sparseStreak int

	// Speculation (spec.go): specHorizon is the armed initial/maximum
	// run-ahead past the conservative bound; horizons holds each domain's
	// adaptive effective horizon (AIMD on observed commit/rollback outcomes,
	// see noteSpecOutcome), read by domain executors during a window and
	// written only by the coordinator at barriers. specSkip/specBackoff are
	// the rollback cooloff (see noteSpecOutcome): skip counts windows the
	// domain still sits out, decremented by its own executor at the moment a
	// span would otherwise open (each index is touched only by its owning
	// domain during a window and only by the coordinator at barriers, the
	// same discipline as horizons). specClip is the deadline clip for
	// spans; specSpanSeq issues globally unique span ids for the
	// first-touch journal dedupe (SpecTouch).
	specHorizon        Duration
	horizons           []Duration
	specSkip           []uint32
	specBackoff        []uint32
	specClip           Time
	anySpec            bool
	specScratch        []*Engine
	specSpanSeq        atomic.Uint64
	specCommits        uint64
	specRollbacks      uint64
	specCommitEvents   uint64
	specRollbackEvents uint64
	specDomCommits     []uint64
	specDomRollbacks   []uint64
}

// defaultParallelThreshold is the dispatch threshold when
// SetParallelThreshold was never called.
const defaultParallelThreshold = 3

func (e *Engine) ensureCoord() *coord {
	if e.co == nil {
		e.co = &coord{root: e, engines: []*Engine{e}, parThreshold: defaultParallelThreshold}
	} else if e.co.root != e {
		panic("sim: domain engines cannot own shards or domains")
	}
	return e.co
}

// NewDomain carves a new event domain out of the engine: an independent
// Engine with its own queue, clock, sequence counter and a deterministically
// forked RNG. The receiver becomes (or already is) the control domain; the
// returned engine should be handed to exactly the components that make up
// the domain (a node and its NIC, or one switch). Must be called before the
// first Run.
func (e *Engine) NewDomain(name string) *Engine {
	c := e.ensureCoord()
	if c.running {
		panic("sim: NewDomain during run")
	}
	d := &Engine{
		now:    e.now,
		rng:    e.rng.Fork(),
		co:     c,
		domIdx: len(c.engines),
		dname:  name,
	}
	c.engines = append(c.engines, d)
	return d
}

// SetShards sets how many OS threads execute concurrent windows: n parallel
// executors (the coordinator plus n-1 pooled workers). SetShards(1) runs
// every window on the coordinator alone — today's exact serial path — and is
// the default. The schedule, results and traces are bit-for-bit identical
// for every n >= 1; only wall-clock time changes.
func (e *Engine) SetShards(n int) {
	c := e.ensureCoord()
	if c.running {
		panic("sim: SetShards during run")
	}
	if n < 1 {
		n = 1
	}
	c.shards = n
}

// SetParallelThreshold sets how many domains must have due work in a window
// before it is dispatched to the worker pool rather than swept inline on
// the coordinator. Purely a performance knob — the schedule is identical
// for every value. The default is 3.
func (e *Engine) SetParallelThreshold(n int) {
	c := e.ensureCoord()
	if c.running {
		panic("sim: SetParallelThreshold during run")
	}
	if n < 1 {
		n = 1
	}
	c.parThreshold = n
}

// Domains reports how many domains exist including the control domain
// (1 for a legacy undomained engine).
func (e *Engine) Domains() int {
	if e.co == nil {
		return 1
	}
	return len(e.co.engines)
}

// DomainIndex reports this engine's domain number (0 = control domain; also
// 0 for a legacy undomained engine).
func (e *Engine) DomainIndex() int { return e.domIdx }

// domLabel names the engine's domain for diagnostics: the NewDomain name
// with the index appended, or "control" / "legacy" for unnamed roots.
func (e *Engine) domLabel() string {
	if e.dname != "" {
		return fmt.Sprintf("%q (domain %d)", e.dname, e.domIdx)
	}
	if e.co != nil && e.domIdx == 0 {
		return "control (domain 0)"
	}
	if e.co == nil {
		return "legacy engine"
	}
	return fmt.Sprintf("domain %d", e.domIdx)
}

// ObserveEdgeLookahead registers a directed edge of the lookahead graph:
// transfers produced by this engine's domain arrive in dst's domain no
// earlier than d after the producing event. Parallel registrations for the
// same ordered pair keep the minimum. Both engines must belong to the same
// coordinator; must be called before the first Run (boundaries are built at
// topology-construction time).
func (e *Engine) ObserveEdgeLookahead(dst *Engine, d Duration) {
	if d <= 0 {
		src, tgt := e.domLabel(), "?"
		if dst != nil {
			tgt = dst.domLabel()
		}
		panic(fmt.Sprintf("sim: ObserveEdgeLookahead(%s -> %s) registered latency %v; "+
			"a directed edge's latency bounds the synchronization window and must be positive "+
			"(check the boundary built between these two domains)", src, tgt, d))
	}
	c := e.co
	if c == nil || dst == nil || dst.co != c {
		panic("sim: ObserveEdgeLookahead across unrelated engines")
	}
	if c.running {
		panic("sim: ObserveEdgeLookahead during run")
	}
	from, to := e.domIdx, dst.domIdx
	if from == to {
		return // intra-domain: not a boundary
	}
	if c.lookahead == 0 || d < c.lookahead {
		c.lookahead = d
	}
	for len(c.inEdges) < len(c.engines) {
		c.inEdges = append(c.inEdges, nil)
	}
	if c.edgeIdx == nil {
		c.edgeIdx = make(map[int64]int)
	}
	key := int64(from)<<32 | int64(to)
	if i, ok := c.edgeIdx[key]; ok {
		if d < c.inEdges[to][i].lat {
			c.inEdges[to][i].lat = d
		}
		return
	}
	c.edgeIdx[key] = len(c.inEdges[to])
	c.inEdges[to] = append(c.inEdges[to], edge{from: from, lat: d})
}

// NoteBoundary marks a boundary dirty: it accumulated at least one transfer
// during the current window and must be flushed at the barrier. The producer
// must call this from its own domain and should dedupe per window (the
// boundary is flushed once per note).
func (e *Engine) NoteBoundary(b Boundary) {
	e.dirty = append(e.dirty, b)
	if e.co == nil {
		return
	}
	if !e.dirtyNoted {
		e.dirtyNoted = true
		c := e.co
		c.dirtyMu.Lock()
		c.dirtyDoms = append(c.dirtyDoms, e.domIdx)
		c.dirtyMu.Unlock()
	}
}

// Control hands fn to the control domain. Called during a concurrent window
// from a domain event (e.g. a NIC firing a host-level fault callback that
// must inspect cluster-wide state), fn is deferred to the control domain at
// the next window barrier — where it runs serialized and may touch any
// domain. Outside a run, or already on the control domain, fn runs inline.
// Deferral order is deterministic: domain-index order, FIFO within a domain.
func (e *Engine) Control(fn func()) {
	if e.co == nil || !e.co.running || e.domIdx == 0 {
		fn()
		return
	}
	e.ctrlq = append(e.ctrlq, fn)
	e.co.anyCtrl.Store(true)
}

// runWindow fires the engine's events with timestamps strictly below end.
// The clock is left at the last executed event (not advanced to end): only
// event execution moves a domain clock, exactly as in the serial engine.
func (e *Engine) runWindow(end Time) {
	for {
		e.discardCanceledRoot()
		if len(e.queue) == 0 || e.queue[0].when >= end {
			return
		}
		ev := e.heapPop()
		e.now = ev.when
		e.executed++
		ev.fn()
		e.recycle(ev)
	}
}

// runDomainWindow is one domain's share of a concurrent window: the
// conservative portion up to end, then — if the simulation is armed and the
// domain registered state hooks — a speculative span up to the horizon.
func (e *Engine) runDomainWindow(end Time) {
	e.runWindow(end)
	c := e.co
	if c.specHorizon <= 0 || !e.specCapable {
		return
	}
	limit := end + c.horizons[e.domIdx]
	if limit < end || limit > c.specClip { // overflow or deadline clip
		limit = c.specClip
	}
	if limit > end {
		e.speculate(limit)
	}
}

// ensureHorizons sizes the per-domain adaptive-horizon state, seeding new
// domains at the armed maximum (SetSpeculation's value). Existing entries
// keep their adapted value across Run calls, so a long campaign's controller
// state survives RunUntil stepping.
func (c *coord) ensureHorizons() {
	if c.specHorizon <= 0 {
		return
	}
	for len(c.horizons) < len(c.engines) {
		c.horizons = append(c.horizons, c.specHorizon)
	}
	for len(c.specSkip) < len(c.engines) {
		c.specSkip = append(c.specSkip, 0)
		c.specBackoff = append(c.specBackoff, 0)
	}
	for len(c.specDomCommits) < len(c.engines) {
		c.specDomCommits = append(c.specDomCommits, 0)
		c.specDomRollbacks = append(c.specDomRollbacks, 0)
	}
}

// noteSpecOutcome adapts domain i's speculation horizon from a span
// outcome: additive increase on commit (an eighth of the maximum per
// committed span, capped at the maximum), multiplicative decrease on
// rollback (halved, floored at a sixteenth of the maximum) — AIMD, so a
// domain sitting in a rollback storm throttles toward a narrow probe span
// within a handful of barriers while occasional rollbacks barely dent a
// wide horizon.
//
// Horizon adaptation alone bounds how FAR a losing domain runs ahead, not
// how OFTEN: on a saturated fabric even a floor-width span loses most of
// the time, and each one still pays the open/resolve cost plus the
// conservative re-execution of everything it journaled. So a rollback also
// charges an exponential cooloff — the domain sits out specBackoff windows
// (doubling per rollback, capped at specSkipMax) before its next probe
// span, while a commit pays the backoff down by one: a chronic loser's
// occasional lucky commit barely re-arms it, but a domain whose spans keep
// committing holds backoff at zero and speculates every window. Outcomes
// are schedule-deterministic, so the adapted horizons and cooloffs — and
// every window bound derived from them — stay executor-count invariant.
func (c *coord) noteSpecOutcome(i int, committed bool) {
	max := c.specHorizon
	h := c.horizons[i]
	if committed {
		c.specDomCommits[i]++
		h += max/8 + 1
		if h > max {
			h = max
		}
		if c.specBackoff[i] > 0 {
			c.specBackoff[i]--
		}
	} else {
		c.specDomRollbacks[i]++
		h /= 2
		floor := max / 16
		if floor < 1 {
			floor = 1
		}
		if h < floor {
			h = floor
		}
		bo := c.specBackoff[i]*2 + 1
		if bo > specSkipMax {
			bo = specSkipMax
		}
		c.specBackoff[i] = bo
		c.specSkip[i] = bo
	}
	c.horizons[i] = h
}

// specSkipMax caps the rollback cooloff: a domain in a permanent rollback
// storm still probes every ~64 windows, so it rediscovers a quiet phase
// within a bounded number of barriers rather than never.
const specSkipMax = 63

// run is the domain-mode main loop: per-domain windows bounded by the edge
// lookahead graph, serialized when control events are due, with
// boundary/control/trace flushes and speculation resolution at each
// barrier. deadline == Forever runs until every queue drains (or Stop).
func (c *coord) run(deadline Time) Time {
	if len(c.engines) > 1 && c.lookahead <= 0 {
		panic(fmt.Sprintf("sim: %d event domains but no boundary registered a lookahead; "+
			"windows would degenerate to 1 ns and the run would crawl — register the minimum "+
			"cross-domain latency with ObserveEdgeLookahead when the "+
			"boundary is built", len(c.engines)))
	}
	c.running = true
	c.stopReq.Store(false)
	c.specClip = Forever
	if deadline != Forever {
		c.specClip = deadline + 1
	}
	c.ensureHorizons()
	rw := c.startWorkers()
	defer func() {
		c.running = false
		if rw != nil {
			rw.stop()
		}
	}()
	for !c.stopReq.Load() {
		// One pass over the domains plans the whole window: every head
		// timestamp lands in the contiguous heads cache, from which the
		// window start, the serial/concurrent decision and the dispatch
		// threshold all follow without touching the queues again.
		t := c.collectHeads()
		if c.sink != nil {
			// Everything before the global clock floor is final: no domain
			// can ever execute an event before the earliest head.
			c.mergeTraces(t)
		}
		if t == Forever || t > deadline {
			break
		}
		end := t + c.windowSpan()
		if end <= t { // Time overflow guard; never hit with sane clocks.
			end = t + 1
		}
		if deadline != Forever && end > deadline+1 {
			// RunUntil semantics are inclusive of the deadline: clip the
			// final window to execute events with when <= deadline.
			end = deadline + 1
		}
		if c.heads[0] < end {
			c.runSerialWindow(end)
		} else if limit := c.runAheadLimit(end, deadline); limit > end {
			// Exactly one domain is due this window: it may run ahead of
			// the nominal span. Nothing can arrive before the earliest
			// foreign head plus one span, and pending control events (the
			// root head bounds secondMin) stay in its future.
			c.engines[c.minIdx].runAhead(end, limit)
		} else {
			c.computeEAT(end, deadline)
			c.runParallelWindow(rw)
		}
		c.flushWindow(end)
	}
	if c.sink != nil {
		c.mergeTraces(Forever)
	}
	if deadline != Forever {
		for _, d := range c.engines {
			if d.now < deadline {
				d.now = deadline
			}
		}
	}
	return c.root.now
}

// windowSpan is the nominal window length: the minimum latency over every
// registered boundary. No cross-domain transfer produced inside a window
// can demand execution before the producer's head plus this span.
func (c *coord) windowSpan() Duration {
	if c.lookahead > 0 {
		return c.lookahead
	}
	return 1
}

// collectHeads refreshes the heads cache with every domain's next live
// event timestamp (Forever when drained) and returns the minimum, also
// recording which domain holds it and the runner-up time.
func (c *coord) collectHeads() Time {
	if cap(c.heads) < len(c.engines) {
		c.heads = make([]Time, len(c.engines))
	}
	c.heads = c.heads[:len(c.engines)]
	t, t2 := Forever, Forever
	c.minIdx = -1
	for i, d := range c.engines {
		d.discardCanceledRoot()
		if len(d.queue) == 0 {
			c.heads[i] = Forever
			continue
		}
		h := d.queue[0].when
		c.heads[i] = h
		if h < t {
			t, t2 = h, t
			c.minIdx = i
		} else if h < t2 {
			t2 = h
		}
	}
	c.secondMin = t2
	return t
}

// computeEAT fills c.eat with each domain's earliest-affect time for the
// window ending at end: the least fixpoint of
//
//	eat[i] = min over in-edges (j, L) of  min(head[j], eat[j]) + L
//
// capped by the control domain's readiness (control closures can touch any
// domain with zero latency) and by the RunUntil deadline. Every causal chain
// that could land in domain i starts at some queued event (a head) and
// accumulates at least one edge latency per hop, so executing events
// strictly below eat[i] is safe.
func (c *coord) computeEAT(end, deadline Time) {
	base := Forever
	if deadline != Forever {
		base = deadline + 1
	}
	c.relaxEAT(c.heads, base)
	// Safety floor: every in-edge latency is >= the global minimum, so the
	// fixpoint can never undercut the nominal window — but a domain with no
	// in-edges at all converged to the caps, which is exactly right.
	for i := range c.eat {
		if c.eat[i] < end {
			c.eat[i] = end
		}
	}
}

// runAheadLimit reports how far the sole due domain may run ahead of the
// nominal window, or end when run-ahead does not apply (several domains due,
// the control domain is the one due, or nothing is gained). The limit is the
// second-earliest head: every foreign event — and so every transfer aimed
// back at the runner — lies at or beyond it, and a pending control event
// (part of that minimum) is never overtaken.
func (c *coord) runAheadLimit(end, deadline Time) Time {
	if c.minIdx <= 0 || c.secondMin < end {
		return end
	}
	limit := c.secondMin
	if deadline != Forever && limit > deadline+1 {
		limit = deadline + 1
	}
	return limit
}

// runAhead executes the always-safe nominal window [·, end), then keeps
// firing events up to limit as long as the domain stays self-contained: the
// first event that produces a cross-domain transfer or defers a control
// closure ends the window, since reactions to it can demand this domain's
// attention one lookahead span later. This collapses sparse phases — one
// domain grinding through timer wheels while the rest of the fabric idles —
// from one barrier per span into one barrier per interaction.
func (e *Engine) runAhead(end, limit Time) {
	e.runWindow(end)
	for !e.co.stopReq.Load() {
		if len(e.dirty) > 0 || len(e.ctrlq) > 0 {
			return
		}
		e.discardCanceledRoot()
		if len(e.queue) == 0 || e.queue[0].when >= limit {
			return
		}
		ev := e.heapPop()
		e.now = ev.when
		e.executed++
		ev.fn()
		e.recycle(ev)
	}
}

// runSerialWindow executes every due event across all domains in global
// (when, domain index, seq) order, advancing every domain clock in step so
// control events observe a coherent Now() everywhere and may schedule on any
// domain without tripping past-time checks. This is the canonical order the
// concurrent windows are provably equivalent to.
func (c *coord) runSerialWindow(end Time) {
	for !c.stopReq.Load() {
		var best *Engine
		for _, d := range c.engines {
			d.discardCanceledRoot()
			if len(d.queue) == 0 || d.queue[0].when >= end {
				continue
			}
			if best == nil || d.queue[0].when < best.queue[0].when {
				best = d
			}
		}
		if best == nil {
			return
		}
		ev := best.heapPop()
		for _, d := range c.engines {
			if d.now < ev.when {
				d.now = ev.when
			}
		}
		best.executed++
		ev.fn()
		best.recycle(ev)
	}
}

// domainDue reports whether domain i (>= 1) has anything to do this window:
// due events below its bound, or speculation eligibility.
func (c *coord) domainDue(i int) bool {
	if c.heads[i] < c.eat[i] {
		return true
	}
	return c.specHorizon > 0 && c.engines[i].specCapable
}

// runParallelWindow executes a window with no due control events: the
// domains are independent until the barrier, so they may run concurrently,
// each to its own earliest-affect bound. With one executor — or too little
// due work to pay for waking the pool — the sweep runs inline in
// domain-index order, the same order the merge semantics guarantee for any
// executor count. Consecutive inline windows raise the wakeup bar, so a
// sparse phase does not pay pool traffic on every window.
func (c *coord) runParallelWindow(rw *runWorkers) {
	if rw != nil {
		active := 0
		for i := 1; i < len(c.engines); i++ {
			if c.heads[i] < c.eat[i] {
				active++
			}
		}
		bar := c.parThreshold
		if c.sparseStreak > 0 {
			extra := c.sparseStreak
			if extra > c.parThreshold {
				extra = c.parThreshold
			}
			bar += extra
		}
		if active >= bar {
			c.sparseStreak = 0
			rw.dispatch()
			return
		}
		c.sparseStreak++
	}
	for i, d := range c.engines[1:] {
		if c.domainDue(i + 1) {
			d.runDomainWindow(c.eat[i+1])
		}
	}
}

// flushWindow is the barrier: resolve speculative spans, move boundary
// transfers into their receiving domains, and promote deferred control
// closures to control-domain events — all in deterministic domain-index
// order. Only domains that noted a dirty boundary are touched.
func (c *coord) flushWindow(end Time) {
	if c.anySpec && c.specHorizon > 0 {
		c.resolveSpeculation()
	}
	if len(c.dirtyDoms) > 0 {
		sort.Ints(c.dirtyDoms)
		for _, di := range c.dirtyDoms {
			d := c.engines[di]
			d.dirtyNoted = false
			for i, b := range d.dirty {
				b.FlushBoundary()
				d.dirty[i] = nil
			}
			d.dirty = d.dirty[:0]
		}
		c.dirtyDoms = c.dirtyDoms[:0]
	}
	if c.anyCtrl.Swap(false) {
		// A run-ahead domain's clock may sit past the nominal window end;
		// the control event must land at or after every domain clock so
		// control code never observes — or schedules into — a domain's past.
		at := end
		for _, d := range c.engines {
			if d.now > at {
				at = d.now
			}
		}
		for _, d := range c.engines {
			if len(d.ctrlq) == 0 {
				continue
			}
			for i, fn := range d.ctrlq {
				c.root.AtLabel(at, "ctrl", fn)
				d.ctrlq[i] = nil
			}
			d.ctrlq = d.ctrlq[:0]
		}
	}
}

// resolveSpeculation decides every open speculative span at the barrier. A
// span may commit only if no event chain — from any queued event, any
// in-flight boundary transfer, or any other span's potential rollback — can
// ever land inside it. That is the same earliest-affect fixpoint the
// windows use, evaluated on pessimistic sources: a speculating domain
// contributes its span-start clock (a lower bound on its behavior whether
// it commits or rolls back), and pending transfers contribute their
// delivery times to their target. Spans whose end exceeds the bound roll
// back and re-execute conservatively; the decision inputs are all
// schedule-deterministic, so the outcome is executor-count invariant.
func (c *coord) resolveSpeculation() {
	specs := c.specScratch[:0]
	for _, d := range c.engines {
		if d.spec != nil {
			specs = append(specs, d)
		}
	}
	c.specScratch = specs
	if len(specs) == 0 {
		return
	}
	n := len(c.engines)
	if cap(c.src) < n {
		c.src = make([]Time, n)
		c.arr = make([]Time, n)
	}
	c.src = c.src[:n]
	c.arr = c.arr[:n]
	for i, d := range c.engines {
		c.arr[i] = Forever
		if d.spec != nil {
			c.src[i] = d.spec.now
			continue
		}
		d.discardCanceledRoot()
		if len(d.queue) == 0 {
			c.src[i] = Forever
		} else {
			c.src[i] = d.queue[0].when
		}
	}
	untimed := false
	for _, di := range c.dirtyDoms {
		for _, b := range c.engines[di].dirty {
			tb, ok := b.(TimedBoundary)
			if !ok {
				untimed = true
				break
			}
			tgt := tb.BoundaryTarget().domIdx
			at := tb.EarliestPending()
			// The pending transfer lands in the target at `at` (capping the
			// target's own bound) and everything the target does in reaction
			// starts there (a source for domains downstream of the target).
			if at < c.arr[tgt] {
				c.arr[tgt] = at
			}
			if at < c.src[tgt] {
				c.src[tgt] = at
			}
		}
	}
	if untimed {
		// A dirty boundary we cannot attribute: assume the worst and
		// replay every span conservatively.
		for _, d := range specs {
			d.rollbackSpec()
			c.noteSpecOutcome(d.domIdx, false)
		}
		return
	}
	c.relaxEAT(c.src, Forever)
	for _, d := range specs {
		bound := c.eat[d.domIdx]
		if a := c.arr[d.domIdx]; a < bound {
			bound = a
		}
		if bound >= d.now {
			d.commitSpec()
			c.noteSpecOutcome(d.domIdx, true)
		} else {
			d.rollbackSpec()
			c.noteSpecOutcome(d.domIdx, false)
		}
	}
}

// relaxEAT runs the earliest-affect fixpoint over arbitrary per-domain
// source times, every bound capped at base, filling c.eat (see computeEAT).
// The relaxation converges in at most diameter+1 passes (edge latencies are
// positive, so revisiting a domain never improves a chain).
func (c *coord) relaxEAT(src []Time, base Time) {
	n := len(c.engines)
	if cap(c.eat) < n {
		c.eat = make([]Time, n)
	}
	c.eat = c.eat[:n]
	for i := range c.eat {
		c.eat[i] = Forever
	}
	for {
		ready0 := src[0]
		if c.eat[0] < ready0 {
			ready0 = c.eat[0]
		}
		cap0 := base
		if ready0 < cap0 {
			cap0 = ready0
		}
		changed := false
		for i := 0; i < n; i++ {
			v := cap0
			if i == 0 {
				v = base // the control domain does not bound itself
			}
			if ie := c.inEdges; i < len(ie) {
				for _, ed := range ie[i] {
					r := src[ed.from]
					if er := c.eat[ed.from]; er < r {
						r = er
					}
					if r >= Forever-ed.lat {
						continue
					}
					if a := r + ed.lat; a < v {
						v = a
					}
				}
			}
			if v < c.eat[i] {
				c.eat[i] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// mergeTraces drains buffered trace lines strictly below cutoff into the
// sink in (time, domain index, emission order) order — identical to the
// serialized execution order. Lines at or beyond the cutoff (the global
// clock floor) stay buffered: a domain that ran ahead of its peers must not
// emit before a slower peer's earlier line, and a speculative line must not
// reach the sink before its span resolves. Pass Forever for the final drain.
func (c *coord) mergeTraces(cutoff Time) {
	for {
		var best *Engine
		for _, d := range c.engines {
			if d.tracePos >= len(d.traceBuf) {
				continue
			}
			l := &d.traceBuf[d.tracePos]
			if l.at >= cutoff {
				continue // per-domain times are nondecreasing: all held
			}
			if best == nil || l.at < best.traceBuf[best.tracePos].at {
				best = d
			}
		}
		if best == nil {
			break
		}
		l := &best.traceBuf[best.tracePos]
		best.tracePos++
		c.sink(l.at, l.comp, "%s", l.msg)
	}
	for _, d := range c.engines {
		if d.tracePos == len(d.traceBuf) {
			for i := range d.traceBuf {
				d.traceBuf[i] = traceLine{}
			}
			d.traceBuf = d.traceBuf[:0]
			d.tracePos = 0
		} else if d.tracePos > 256 && d.tracePos*2 > len(d.traceBuf) {
			n := copy(d.traceBuf, d.traceBuf[d.tracePos:])
			for i := n; i < len(d.traceBuf); i++ {
				d.traceBuf[i] = traceLine{}
			}
			d.traceBuf = d.traceBuf[:n]
			d.tracePos = 0
		}
	}
}

// --- Worker pool ---

// runWorkers is the per-run executor pool: shards-1 goroutines plus the
// coordinator itself, each sweeping a static domain partition per window.
// Workers live for one Run call — parked on their job channel between
// windows, joined when the run ends — so idle engines hold no goroutines.
type runWorkers struct {
	c        *coord
	n        int             // executors, including the coordinator
	jobs     []chan struct{} // one per pooled worker
	wg       sync.WaitGroup
	lifetime sync.WaitGroup
	panicMu  sync.Mutex
	panicVal any
}

func (c *coord) startWorkers() *runWorkers {
	n := c.shards
	if max := len(c.engines) - 1; n > max {
		n = max
	}
	if n <= 1 {
		return nil
	}
	rw := &runWorkers{c: c, n: n, jobs: make([]chan struct{}, n-1)}
	for w := range rw.jobs {
		rw.jobs[w] = make(chan struct{}, 1)
		rw.lifetime.Add(1)
		go rw.workerLoop(w + 1)
	}
	return rw
}

func (rw *runWorkers) workerLoop(w int) {
	defer rw.lifetime.Done()
	for range rw.jobs[w-1] {
		rw.runPartition(w)
		rw.wg.Done()
	}
}

// runPartition sweeps the domains assigned to executor w (round-robin by
// domain index, a static assignment so a domain's queue is touched by
// exactly one goroutine per window), each to its own per-edge bound.
// Panics are captured and re-raised on the coordinator after the barrier,
// so a failing event cannot deadlock the pool.
func (rw *runWorkers) runPartition(w int) {
	defer func() {
		if r := recover(); r != nil {
			rw.panicMu.Lock()
			if rw.panicVal == nil {
				rw.panicVal = fmt.Sprintf("sim: domain event panic: %v", r)
			}
			rw.panicMu.Unlock()
		}
	}()
	c := rw.c
	doms := c.engines[1:]
	for i := w; i < len(doms); i += rw.n {
		if c.domainDue(i + 1) {
			doms[i].runDomainWindow(c.eat[i+1])
		}
	}
}

// dispatch fans one window out to the pool, participates as executor 0, and
// waits for every partition to finish before returning.
func (rw *runWorkers) dispatch() {
	rw.wg.Add(rw.n - 1)
	for _, ch := range rw.jobs {
		ch <- struct{}{}
	}
	rw.runPartition(0)
	rw.wg.Wait()
	if rw.panicVal != nil {
		v := rw.panicVal
		rw.panicVal = nil
		panic(v)
	}
}

func (rw *runWorkers) stop() {
	for _, ch := range rw.jobs {
		close(ch)
	}
	rw.lifetime.Wait()
}
