package sim

// Speculative run-ahead (Time-Warp-lite). A domain whose conservative
// window bound has been reached may keep executing into a *speculative
// span*: every engine-level mutation is journaled (a copy-on-schedule undo
// log of heap inserts, pops and cancels, plus RNG, clock, sequence and
// counter snapshots) and component state is journaled incrementally through
// the specjournal facility below — first-touch component checkpoints
// (SpecTouch/SpecSaver), raw undo records (SpecUndo) and deferred commit
// effects (SpecOnCommit), all held in pooled record arenas so a warm span
// allocates nothing. The next window barrier resolves each span:
//
//   - commit — no cross-domain transfer landed inside the span. The journal
//     is discarded, deferred effects (e.g. packet-pool releases) run in
//     issue order, retained events recycle, and the span becomes
//     indistinguishable from conservative execution.
//   - rollback — a transfer's delivery time precedes the domain's
//     speculated clock. The undo log replays newest-first (component
//     checkpoints restore, raw records undo), then the heap, RNG, clock,
//     counters, trace buffer and boundary/control queues rewind to the span
//     start (which is exactly the conservative bound, so the incoming
//     transfer — guaranteed by the lookahead contract to arrive at or after
//     that bound — always lands in the restored domain's future), and the
//     span's events re-execute conservatively in a later window.
//
// Because commit/rollback decisions depend only on the deterministic window
// schedule — never on executor count — the bit-for-bit shard-invariance
// contract of shard.go §determinism survives speculation unchanged.
//
// Only domains that registered state hooks with EnableSpeculation
// participate; everything else stays on the conservative bound. Trace lines
// emitted inside a span stay buffered until the span resolves (the barrier
// merge already holds lines back until the global clock passes them), so a
// rolled-back span leaks nothing to the sink.

// SpecSaver is a component that checkpoints itself into its own reusable
// shadow storage. SpecSave copies every field the component's event
// callbacks may mutate into the shadow (reusing shadow capacity, so a warm
// save allocates nothing); SpecRestore copies the shadow back. The pair runs
// at most once per speculative span (Engine.SpecTouch dedupes by span id),
// always on the component's own domain with no other domain active on its
// state.
//
// Discipline for implementers: call SpecTouch at the TOP of every mutating
// method — before the first mutation — including drain loops that set
// transient in-progress flags, so the checkpoint always captures the
// component in its quiescent between-callback shape.
type SpecSaver interface {
	SpecSave()
	SpecRestore()
}

// specRec is one pooled journal record: a package-level function applied to
// boxed operands. Records never capture closures and operands are pointers
// or small scalars, so appending one allocates nothing once the arena is
// warm.
type specRec struct {
	fn     func(a, b any, v1, v2 uint64)
	a, b   any
	v1, v2 uint64
}

func runSaverRestore(a, b any, v1, v2 uint64) { a.(SpecSaver).SpecRestore() }

// specState is the journal of one in-flight speculative span. Engines keep
// one pooled instance (specFree) so opening a span reuses the record arenas
// and event logs of the previous one.
type specState struct {
	// id is a span identifier unique within this engine, drawn from the
	// coordinator's atomic counter. Components store it in their touch-epoch
	// field to dedupe first-touch saves; it never influences simulation
	// behavior, so its (executor-order-dependent) value does not break
	// determinism. State that outlives the engine (the process-wide packet
	// arena) must zero its epoch field before recycling, or a mark from a
	// dead engine can collide with a live span id (fabric pool.go).
	id        uint64
	savedComp any    // component checkpoint from the domain's save hook
	rng       uint64 // RNG stream position at span start
	now       Time
	executed  uint64
	nextSeq   uint64
	canceled  int // engine's canceled-event counter at span start

	dirtyLen int // lengths of the barrier queues at span start:
	ctrlLen  int // entries beyond these marks are speculative
	traceLen int

	// popped retains every event removed from the heap during the span
	// (fired or canceled-discarded), in pop order. Rollback re-pushes the
	// pre-span ones and erases the span-scheduled ones; commit recycles all.
	popped []*Event
	// pushed tracks events scheduled during the span (specNew flag set).
	pushed []*Event
	// canceledEvs tracks pre-span events canceled during the span, so
	// rollback can revive them.
	canceledEvs []*Event

	// undo is the component journal: first-touch checkpoint restores and raw
	// undo records, replayed newest-first on rollback so every record rewinds
	// to its capture point and the oldest capture wins.
	undo []specRec
	// commit holds deferred effects replayed oldest-first on commit — e.g.
	// packet-pool releases parked until the span is known to stand, so a
	// rollback can revive the packet without the pool having recycled it.
	commit []specRec

	// stopped journals a Stop() issued inside the span; it reaches the
	// coordinator only on commit.
	stopped bool
}

// EnableSpeculation registers the component state hooks that make this
// domain eligible for speculative run-ahead: save runs at span open and must
// checkpoint whatever per-domain state is NOT covered by the components'
// incremental SpecTouch/SpecUndo journaling (for fully journaled domains it
// may simply return nil), and restore rewinds it on rollback. Both hooks run
// on the domain's executor with no other domain active on its state. Must be
// called on a non-control domain before the first Run.
func (e *Engine) EnableSpeculation(save func() any, restore func(any)) {
	if e.co == nil || e.domIdx == 0 {
		panic("sim: EnableSpeculation on a non-domain engine (speculation needs a domain carved with NewDomain)")
	}
	if save == nil || restore == nil {
		panic("sim: EnableSpeculation needs both a save and a restore hook")
	}
	if e.co.running {
		panic("sim: EnableSpeculation during run")
	}
	e.specCapable = true
	e.specSave = save
	e.specRestore = restore
	e.co.anySpec = true
}

// SetSpeculation arms speculative run-ahead on the whole simulation:
// domains that registered hooks with EnableSpeculation may execute past
// their conservative window bound. horizon is the *initial and maximum*
// per-domain run-ahead: each domain's effective horizon then adapts between
// horizon/16 and horizon from its observed commit/rollback outcomes (AIMD —
// see noteSpecOutcome in shard.go). 0 (the default) disables speculation.
// Call on the control engine before the first Run.
func (e *Engine) SetSpeculation(horizon Duration) {
	c := e.ensureCoord()
	if c.running {
		panic("sim: SetSpeculation during run")
	}
	if horizon < 0 {
		horizon = 0
	}
	c.specHorizon = horizon
	c.horizons = nil // re-derive per-domain horizons from the new bound
}

// SpecStats reports how many speculative spans committed and rolled back,
// and how many speculatively executed events each outcome covered. Rolled-
// back events re-execute conservatively, so rollbackEvents counts wasted —
// not lost — work.
func (e *Engine) SpecStats() (commits, rollbacks, commitEvents, rollbackEvents uint64) {
	if e.co == nil {
		return 0, 0, 0, 0
	}
	c := e.co
	return c.specCommits, c.specRollbacks, c.specCommitEvents, c.specRollbackEvents
}

// SpecActive reports whether this engine is inside an open speculative
// span. Component code uses it to route irreversible effects (packet-pool
// releases) through SpecOnCommit instead of performing them in place.
func (e *Engine) SpecActive() bool { return e.spec != nil }

// The rule for every journaling entry point (SpecActive, SpecTouch,
// SpecUndo, SpecOnCommit) and every component wrapper around one: it must
// inline, so that outside a span — where all conservative execution runs —
// a journaled mutation costs one load and one branch at its call site and no
// call. SpecActive, SpecUndo and SpecOnCommit inline whole: their in-span
// work is one append, which the inliner prices low. SpecTouch's in-span work
// (epoch compare, interface SpecSave, append) does not fit the budget, so it
// lives in specTouchSlow, marked noinline so it can never be pulled back
// into the gate. inline_test.go fails if a gate or a listed wrapper stops
// inlining; DESIGN.md §16 gives the measured cost of an out-of-line gate.

// SpecTouch journals component s into the current span on first touch: the
// component's SpecSave runs once per span (epoch must point at a uint64
// owned by the component, compared against the span id) and a restore
// record joins the undo log. Outside a span this is a single nil check,
// inlined at the call site. Call it at the top of every mutating method of
// a journaled component.
func (e *Engine) SpecTouch(epoch *uint64, s SpecSaver) {
	if e.spec == nil {
		return
	}
	e.specTouchSlow(epoch, s)
}

//go:noinline
func (e *Engine) specTouchSlow(epoch *uint64, s SpecSaver) {
	sp := e.spec
	if *epoch == sp.id {
		return
	}
	*epoch = sp.id
	s.SpecSave()
	sp.undo = append(sp.undo, specRec{fn: runSaverRestore, a: s})
}

// SpecUndo appends a raw undo record to the current span's journal: on
// rollback fn(a, b, v1, v2) runs, with records replayed newest-first. Use it
// for fine-grained state where a whole-component checkpoint would be too
// expensive (per-word memory writes, map inserts/deletes, free-list ops).
// No-op outside a span. fn must be a package-level function — a closure here
// would allocate per record.
func (e *Engine) SpecUndo(fn func(a, b any, v1, v2 uint64), a, b any, v1, v2 uint64) {
	sp := e.spec
	if sp == nil {
		return
	}
	sp.undo = append(sp.undo, specRec{fn: fn, a: a, b: b, v1: v1, v2: v2})
}

// SpecOnCommit defers fn(a, b, v1, v2) until the current span commits;
// records run oldest-first. A rolled-back span discards them. Outside a span
// fn runs immediately, so call sites need no branch of their own.
func (e *Engine) SpecOnCommit(fn func(a, b any, v1, v2 uint64), a, b any, v1, v2 uint64) {
	sp := e.spec
	if sp == nil {
		fn(a, b, v1, v2)
		return
	}
	sp.commit = append(sp.commit, specRec{fn: fn, a: a, b: b, v1: v1, v2: v2})
}

// speculate opens a journaled span and executes events in [from, limit).
// Called by the window executor after the conservative portion of the
// window; the span stays open until the barrier resolves it. The span state
// is pooled per engine: reopening reuses the previous span's journal arenas
// and RNG/counter snapshot storage, so a warm span allocates nothing.
func (e *Engine) speculate(limit Time) {
	e.discardCanceledRoot()
	if len(e.queue) == 0 || e.queue[0].when >= limit {
		return
	}
	// Rollback cooloff (noteSpecOutcome): a skip is consumed only here,
	// where a span would otherwise open, so the counter's evolution is a
	// pure function of the deterministic window schedule.
	if s := e.co.specSkip[e.domIdx]; s > 0 {
		e.co.specSkip[e.domIdx] = s - 1
		return
	}
	sp := e.specFree
	if sp == nil {
		sp = new(specState)
	} else {
		e.specFree = nil
	}
	sp.id = e.co.specSpanSeq.Add(1)
	sp.rng = e.rng.State()
	sp.now = e.now
	sp.executed = e.executed
	sp.nextSeq = e.nextSeq
	sp.canceled = e.canceled
	sp.dirtyLen = len(e.dirty)
	sp.ctrlLen = len(e.ctrlq)
	sp.traceLen = len(e.traceBuf)
	sp.stopped = false
	e.spec = sp
	sp.savedComp = e.specSave()
	for !sp.stopped && !e.co.stopReq.Load() {
		e.discardCanceledRoot()
		if len(e.queue) == 0 || e.queue[0].when >= limit {
			return
		}
		ev := e.heapPop()
		e.now = ev.when
		e.executed++
		ev.fn()
		sp.popped = append(sp.popped, ev)
	}
}

// recycleSpan returns a resolved span's journal to the engine's pool with
// every arena cleared but capacity retained.
func (e *Engine) recycleSpan(sp *specState) {
	sp.popped = sp.popped[:0]
	sp.pushed = sp.pushed[:0]
	sp.canceledEvs = sp.canceledEvs[:0]
	sp.undo = sp.undo[:0]
	sp.commit = sp.commit[:0]
	sp.savedComp = nil
	e.specFree = sp
}

// commitSpec finalizes a span: deferred effects run in issue order, retained
// events recycle, span-scheduled events lose their provisional mark, and a
// journaled Stop propagates. Runs on the coordinator at the barrier.
func (e *Engine) commitSpec() {
	sp := e.spec
	e.spec = nil
	for i := range sp.commit {
		r := &sp.commit[i]
		r.fn(r.a, r.b, r.v1, r.v2)
		sp.commit[i] = specRec{}
	}
	for i := range sp.undo {
		sp.undo[i] = specRec{}
	}
	for i, ev := range sp.pushed {
		if ev.index >= 0 {
			ev.specNew = false
		}
		sp.pushed[i] = nil
	}
	for i, ev := range sp.popped {
		e.recycle(ev)
		sp.popped[i] = nil
	}
	for i := range sp.canceledEvs {
		sp.canceledEvs[i] = nil
	}
	if sp.stopped {
		e.co.stopReq.Store(true)
	}
	e.co.specCommits++
	e.co.specCommitEvents += e.executed - sp.executed
	e.recycleSpan(sp)
}

// rollbackSpec rewinds a span. The component journal replays newest-first
// (checkpoint restores and raw undo records interleaved in reverse capture
// order, so the oldest capture wins); then the heap, counters, RNG, trace
// buffer, barrier queues and the eager domain checkpoint rewind. Events the
// span scheduled are erased (their sequence numbers are reissued on
// re-execution, so the replay is bit-for-bit); events it popped are
// re-pushed; events it canceled are revived. Deferred commit effects are
// discarded — the rewound component state still owns those resources. Runs
// on the coordinator at the barrier.
func (e *Engine) rollbackSpec() {
	sp := e.spec
	e.co.specRollbacks++
	e.co.specRollbackEvents += e.executed - sp.executed
	e.spec = nil
	for i := len(sp.undo) - 1; i >= 0; i-- {
		r := &sp.undo[i]
		r.fn(r.a, r.b, r.v1, r.v2)
		sp.undo[i] = specRec{}
	}
	for i := range sp.commit {
		sp.commit[i] = specRec{}
	}
	// Erase span-scheduled events that are still queued. Ones that also
	// fired (or were discarded) inside the span sit on the popped log with
	// index -1 and are recycled below.
	for i, ev := range sp.pushed {
		if ev.index >= 0 {
			e.heapRemove(ev)
			e.recycle(ev)
		}
		sp.pushed[i] = nil
	}
	for i, ev := range sp.popped {
		if ev.specNew {
			e.recycle(ev)
		} else {
			e.heapPush(ev)
		}
		sp.popped[i] = nil
	}
	for i, ev := range sp.canceledEvs {
		ev.canceled = false
		sp.canceledEvs[i] = nil
	}
	e.now = sp.now
	e.executed = sp.executed
	e.nextSeq = sp.nextSeq
	e.canceled = sp.canceled
	e.rng.Restore(sp.rng)
	for i := sp.dirtyLen; i < len(e.dirty); i++ {
		e.dirty[i] = nil
	}
	e.dirty = e.dirty[:sp.dirtyLen]
	for i := sp.ctrlLen; i < len(e.ctrlq); i++ {
		e.ctrlq[i] = nil
	}
	e.ctrlq = e.ctrlq[:sp.ctrlLen]
	for i := sp.traceLen; i < len(e.traceBuf); i++ {
		e.traceBuf[i] = traceLine{}
	}
	e.traceBuf = e.traceBuf[:sp.traceLen]
	e.specRestore(sp.savedComp)
	e.recycleSpan(sp)
}
