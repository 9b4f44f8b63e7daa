package core

import (
	"fmt"

	"repro/internal/lanai"
	"repro/internal/sim"
)

// FTDConfig sets the daemon's recovery-phase durations. The defaults are
// calibrated so the FTD span lands near the paper's measured ~765,000 µs,
// of which ~500,000 µs is the MCP reload (§5.2, Table 3).
type FTDConfig struct {
	// VerifyInterval is how long the FTD waits after writing the magic
	// word before checking whether a live MCP cleared it — it must cover a
	// worst-case L_timer gap (§4.3).
	VerifyInterval sim.Duration
	// DisableInterrupts, UnmapIO, CardReset, ClearSRAM are the pre-reload
	// steps of §4.3.
	DisableInterrupts sim.Duration
	UnmapIO           sim.Duration
	CardReset         sim.Duration
	ClearSRAM         sim.Duration
	// RestorePageTable covers notifying the LANai of the host's page hash
	// table; RestoreRoutes covers the mapping/route upload (§4.3).
	RestorePageTable sim.Duration
	RestoreRoutes    sim.Duration
	// PostEventPerPort is the cost of posting FAULT_DETECTED into one open
	// port's receive queue.
	PostEventPerPort sim.Duration

	// MaxReloadAttempts bounds MCP reload tries within one recovery pass;
	// retries back off exponentially from ReloadRetryBase, capped at
	// ReloadRetryCap. Zero values take the defaults.
	MaxReloadAttempts int
	ReloadRetryBase   sim.Duration
	ReloadRetryCap    sim.Duration
	// MaxRecoveryRestarts bounds how many times the §4.3 sequence restarts
	// after the LANai hangs again mid-recovery before the FTD gives up
	// with a terminal RecoveryFailed outcome.
	MaxRecoveryRestarts int
}

// DefaultFTDConfig matches the Table 3 breakdown.
func DefaultFTDConfig() FTDConfig {
	return FTDConfig{
		VerifyInterval:    2 * sim.Millisecond,
		DisableInterrupts: 100 * sim.Microsecond,
		UnmapIO:           3 * sim.Millisecond,
		CardReset:         50 * sim.Millisecond,
		ClearSRAM:         12 * sim.Millisecond,
		RestorePageTable:  150 * sim.Millisecond,
		RestoreRoutes:     45 * sim.Millisecond,
		PostEventPerPort:  1500 * sim.Microsecond,

		MaxReloadAttempts:   3,
		ReloadRetryBase:     10 * sim.Millisecond,
		ReloadRetryCap:      80 * sim.Millisecond,
		MaxRecoveryRestarts: 3,
	}
}

// Phase names a step of the recovery, for the Figure 9 timeline.
type Phase int

// Recovery phases in order.
const (
	PhaseFaultInjected Phase = iota + 1
	PhaseInterrupt
	PhaseFTDWake
	PhaseVerified
	PhaseCardReset
	PhaseMCPReloaded
	PhaseTablesRestored
	PhaseEventsPosted
	PhaseProcessesDone
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseFaultInjected:
		return "fault-injected"
	case PhaseInterrupt:
		return "watchdog-interrupt"
	case PhaseFTDWake:
		return "ftd-woken"
	case PhaseVerified:
		return "hang-verified"
	case PhaseCardReset:
		return "card-reset"
	case PhaseMCPReloaded:
		return "mcp-reloaded"
	case PhaseTablesRestored:
		return "tables-restored"
	case PhaseEventsPosted:
		return "fault-events-posted"
	case PhaseProcessesDone:
		return "processes-recovered"
	default:
		return fmt.Sprintf("phase?%d", int(p))
	}
}

// Timeline records when each recovery phase completed (Figure 9).
type Timeline struct {
	marks map[Phase]sim.Time
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{marks: make(map[Phase]sim.Time)} }

// Mark records a phase completion (first mark wins).
func (t *Timeline) Mark(p Phase, at sim.Time) {
	if _, ok := t.marks[p]; !ok {
		t.marks[p] = at
	}
}

// At returns a phase's timestamp.
func (t *Timeline) At(p Phase) (sim.Time, bool) {
	v, ok := t.marks[p]
	return v, ok
}

// DetectionTime is fault injection -> FTD wakeup: "measured as the time
// from the fault injection to the time when the FTD is woken up by the
// driver" (§5.2).
func (t *Timeline) DetectionTime() sim.Duration {
	return t.span(PhaseFaultInjected, PhaseFTDWake)
}

// FTDTime is FTD wakeup -> FAULT_DETECTED events posted (Table 3 "FTD
// Recovery Time").
func (t *Timeline) FTDTime() sim.Duration {
	return t.span(PhaseFTDWake, PhaseEventsPosted)
}

// ReloadTime is the MCP reload component of the FTD time.
func (t *Timeline) ReloadTime() sim.Duration {
	return t.span(PhaseCardReset, PhaseMCPReloaded)
}

// PerProcessTime is events posted -> all processes recovered (Table 3
// "Per-process Recovery Time").
func (t *Timeline) PerProcessTime() sim.Duration {
	return t.span(PhaseEventsPosted, PhaseProcessesDone)
}

// TotalTime is fault injection -> all processes recovered.
func (t *Timeline) TotalTime() sim.Duration {
	return t.span(PhaseFaultInjected, PhaseProcessesDone)
}

func (t *Timeline) span(a, b Phase) sim.Duration {
	ta, oka := t.marks[a]
	tb, okb := t.marks[b]
	if !oka || !okb || tb < ta {
		return 0
	}
	return tb - ta
}

// Phases returns the recorded phases in order with timestamps.
func (t *Timeline) Phases() []struct {
	Phase Phase
	At    sim.Time
} {
	var out []struct {
		Phase Phase
		At    sim.Time
	}
	for p := PhaseFaultInjected; p <= PhaseProcessesDone; p++ {
		if at, ok := t.marks[p]; ok {
			out = append(out, struct {
				Phase Phase
				At    sim.Time
			}{p, at})
		}
	}
	return out
}

// FTDStats counts daemon activity.
type FTDStats struct {
	Wakeups        uint64
	FalseAlarms    uint64 // magic word cleared: the LANai was alive after all
	Recoveries     uint64
	PortsRecovered uint64
	// ReloadRetries counts MCP reload attempts beyond the first.
	ReloadRetries uint64
	// RecoveryRestarts counts §4.3 sequence restarts after the LANai hung
	// again mid-recovery.
	RecoveryRestarts uint64
	// Failures counts terminal RecoveryFailed outcomes.
	Failures uint64
}

// ftdState tracks where the daemon is in its fault-handling cycle so
// re-entrant fault reports coalesce into the recovery already underway.
type ftdState int

const (
	ftdIdle ftdState = iota
	ftdVerifying
	ftdRecovering
	ftdFailed
)

// RecoveryOutcome is the disposition of the most recent recovery cycle.
type RecoveryOutcome int

// Recovery outcomes.
const (
	// RecoveryPending: no recovery has concluded (none started, or one is
	// in flight).
	RecoveryPending RecoveryOutcome = iota
	// RecoveryOK: the last recovery completed and re-armed the daemon.
	RecoveryOK
	// RecoveryFailed is terminal: reloads or restarts exceeded their
	// bounds and the FTD stopped rather than loop forever; only Retry
	// (the operator path) re-enters recovery.
	RecoveryFailed
)

// String names the outcome.
func (o RecoveryOutcome) String() string {
	switch o {
	case RecoveryPending:
		return "pending"
	case RecoveryOK:
		return "ok"
	case RecoveryFailed:
		return "failed"
	default:
		return fmt.Sprintf("outcome?%d", int(o))
	}
}

// FTD is the fault tolerance daemon of §4.3: a host process that sleeps
// until the driver's FATAL interrupt wakes it, verifies the hang via the
// magic-word handshake, and rebuilds the interface: reset, SRAM clear, MCP
// reload, page-hash and route restoration, and a FAULT_DETECTED event in
// every open port's receive queue. It then "rewinds and stands guard for
// the recovery of the next fault".
type FTD struct {
	eng    *sim.Engine
	driver *Driver
	cfg    FTDConfig

	timeline *Timeline
	stats    FTDStats

	state          ftdState
	outcome        RecoveryOutcome
	failReason     string
	reloadAttempts int
	restarts       int
	// gen counts Halts: each scheduled step of a cycle carries the
	// generation it was scheduled under and goes inert once it moves.
	gen uint64

	// Speculation journaling (core spec.go).
	specMark uint64
	shadow   ftdShadow

	// OnRecovered runs after FAULT_DETECTED events are posted (tests and
	// experiment harnesses hook it).
	OnRecovered func(*Timeline)
	// OnFailed runs on a terminal RecoveryFailed outcome.
	OnFailed func(reason string)
}

// NewFTD builds and arms the daemon on a driver. Zero retry/restart bounds
// in cfg are normalized to the defaults, so pre-existing config literals
// keep their meaning.
func NewFTD(driver *Driver, cfg FTDConfig) *FTD {
	def := DefaultFTDConfig()
	if cfg.MaxReloadAttempts <= 0 {
		cfg.MaxReloadAttempts = def.MaxReloadAttempts
	}
	if cfg.ReloadRetryBase <= 0 {
		cfg.ReloadRetryBase = def.ReloadRetryBase
	}
	if cfg.ReloadRetryCap <= 0 {
		cfg.ReloadRetryCap = def.ReloadRetryCap
	}
	if cfg.MaxRecoveryRestarts <= 0 {
		cfg.MaxRecoveryRestarts = def.MaxRecoveryRestarts
	}
	f := &FTD{
		eng:      driver.eng,
		driver:   driver,
		cfg:      cfg,
		timeline: NewTimeline(),
	}
	driver.SetOnFatal(f.wake)
	return f
}

// Timeline returns the current recovery timeline.
func (f *FTD) Timeline() *Timeline { return f.timeline }

// Stats returns daemon counters.
func (f *FTD) Stats() FTDStats { return f.stats }

// Outcome reports the disposition of the most recent recovery cycle.
func (f *FTD) Outcome() RecoveryOutcome { return f.outcome }

// FailReason describes a RecoveryFailed outcome ("" otherwise).
func (f *FTD) FailReason() string { return f.failReason }

// Busy reports whether a cycle is in flight: the daemon has woken and has
// neither posted FAULT_DETECTED nor dismissed a false alarm.
func (f *FTD) Busy() bool { return f.state == ftdVerifying || f.state == ftdRecovering }

// Halt stops the daemon with its host (host death): every scheduled step of
// the cycle in flight goes inert and the daemon returns to idle, armed for
// the revived host's next FATAL. Stats and the timeline are kept.
func (f *FTD) Halt() {
	f.SpecTouch()
	f.gen++
	f.state = ftdIdle
}

// after schedules the next step of the cycle in flight; a Halt in between
// makes it inert.
func (f *FTD) after(d sim.Duration, step func()) {
	gen := f.gen
	f.eng.After(d, func() {
		if f.gen == gen {
			step()
		}
	})
}

// MarkFault records the fault-injection instant (experiment harnesses call
// this when they inject). A fault injected while a recovery is already
// underway folds into the current cycle and keeps its timeline.
func (f *FTD) MarkFault() {
	if f.state != ftdIdle {
		return
	}
	f.SpecTouch()
	f.timeline = NewTimeline()
	f.timeline.Mark(PhaseFaultInjected, f.eng.Now())
}

// wake is the daemon's entry: the driver saw the FATAL interrupt. Wakeups
// while verifying, recovering, or terminally failed coalesce — the driver
// already suppresses re-entrant FATALs, but a re-delivered pending FATAL
// can still race a Retry, so the daemon guards its own state too.
func (f *FTD) wake() {
	f.SpecTouch()
	f.stats.Wakeups++
	if f.state != ftdIdle {
		return
	}
	f.state = ftdVerifying
	f.timeline.Mark(PhaseFTDWake, f.eng.Now())
	f.verify()
}

// verify writes the magic word into LANai SRAM; a functioning MCP clears it
// within an L_timer interval. "If the location is not cleared, the FTD
// assumes that the interface has hung" (§4.3).
func (f *FTD) verify() {
	chip := f.driver.Chip()
	chip.WriteWord(lanai.MagicAddr, lanai.MagicWord)
	f.after(f.cfg.VerifyInterval, func() {
		f.SpecTouch()
		if chip.ReadWord(lanai.MagicAddr) != lanai.MagicWord {
			// The LANai is alive; false alarm. Re-arm and go back to sleep
			// without resetting anything.
			f.stats.FalseAlarms++
			f.state = ftdIdle
			f.driver.ClearFatal()
			return
		}
		f.timeline.Mark(PhaseVerified, f.eng.Now())
		f.state = ftdRecovering
		f.outcome = RecoveryPending
		f.restarts = 0
		f.recover()
	})
}

// recover executes the §4.3 sequence with the calibrated phase costs. Each
// pass resets the reload-attempt budget; a restart after a mid-recovery
// hang re-enters here.
func (f *FTD) recover() {
	d := f.driver
	chip := d.Chip()
	f.SpecTouch()
	f.reloadAttempts = 0
	f.after(f.cfg.DisableInterrupts, func() {
		// Interrupts disabled, IO unmapped.
		f.after(f.cfg.UnmapIO, func() {
			// Card reset: all components return to a non-faulty state
			// (the fault is assumed transient, §4.3).
			f.after(f.cfg.CardReset, func() {
				chip.Reset()
				f.after(f.cfg.ClearSRAM, func() {
					chip.ClearSRAM()
					f.SpecTouch()
					f.timeline.Mark(PhaseCardReset, f.eng.Now())
					// Reload the MCP (the dominant cost, ~500 ms).
					f.reloadMCP()
				})
			})
		})
	})
}

// reloadMCP attempts the MCP reload, retrying a failed load with capped
// exponential backoff before giving up terminally.
func (f *FTD) reloadMCP() {
	f.SpecTouch()
	f.reloadAttempts++
	gen := f.gen
	f.driver.LoadMCPChecked(func(ok bool) {
		if f.gen != gen {
			return
		}
		f.SpecTouch()
		if !ok {
			if f.reloadAttempts >= f.cfg.MaxReloadAttempts {
				f.fail(fmt.Sprintf("mcp reload failed %d times", f.reloadAttempts))
				return
			}
			delay := f.cfg.ReloadRetryBase << uint(f.reloadAttempts-1)
			if delay > f.cfg.ReloadRetryCap {
				delay = f.cfg.ReloadRetryCap
			}
			f.stats.ReloadRetries++
			f.eng.Tracef("ftd", "mcp reload attempt %d failed; retrying in %v", f.reloadAttempts, delay)
			f.after(delay, f.reloadMCP)
			return
		}
		f.timeline.Mark(PhaseMCPReloaded, f.eng.Now())
		f.restoreTables()
	})
}

// alive checks mid-recovery that the freshly reloaded LANai is still
// running. Chaos can hang the card again while tables are being restored,
// and the restore operations would silently no-op against a dead chip —
// producing a "recovered" interface that forwards nothing. A failed check
// restarts the §4.3 sequence (the fault is assumed transient), bounded by
// MaxRecoveryRestarts.
func (f *FTD) alive() bool {
	if f.driver.Chip().Running() {
		return true
	}
	f.SpecTouch()
	f.restarts++
	f.stats.RecoveryRestarts++
	if f.restarts > f.cfg.MaxRecoveryRestarts {
		f.fail(fmt.Sprintf("lanai hung %d times during recovery", f.restarts))
		return false
	}
	f.eng.Tracef("ftd", "lanai hung mid-recovery; restarting sequence (%d/%d)",
		f.restarts, f.cfg.MaxRecoveryRestarts)
	f.recover()
	return false
}

// fail records a terminal RecoveryFailed outcome. FATAL delivery stays
// disarmed — further watchdog expiries are suppressed and the simulation
// quiesces instead of looping — until Retry re-enters recovery.
func (f *FTD) fail(reason string) {
	f.SpecTouch()
	f.state = ftdFailed
	f.outcome = RecoveryFailed
	f.failReason = reason
	f.stats.Failures++
	f.eng.Tracef("ftd", "recovery failed: %s", reason)
	if f.OnFailed != nil {
		f.OnFailed(reason)
	}
}

// Retry re-enters recovery after a terminal failure (the operator path:
// clear whatever blocked the reload, run the FTD again). No-op unless the
// daemon is in the failed state.
func (f *FTD) Retry() {
	if f.state != ftdFailed {
		return
	}
	f.SpecTouch()
	f.state = ftdRecovering
	f.outcome = RecoveryPending
	f.failReason = ""
	f.restarts = 0
	f.recover()
}

// restoreTables re-registers the page hash table and re-uploads the
// mapping/route information, then posts FAULT_DETECTED everywhere.
func (f *FTD) restoreTables() {
	d := f.driver
	f.after(f.cfg.RestorePageTable, func() {
		if !f.alive() {
			return
		}
		d.MCP().RegisterPageTable(d.PageTable().Len())
		f.after(f.cfg.RestoreRoutes, func() {
			if !f.alive() {
				return
			}
			if d.Routes() != nil {
				d.MCP().UploadRoutes(d.Routes())
				d.MCP().SetNodeID(d.NodeID())
			}
			f.SpecTouch()
			f.timeline.Mark(PhaseTablesRestored, f.eng.Now())
			f.postFaultEvents()
		})
	})
}

// postFaultEvents re-opens each port skeleton and posts FAULT_DETECTED into
// its receive queue; the per-process handler does the rest (§4.4).
func (f *FTD) postFaultEvents() {
	d := f.driver
	ports := d.OpenPorts()
	var next func(i int)
	next = func(i int) {
		f.SpecTouch()
		if i >= len(ports) {
			f.timeline.Mark(PhaseEventsPosted, f.eng.Now())
			f.stats.Recoveries++
			f.state = ftdIdle
			f.outcome = RecoveryOK
			d.ClearFatal()
			if f.OnRecovered != nil {
				f.OnRecovered(f.timeline)
			}
			return
		}
		port := ports[i]
		f.after(f.cfg.PostEventPerPort, func() {
			if !f.alive() {
				return
			}
			// The port is reopened in a bare state; the process's
			// FAULT_DETECTED handler restores tokens and sequence state.
			d.MCP().ReopenPort(port, d.PortSink(port))
			d.MCP().PostFaultDetected(port)
			f.stats.PortsRecovered++
			next(i + 1)
		})
	}
	next(0)
}
