package core

import (
	"testing"

	"repro/internal/gmproto"
	"repro/internal/lanai"
	"repro/internal/mcp"
	"repro/internal/sim"
)

// hangAndRecover injects a hang at 10ms and runs until the FTD finishes,
// returning the recovery timeline.
func hangAndRecover(t *testing.T, r *rig) *Timeline {
	t.Helper()
	var tl *Timeline
	r.ftd.OnRecovered = func(timeline *Timeline) { tl = timeline }
	r.eng.RunUntil(10 * sim.Millisecond)
	r.ftd.MarkFault()
	r.m.InjectHang()
	r.eng.RunUntil(10 * sim.Second)
	if tl == nil {
		t.Fatal("recovery never completed")
	}
	return tl
}

// The recovery phases must complete in the §4.3 order: wake, magic-word
// verification, card reset, MCP reload, table restoration, event posting.
func TestFTDPhasesFireInOrder(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	if err := r.driver.OpenPort(1, func(ev gmproto.Event) {}); err != nil {
		t.Fatal(err)
	}
	tl := hangAndRecover(t, r)

	want := []Phase{
		PhaseFaultInjected, PhaseFTDWake, PhaseVerified, PhaseCardReset,
		PhaseMCPReloaded, PhaseTablesRestored, PhaseEventsPosted,
	}
	got := tl.Phases()
	if len(got) != len(want) {
		t.Fatalf("recorded %d phases %+v, want %d", len(got), got, len(want))
	}
	for i, p := range want {
		if got[i].Phase != p {
			t.Errorf("phase[%d] = %v, want %v", i, got[i].Phase, p)
		}
		if i > 0 && got[i].At < got[i-1].At {
			t.Errorf("phase %v at %v precedes %v at %v",
				got[i].Phase, got[i].At, got[i-1].Phase, got[i-1].At)
		}
	}
}

// Table 3 calibration: the default phase durations plus the MCP load time
// must sum to the paper's measured ~765,000 µs FTD recovery time.
func TestDefaultFTDDurationsSumToTable3(t *testing.T) {
	cfg := DefaultFTDConfig()
	sum := cfg.VerifyInterval + cfg.DisableInterrupts + cfg.UnmapIO +
		cfg.CardReset + cfg.ClearSRAM + cfg.RestorePageTable +
		cfg.RestoreRoutes + cfg.PostEventPerPort +
		DefaultDriverConfig().MCPLoadTime
	if sum < 760*sim.Millisecond || sum > 770*sim.Millisecond {
		t.Errorf("default FTD phase sum = %v, want ≈765ms (Table 3)", sum)
	}
}

// A second hang while the FTD is restoring tables must not produce a
// "recovered" interface with a dead chip: the liveness checks restart the
// §4.3 sequence and the recovery still concludes.
func TestHangDuringRecoveryRestartsSequence(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	if err := r.driver.OpenPort(1, func(ev gmproto.Event) {}); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	r.ftd.OnRecovered = func(tl *Timeline) { recovered++ }
	r.eng.RunUntil(10 * sim.Millisecond)
	r.ftd.MarkFault()
	r.m.InjectHang()
	// Poll virtual time until the reloaded MCP starts running again — that
	// is the start of the ~195ms table-restore window — and hang it again.
	var rehang func()
	rehang = func() {
		if r.chip.Running() {
			r.m.InjectHang()
			return
		}
		r.eng.After(sim.Millisecond, rehang)
	}
	r.eng.After(sim.Millisecond, rehang)
	r.eng.RunUntil(20 * sim.Second)

	if recovered != 1 {
		t.Fatalf("recoveries = %d, want 1", recovered)
	}
	if r.ftd.Stats().RecoveryRestarts == 0 {
		t.Error("second hang did not restart the recovery sequence")
	}
	if r.ftd.Outcome() != RecoveryOK {
		t.Errorf("outcome = %v, want ok", r.ftd.Outcome())
	}
	if !r.chip.Running() {
		t.Error("chip not running after restarted recovery")
	}
}

// Regression: after a second, post-recovery hang the driver's
// ClearFatal/re-recovery cycle must leave the port reopened and usable.
func TestSecondHangLeavesPortUsable(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	faultEvents := 0
	if err := r.driver.OpenPort(1, func(ev gmproto.Event) {
		if ev.Type == gmproto.EvFaultDetected {
			faultEvents++
		}
	}); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	r.ftd.OnRecovered = func(tl *Timeline) { recovered++ }
	r.eng.RunUntil(10 * sim.Millisecond)
	r.m.InjectHang()
	r.eng.RunUntil(5 * sim.Second)
	r.m.InjectHang()
	r.eng.RunUntil(15 * sim.Second)

	if recovered != 2 {
		t.Fatalf("recoveries = %d, want 2", recovered)
	}
	if faultEvents != 2 {
		t.Errorf("FAULT_DETECTED events = %d, want 2", faultEvents)
	}
	if !r.m.PortOpen(1) {
		t.Error("port not open after second recovery")
	}
	if !r.chip.Running() {
		t.Error("chip not running after second recovery")
	}
	if r.ftd.Outcome() != RecoveryOK {
		t.Errorf("outcome = %v, want ok", r.ftd.Outcome())
	}
}

// A FATAL that arrives while a recovery is in hand is coalesced, then
// re-delivered after ClearFatal; the magic-word verification classifies the
// re-delivery as a false alarm (the card was just rebuilt) and stands down
// without a second reset.
func TestSuppressedFatalRedeliveredAndVerified(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	r.eng.RunUntil(10 * sim.Millisecond)
	r.m.InjectHang()
	// While the hang is detected but recovery hasn't reset the card yet,
	// raise the watchdog bit again: IMR still has IT1 unmasked, so the
	// driver sees a second FATAL and must suppress it.
	r.eng.After(2*sim.Millisecond, func() { r.chip.RaiseISR(lanai.ISRTimer1) })
	r.eng.RunUntil(10 * sim.Second)

	ds := r.driver.Stats()
	if ds.SuppressedFatals != 1 {
		t.Errorf("SuppressedFatals = %d, want 1", ds.SuppressedFatals)
	}
	fs := r.ftd.Stats()
	if fs.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", fs.Recoveries)
	}
	if fs.FalseAlarms != 1 {
		t.Errorf("FalseAlarms = %d, want 1 (re-delivered FATAL verified alive)", fs.FalseAlarms)
	}
	if r.chip.Stats().Resets != 1 {
		t.Errorf("Resets = %d, want 1 (re-delivery must not reset again)", r.chip.Stats().Resets)
	}
}

// Transient MCP load failures are retried with capped exponential backoff
// and the recovery still concludes.
func TestMCPReloadRetriesWithBackoff(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	if err := r.driver.OpenPort(1, func(ev gmproto.Event) {}); err != nil {
		t.Fatal(err)
	}
	r.driver.SetMCPLoadFailures(2)
	tl := hangAndRecover(t, r)

	if got := r.ftd.Stats().ReloadRetries; got != 2 {
		t.Errorf("ReloadRetries = %d, want 2", got)
	}
	if got := r.driver.Stats().MCPLoadFailures; got != 2 {
		t.Errorf("MCPLoadFailures = %d, want 2", got)
	}
	// Three full load charges plus 10ms+20ms backoff.
	reload := tl.ReloadTime()
	if reload < 1530*sim.Millisecond || reload > 1560*sim.Millisecond {
		t.Errorf("reload span = %v, want ≈1530ms (3 loads + backoff)", reload)
	}
	if r.ftd.Outcome() != RecoveryOK {
		t.Errorf("outcome = %v, want ok", r.ftd.Outcome())
	}
}

// Exhausting the reload budget is terminal: the FTD surfaces
// RecoveryFailed instead of hanging the simulation, and Retry re-enters
// recovery once the operator clears the blockage.
func TestMCPReloadTerminalFailureAndRetry(t *testing.T) {
	r := newRig(t, mcp.ModeFTGM)
	if err := r.driver.OpenPort(1, func(ev gmproto.Event) {}); err != nil {
		t.Fatal(err)
	}
	var failReason string
	r.ftd.OnFailed = func(reason string) { failReason = reason }
	recovered := 0
	r.ftd.OnRecovered = func(tl *Timeline) { recovered++ }

	r.driver.SetMCPLoadFailures(3) // == MaxReloadAttempts: all tries fail
	r.eng.RunUntil(10 * sim.Millisecond)
	r.m.InjectHang()
	r.eng.RunUntil(30 * sim.Second) // must quiesce, not loop

	if r.ftd.Outcome() != RecoveryFailed {
		t.Fatalf("outcome = %v, want failed", r.ftd.Outcome())
	}
	if failReason == "" || r.ftd.failReason == "" {
		t.Error("no failure reason surfaced")
	}
	if recovered != 0 {
		t.Errorf("recoveries = %d during terminal failure", recovered)
	}
	if r.ftd.Stats().Failures != 1 {
		t.Errorf("Failures = %d, want 1", r.ftd.Stats().Failures)
	}
	if r.chip.Running() {
		t.Error("chip running despite failed reloads")
	}

	// Operator path: the load failure injection is exhausted, so Retry
	// completes the recovery.
	r.ftd.retry()
	r.eng.RunUntil(60 * sim.Second)
	if recovered != 1 {
		t.Fatalf("recoveries after Retry = %d, want 1", recovered)
	}
	if r.ftd.Outcome() != RecoveryOK {
		t.Errorf("outcome after Retry = %v, want ok", r.ftd.Outcome())
	}
	if !r.m.PortOpen(1) {
		t.Error("port not usable after Retry recovery")
	}
}
