package experiments

import (
	"strings"
	"testing"

	"repro/gm"
)

func quickMission() AvailabilityConfig {
	return AvailabilityConfig{
		Mission:        20 * gm.Second,
		FaultEvery:     6 * gm.Second,
		SendEvery:      2 * gm.Millisecond,
		NaiveDetection: 2 * gm.Second,
		TargetWindows:  true,
	}
}

func TestAvailabilityNoRecoveryCollapses(t *testing.T) {
	res, err := availability(SchemeNoRecovery, quickMission())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 {
		t.Fatal("no faults injected")
	}
	// The first hang is permanent: most of the mission is downtime and
	// most messages are lost.
	if res.Availability > 0.5 {
		t.Errorf("availability = %.2f, want collapse", res.Availability)
	}
	if res.Losses < res.Sent/2 {
		t.Errorf("losses = %d of %d sent, want the majority", res.Losses, res.Sent)
	}
}

func TestAvailabilityFTGMRecovers(t *testing.T) {
	res, err := availability(SchemeFTGM, quickMission())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults < 2 {
		t.Fatalf("faults = %d", res.Faults)
	}
	// ~1.8 s of downtime per fault on a 20 s mission: availability well
	// above the naive schemes but below 1.
	if res.Availability < 0.6 || res.Availability >= 1.0 {
		t.Errorf("availability = %.2f", res.Availability)
	}
	if res.Duplicates != 0 {
		t.Errorf("duplicates = %d, want 0", res.Duplicates)
	}
	if res.Losses != 0 {
		t.Errorf("losses = %d, want 0", res.Losses)
	}
	if res.Delivered != res.Sent {
		t.Errorf("delivered %d of %d", res.Delivered, res.Sent)
	}
}

func TestAvailabilityComparisonOrdering(t *testing.T) {
	results, err := AvailabilityComparison(quickMission())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	none, naive, ftgm := results[0], results[1], results[2]
	if !(ftgm.Availability > naive.Availability && naive.Availability > none.Availability) {
		t.Errorf("availability ordering broken: %.2f / %.2f / %.2f",
			none.Availability, naive.Availability, ftgm.Availability)
	}
	// The naive scheme recovers liveness but not correctness.
	if naive.Duplicates+naive.Losses == 0 {
		t.Error("naive restart showed no correctness violations")
	}
	if ftgm.Duplicates+ftgm.Losses != 0 {
		t.Errorf("FTGM violations: %d dups, %d losses", ftgm.Duplicates, ftgm.Losses)
	}
	out := RenderAvailability(results)
	for _, want := range []string{"Mission availability", "FTGM", "naive", "availability"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestCheckpointBaseline(t *testing.T) {
	points, err := CheckpointBaseline([]gm.Duration{50 * gm.Millisecond, 10 * gm.Millisecond}, DefaultCheckpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	ftgm, cp50, cp10 := points[0], points[1], points[2]
	// FTGM's tail is tight; checkpointing spikes the tail by the pause.
	if ftgm.MaxLatencyUs > 100 {
		t.Errorf("FTGM max latency = %.0f us", ftgm.MaxLatencyUs)
	}
	if cp50.MaxLatencyUs < 1000 {
		t.Errorf("50ms-checkpoint max latency = %.0f us, want a ~ms stall", cp50.MaxLatencyUs)
	}
	// Tighter intervals cost more steady-state overhead and bandwidth.
	if cp10.PauseOverhead <= cp50.PauseOverhead {
		t.Error("pause overhead not increasing with checkpoint frequency")
	}
	if cp10.BandwidthMBs >= ftgm.BandwidthMBs {
		t.Errorf("10ms checkpointing bandwidth %.1f >= FTGM %.1f", cp10.BandwidthMBs, ftgm.BandwidthMBs)
	}
	// FTGM pays nothing in pauses or rollback.
	if ftgm.PauseOverhead != 0 || ftgm.RollbackLossMs != 0 {
		t.Error("FTGM reference shows checkpoint costs")
	}
	out := RenderCheckpoint(points)
	for _, want := range []string{"Rejected baseline", "FTGM (continuous)", "checkpoint every 10ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestAvailabilityHardFaultsDefeatWatchdog(t *testing.T) {
	// A hard hang kills the timer/interrupt logic: the watchdog cannot
	// fire, so FTGM degrades to the no-recovery outcome — the documented
	// boundary of §4.2's assumption.
	cfg := quickMission()
	cfg.HardFaults = true
	res, err := availability(SchemeFTGM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability > 0.5 {
		t.Errorf("availability = %.2f under hard faults, want collapse", res.Availability)
	}
	soft, err := availability(SchemeFTGM, quickMission())
	if err != nil {
		t.Fatal(err)
	}
	if soft.Availability <= res.Availability {
		t.Errorf("soft-fault availability %.2f <= hard-fault %.2f", soft.Availability, res.Availability)
	}
}
