package chaos

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/gm"
	"repro/internal/sim"
)

// goldenTrialConfig is a one-event FTGM trial of kind k on the smallest
// topology that kind needs: the trunk-death and partition kinds run on the
// dual-switch fabric with the network watchdog, the mapper kinds under the
// gossip control plane.
func goldenTrialConfig(k EventKind) TrialConfig {
	cfg := DefaultTrialConfig()
	cfg.Nodes = 4
	cfg.Traffic = 300 * sim.Millisecond
	cfg.Events = 1
	cfg.Kinds = []EventKind{k}
	switch k {
	case KindTrunkDeath, KindPartition:
		cfg.DualSwitch = true
		cfg.NetWatch = true
	case KindMapperDeath, KindMapperRebirth:
		cfg.ControlPlane = gm.ControlPlaneGossip
	}
	return cfg
}

// trialDigest is the FNV-64a of a result's %+v rendering: the same
// canonical serialization the benchmark's simulated-state digest folds.
func trialDigest(res TrialResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
	return h.Sum64()
}

// TestTrialGoldenPerKind pins one trial of every fault class to the digest
// of its full result. A refactor of the trial runner must leave every
// injection, every counter and the rendering of the plan exactly as they
// were; a kind added to the constant range without an injector or a name
// fails here.
func TestTrialGoldenPerKind(t *testing.T) {
	golden := map[EventKind]uint64{
		KindHang:               0xf042528754bf9b93,
		KindDualHang:           0x34cd80e6a460737b,
		KindHangDuringRecovery: 0xe5ccd684b9c9835a,
		KindLinkFlap:           0x071ab1b8f141ff7c,
		KindLinkDegrade:        0x142321079e2d628c,
		KindPortDeath:          0xd6b5f1bef5e19e21,
		KindReloadFailure:      0x3e24f27a7ab18c1a,
		KindTrunkDeath:         0x1407b96e60c9d459,
		KindPartition:          0xfa45976385426db7,
		KindMapperDeath:        0xec1c0b9341b9c361,
		KindHostDeath:          0x17148022f5d5a93a,
		KindMapperRebirth:      0x5e96c316b3bcbd00,
		KindPeriodicDeath:      0x2a72d3011f186e34,
	}
	for k := KindHang; k <= KindPeriodicDeath; k++ {
		res, err := RunTrial(2003, 0, gm.ModeFTGM, goldenTrialConfig(k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !res.Audit.ExactlyOnceInOrder {
			t.Errorf("%v: audit dirty: %v", k, res.Audit)
		}
		if len(res.Events) != 1 || res.Events[0].Kind != k {
			t.Errorf("%v: planned %v", k, res.Events)
		}
		got := trialDigest(res)
		t.Logf("%v: %016x", k, got)
		want, ok := golden[k]
		if !ok {
			t.Errorf("%v: no golden digest", k)
			continue
		}
		if got != want {
			t.Errorf("%v: digest %016x, want %016x (%+v)", k, got, want, res)
		}
	}
}

// replayTrial runs schedule on a fresh trial of the same seed and index:
// build, run, harvest, with no plan drawn.
func replayTrial(t *testing.T, seed uint64, index int, tcfg TrialConfig, schedule []Event) TrialResult {
	t.Helper()
	tr, err := newTrial(seed, index, gm.ModeFTGM, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.run(schedule)
	return tr.harvest()
}

// TestTrialScheduleReplay: a trial is a function of its seed, index and
// schedule. The seeded plan replayed through the bare runner reproduces
// RunTrial bit for bit (the trial's generator feeds only the cluster seed
// and the planner), and every single event of the plan replays alone,
// deterministically and audited clean.
func TestTrialScheduleReplay(t *testing.T) {
	const seed, index = 2003, 1
	tcfg := DefaultTrialConfig()
	tcfg.Traffic = sim.Second
	tcfg.SendEvery = 4 * sim.Millisecond
	tcfg.MaxSettle = 30 * sim.Second
	want, err := RunTrial(seed, index, gm.ModeFTGM, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Events) != len(allKinds()) {
		t.Fatalf("planned %d events, want one per kind: %v", len(want.Events), want.Events)
	}
	if got := replayTrial(t, seed, index, tcfg, want.Events); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed schedule differs from the seeded trial:\n seeded: %+v\n replay: %+v", want, got)
	}
	for _, ev := range want.Events {
		one := []Event{ev}
		a := replayTrial(t, seed, index, tcfg, one)
		b := replayTrial(t, seed, index, tcfg, one)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two replays differ:\n %+v\n %+v", ev, a, b)
		}
		if !a.Audit.ExactlyOnceInOrder {
			t.Errorf("%v: audit dirty: %v", ev, a.Audit)
		}
	}
}
