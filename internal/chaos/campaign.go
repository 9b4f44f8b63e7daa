package chaos

import (
	"repro/gm"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// CampaignConfig shapes a chaos campaign: Trials independent clusters,
// each living through its own injection plan, fanned out over Workers.
type CampaignConfig struct {
	Trials  int
	Workers int // 0 = GOMAXPROCS
	Mode    gm.Mode
	Trial   TrialConfig
}

// DefaultCampaignConfig is a 4-trial FTGM campaign.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{Trials: 4, Mode: gm.ModeFTGM, Trial: DefaultTrialConfig()}
}

// TrialResult is one trial's full accounting. Results are pure functions
// of (campaign seed, trial index): the determinism tests compare them
// bit-for-bit across worker counts.
type TrialResult struct {
	Trial  int
	Events []Event
	Audit  AuditReport

	// FTD activity summed over all nodes (zero in GM mode).
	Recoveries       uint64
	FalseAlarms      uint64
	ReloadRetries    uint64
	RecoveryRestarts uint64
	RecoveryFailures uint64
	SuppressedFatals uint64
	NaiveRestarts    uint64

	// Fabric damage totals.
	FaultDrops      uint64 // packets eaten by injected link profiles
	Corruptions     uint64 // payload bit flips injected on links
	SwitchDeadDrops uint64 // packets into dead ports / downed links

	Retransmits uint64 // Go-Back-N repair work across all nodes

	// Network-fault activity: detection counters are live in every FTGM
	// trial; the watchdog counters are zero unless TrialConfig.NetWatch.
	NetFaultSuspicions uint64 // MCP path-health reports raised to hosts
	NetFaultReports    uint64 // NET_FAULT_SUSPECTED interrupts drivers forwarded
	UnreachableFails   uint64 // sends terminally failed against expelled peers
	NetSuspicions      uint64 // watchdog: suspicion reports received
	NetIncidents       uint64 // watchdog: debounce windows opened
	NetRemaps          uint64 // watchdog: successful automatic remaps
	NetRemapFailures   uint64 // watchdog: remap attempts that failed
	NetProbes          uint64 // watchdog: readmission probes while peers expelled
	NetUnreachable     uint64 // watchdog: peers expelled as unreachable
	NetReadmissions    uint64 // watchdog: expelled peers readmitted

	// Gossip-plane activity, summed over all agents (zero unless
	// TrialConfig.ControlPlane is gm.ControlPlaneGossip).
	GossipProbes       uint64 // direct pings launched
	GossipSuspicions   uint64 // local probe-failure suspicions raised
	GossipDeadDeclared uint64 // dead verdicts recorded (local + adopted)
	GossipReadmissions uint64 // dead members welcomed back
	// End-of-trial convergence defects, judged over the nodes still
	// running: a live node marked dead by a live node's agent, and a live
	// node missing from a live node's installed route table. A healthy
	// gossip trial ends with both at zero — distributed agreement expelled
	// exactly the dead, and every survivor rebuilt a full route set.
	GossipLiveExpelled uint64
	GossipRouteGaps    uint64

	// Host-death activity (KindHostDeath / KindMapperRebirth trials).
	Checkpoints     uint64 // recovery anchors serialized at a drain boundary
	CheckpointBytes uint64 // total encoded checkpoint size
	HostRestores    uint64 // completed same-epoch restores (KindHostDeath)
	HostRejoins     uint64 // completed post-expulsion rejoins (KindMapperRebirth)

	// Incremental-checkpoint activity (KindPeriodicDeath trials): frames
	// shipped by the victims' periodic checkpointers, the bounded-drain
	// accounting, and the chain-replay verification verdict (a mismatch
	// means ReplayChain over the shipped frames did not re-encode
	// bit-identical to a fresh full checkpoint at the kill instant).
	PeriodicFrames          uint64
	PeriodicBytes           uint64
	PeriodicSkips           uint64
	PeriodicMaxPause        sim.Duration
	PeriodicChainMismatches uint64

	// Speculation activity (zero unless TrialConfig.Speculate): spans the
	// barrier committed and rolled back. Both are pure functions of the
	// window schedule, so they are bit-identical across shard counts.
	SpecCommits   uint64
	SpecRollbacks uint64
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Seed        uint64
	Mode        string
	Trials      []TrialResult
	Total       AuditReport
	CleanTrials int
	// AllExactlyOnce is the campaign verdict: every trial's auditor
	// reported exactly-once in-order delivery.
	AllExactlyOnce bool
}

// Run executes the campaign. Trial i derives its generator from
// sim.DeriveRNG(seed, i), so results are identical at any worker count.
func Run(seed uint64, cfg CampaignConfig) (CampaignResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	trials, err := parallel.Map(cfg.Trials, cfg.Workers, func(i int) (TrialResult, error) {
		return RunTrial(seed, i, cfg.Mode, cfg.Trial)
	})
	if err != nil {
		return CampaignResult{}, err
	}
	res := CampaignResult{Seed: seed, Mode: modeName(cfg.Mode), Trials: trials, AllExactlyOnce: true}
	for _, tr := range trials {
		res.Total.merge(tr.Audit)
		if tr.Audit.ExactlyOnceInOrder {
			res.CleanTrials++
		} else {
			res.AllExactlyOnce = false
		}
	}
	res.Total.ExactlyOnceInOrder = res.AllExactlyOnce && res.Total.Sent > 0
	return res, nil
}

func modeName(m gm.Mode) string {
	if m == gm.ModeFTGM {
		return "FTGM"
	}
	return "GM"
}

// RunTrial builds one cluster, drives the all-to-all traffic, applies the
// trial's injection plan, drains, and audits. The plan is PlanEvents' draw
// from the trial's generator, which the cluster seed has already advanced.
func RunTrial(seed uint64, index int, mode gm.Mode, tcfg TrialConfig) (TrialResult, error) {
	t, err := newTrial(seed, index, mode, tcfg)
	if err != nil {
		return TrialResult{Trial: index}, err
	}
	t.run(PlanEvents(t.rng, t.tcfg, t.start))
	return t.harvest(), nil
}
