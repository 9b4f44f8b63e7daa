package experiments

import (
	"fmt"

	"repro/gm"
	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HostFaultResult is one scheme's showing under the host-death campaign.
type HostFaultResult struct {
	// Label names the scheme: restore+central, restore+gossip,
	// rebirth+gossip, or periodic+central.
	Label    string
	Campaign chaos.CampaignResult
	// Counters sums the trials' checkpoint/revival and membership activity.
	Counters HostFaultCounters
}

// HostFaultCounters aggregates checkpoint machinery and gossip-plane
// activity over a campaign. The gossip fields stay zero under the central
// plane; the periodic fields stay zero unless the scheme streams
// incremental base+delta chains.
type HostFaultCounters struct {
	Checkpoints     uint64 // recovery anchors serialized through the wire codec
	CheckpointBytes uint64 // total encoded checkpoint bytes
	Restores        uint64 // full-state revivals completed (pre-expulsion)
	Rejoins         uint64 // fresh-epoch revivals completed (post-expulsion)

	DeadDeclared uint64 // gossip: dead verdicts (local + adopted)
	Readmissions uint64 // gossip: dead members welcomed back
	LiveExpelled uint64 // gossip: live nodes wrongly marked dead at trial end
	RouteGaps    uint64 // gossip: live peers missing from survivor route tables

	PeriodicFrames  uint64       // incremental frames shipped (bases + deltas)
	PeriodicBytes   uint64       // total incremental frame bytes
	PeriodicSkips   uint64       // intervals skipped on drain-budget exhaustion
	MaxDrainPause   sim.Duration // worst per-checkpoint drain pause observed
	ChainMismatches uint64       // chain replays that diverged from the full checkpoint
}

// DeliveryRate is the fraction of accepted sends that arrived (duplicates
// not counted).
func (r HostFaultResult) DeliveryRate() float64 {
	if r.Campaign.Total.Sent == 0 {
		return 0
	}
	return float64(r.Campaign.Total.Unique) / float64(r.Campaign.Total.Sent)
}

// Verdict renders the scheme's outcome. Restore-path schemes must be
// spotless: the outage fits under the suspicion timeout, so membership
// damage of any kind (or a single excused send) is a failure. The rebirth
// scheme legitimately excuses the dead mapper's disowned sends but must end
// with a converged membership.
func (r HostFaultResult) Verdict() string {
	switch {
	case !r.Campaign.AllExactlyOnce:
		return "STALLED"
	case r.Counters.ChainMismatches > 0:
		return "CHAIN DIVERGENCE"
	case r.Counters.LiveExpelled > 0 || r.Counters.RouteGaps > 0:
		return "MEMBERSHIP DAMAGE"
	default:
		return "exactly-once in-order"
	}
}

// HostFaultComparison runs the endpoint checkpoint/restart machinery under
// three revival regimes. restore+central and restore+gossip share the same
// host-death plan: a node is drained at a message boundary, its recovery
// anchor serialized through the internal/ckpt wire codec, the host killed
// mid-burst and a standby restored from the checkpoint a few milliseconds
// later — under the suspicion timeout, so the gossip plane must hold its
// fire. rebirth+gossip stretches the outage past the suspicion timeout: the
// mapping node is buried by the survivors and its revival is a genuine
// readmission campaign, with the checkpointed identity but fresh protocol
// epochs on every stream.
func HostFaultComparison(seed uint64, cfg chaos.CampaignConfig) ([]HostFaultResult, error) {
	schemes := hostFaultSchemes(cfg)
	results := make([]HostFaultResult, 0, len(schemes))
	for _, s := range schemes {
		res, err := chaos.Run(seed, s.cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, foldHostFault(s.label, res))
	}
	return results, nil
}

// hostFaultScheme pairs a scheme label with the campaign config it runs.
type hostFaultScheme struct {
	label string
	cfg   chaos.CampaignConfig
}

// hostFaultSchemes expands a base config into the labeled campaigns
// HostFaultComparison runs.
func hostFaultSchemes(cfg chaos.CampaignConfig) []hostFaultScheme {
	cfg.Mode = gm.ModeFTGM
	if len(cfg.Trial.Kinds) == 0 {
		cfg.Trial.Kinds = []chaos.EventKind{chaos.KindHostDeath}
	}
	rebirth := cfg
	rebirth.Trial.Kinds = []chaos.EventKind{chaos.KindMapperRebirth}
	rebirth.Trial.Events = 1
	// The grave must outlast the 3s suspicion timeout and the readmission
	// probes need live traffic on both sides of the revival.
	if rebirth.Trial.Traffic < 12*sim.Second {
		rebirth.Trial.Traffic = 12 * sim.Second
	}
	if rebirth.Trial.MaxSettle < 60*sim.Second {
		rebirth.Trial.MaxSettle = 60 * sim.Second
	}
	// The periodic scheme revives from streamed base+delta chains instead of
	// a stop-and-copy anchor: victims run the incremental checkpointer the
	// whole trial and the revival consumes only bytes a standby host could
	// have accumulated frame by frame.
	periodic := cfg
	periodic.Trial.Kinds = []chaos.EventKind{chaos.KindPeriodicDeath}

	schemes := []hostFaultScheme{
		{"restore+central", cfg},
		{"restore+gossip", cfg},
		{"rebirth+gossip", rebirth},
		{"periodic+central", periodic},
	}
	planes := []gm.ControlPlane{gm.ControlPlaneCentral, gm.ControlPlaneGossip,
		gm.ControlPlaneGossip, gm.ControlPlaneCentral}
	for i := range schemes {
		schemes[i].cfg.Trial.ControlPlane = planes[i]
	}
	return schemes
}

// foldHostFault sums a campaign's per-trial counters into a scheme result.
func foldHostFault(label string, res chaos.CampaignResult) HostFaultResult {
	hf := HostFaultResult{Label: label, Campaign: res}
	for _, tr := range res.Trials {
		hf.Counters.Checkpoints += tr.Checkpoints
		hf.Counters.CheckpointBytes += tr.CheckpointBytes
		hf.Counters.Restores += tr.HostRestores
		hf.Counters.Rejoins += tr.HostRejoins
		hf.Counters.DeadDeclared += tr.GossipDeadDeclared
		hf.Counters.Readmissions += tr.GossipReadmissions
		hf.Counters.LiveExpelled += tr.GossipLiveExpelled
		hf.Counters.RouteGaps += tr.GossipRouteGaps
		hf.Counters.PeriodicFrames += tr.PeriodicFrames
		hf.Counters.PeriodicBytes += tr.PeriodicBytes
		hf.Counters.PeriodicSkips += tr.PeriodicSkips
		if tr.PeriodicMaxPause > hf.Counters.MaxDrainPause {
			hf.Counters.MaxDrainPause = tr.PeriodicMaxPause
		}
		hf.Counters.ChainMismatches += tr.PeriodicChainMismatches
	}
	return hf
}

// RenderHostFault prints the comparison.
func RenderHostFault(results []HostFaultResult) string {
	t := trace.Table{
		Title: "Host death: checkpointed endpoints restored and reborn",
		Headers: []string{"Scheme", "trials", "sent", "delivered", "rate",
			"excused", "ckpts", "restores", "rejoins", "dead", "verdict"},
	}
	for _, r := range results {
		t.AddRow(r.Label,
			fmt.Sprintf("%d", len(r.Campaign.Trials)),
			fmt.Sprintf("%d", r.Campaign.Total.Sent),
			fmt.Sprintf("%d", r.Campaign.Total.Unique),
			fmt.Sprintf("%.1f%%", 100*r.DeliveryRate()),
			fmt.Sprintf("%d", r.Campaign.Total.Excused),
			fmt.Sprintf("%d", r.Counters.Checkpoints),
			fmt.Sprintf("%d", r.Counters.Restores),
			fmt.Sprintf("%d", r.Counters.Rejoins),
			fmt.Sprintf("%d", r.Counters.DeadDeclared),
			r.Verdict())
	}
	out := t.Render()
	for _, r := range results {
		c := r.Counters
		out += fmt.Sprintf("\n%-16s ckpts=%d ckpt-bytes=%d restores=%d rejoins=%d dead=%d readmitted=%d live-expelled=%d route-gaps=%d",
			r.Label, c.Checkpoints, c.CheckpointBytes, c.Restores, c.Rejoins,
			c.DeadDeclared, c.Readmissions, c.LiveExpelled, c.RouteGaps)
		if c.PeriodicFrames > 0 {
			out += fmt.Sprintf("\n%-16s frames=%d frame-bytes=%d skips=%d max-drain-pause=%v chain-mismatches=%d",
				"", c.PeriodicFrames, c.PeriodicBytes, c.PeriodicSkips,
				c.MaxDrainPause, c.ChainMismatches)
		}
	}
	return out
}
