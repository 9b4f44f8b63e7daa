package experiments

import (
	"fmt"

	"repro/gm"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Table3Result aggregates the recovery-time components over several
// injected hangs (Table 3 / Figure 9 of the paper).
type Table3Result struct {
	Runs         int
	Detection    trace.LatencySeries
	FTD          trace.LatencySeries
	Reload       trace.LatencySeries
	PerProcess   trace.LatencySeries
	Total        trace.LatencySeries
	LastTimeline *core.Timeline
	// Host is the host configuration the runs used: its recovery constants
	// price the per-process row.
	Host gm.HostConfig
	// Tokens sums, over the runs, the shadow tokens the FAULT_DETECTED
	// handler re-pushed: the per-token part of the per-process row.
	Tokens int
}

// Table3 injects `runs` hangs (at varied phases of the watchdog period)
// into a live FTGM pair carrying light traffic and measures each recovery
// phase. The same run yields the Figure 9 timeline.
func Table3(runs int) (*Table3Result, error) {
	res := &Table3Result{Runs: runs, Host: gm.DefaultHostConfig()}
	p, err := NewPair(PairOptions{Mode: gm.ModeFTGM, SendTokens: 1024})
	if err != nil {
		return nil, err
	}
	// Light background traffic so recovery happens mid-stream.
	p.PB.SetReceiveHandler(func(ev gm.RecvEvent) {
		_ = p.PB.ProvideReceiveBuffer(64, gm.PriorityLow)
	})
	for i := 0; i < 64; i++ {
		if err := p.PB.ProvideReceiveBuffer(64, gm.PriorityLow); err != nil {
			return nil, err
		}
	}
	stopTraffic := false
	var pump func()
	pump = func() {
		if stopTraffic {
			return
		}
		_ = p.PA.Send(p.B.ID(), 2, gm.PriorityLow, []byte("background"), nil)
		p.Cluster.After(500*gm.Microsecond, pump)
	}
	pump()
	// The FAULT_DETECTED handler prices its work by the shadow tokens it
	// re-pushes; node A only sends, so its shadow holds send tokens alone,
	// and none can move between the events being posted and the handler.
	p.A.FTD().OnRecovered = func(*core.Timeline) {
		res.Tokens += len(p.PA.OutstandingSendIDs())
	}

	for i := 0; i < runs; i++ {
		// Vary the injection phase relative to the L_timer/watchdog cycle
		// so detection latency is sampled across the period.
		phase := gm.Duration(i) * 137 * gm.Microsecond
		p.Cluster.Run(20*gm.Millisecond + phase)

		recovered := false
		p.A.Recovered = func() { recovered = true }
		p.A.InjectHang()
		limit := p.Cluster.Now() + 20*gm.Second
		for !recovered && p.Cluster.Now() < limit {
			p.Cluster.Run(50 * gm.Millisecond)
		}
		if !recovered {
			return nil, fmt.Errorf("experiments: recovery %d did not complete", i)
		}
		tl := p.A.FTD().Timeline()
		res.Detection.Add(tl.DetectionTime())
		res.FTD.Add(tl.FTDTime())
		res.Reload.Add(tl.ReloadTime())
		res.PerProcess.Add(tl.PerProcessTime())
		res.Total.Add(tl.TotalTime())
		res.LastTimeline = tl
		// Let the retransmission backlog drain before the next fault.
		p.Cluster.Run(500 * gm.Millisecond)
	}
	stopTraffic = true
	return res, nil
}

// Render prints the Table 3 breakdown next to the paper's values.
func (r *Table3Result) Render() string {
	t := trace.Table{
		Title:   fmt.Sprintf("Table 3. Components of the fault recovery time (mean of %d runs)", r.Runs),
		Headers: []string{"Component", "this repro (us)", "paper (us)"},
	}
	t.AddRow("Fault Detection Time", fmt.Sprintf("%.0f", r.Detection.Mean().Micros()), "800")
	t.AddRow("FTD Recovery Time", fmt.Sprintf("%.0f", r.FTD.Mean().Micros()), "765000")
	t.AddRow("  of which MCP reload", fmt.Sprintf("%.0f", r.Reload.Mean().Micros()), "~500000")
	t.AddRow("Per-process Recovery Time", fmt.Sprintf("%.0f", r.PerProcess.Mean().Micros()), "900000")
	t.AddRow("Total", fmt.Sprintf("%.0f", r.Total.Mean().Micros()), "<2s")
	return t.Render()
}

// PerProcessNote explains the per-process row from the host constants and
// the tokens the runs re-pushed: the paper's 900 ms is the fixed part, and
// the background pump keeps the send-token pool full through each outage.
func (r *Table3Result) PerProcessNote() string {
	h := r.Host
	fixed := h.RecoveryHandlerBase + h.RecoverySeqUpload + h.RecoveryReopen
	tokens := float64(r.Tokens) / float64(r.Runs)
	return fmt.Sprintf("Per-process row: %.0f us fixed (handler %.0f + sequence upload %.0f + reopen %.0f)"+
		" plus %.0f shadow tokens re-pushed at %.0f us each = %.0f us; the paper's figure is the fixed part.\n",
		fixed.Micros(), h.RecoveryHandlerBase.Micros(), h.RecoverySeqUpload.Micros(), h.RecoveryReopen.Micros(),
		tokens, h.RecoveryPerToken.Micros(), fixed.Micros()+tokens*h.RecoveryPerToken.Micros())
}

// RenderTimeline prints the Figure 9 recovery timeline of the last run.
func (r *Table3Result) RenderTimeline() string {
	if r.LastTimeline == nil {
		return "no timeline recorded\n"
	}
	out := "Figure 9. The timeline of the fault recovery process\n"
	phases := r.LastTimeline.Phases()
	if len(phases) == 0 {
		return out
	}
	t0 := phases[0].At
	for _, ph := range phases {
		out += fmt.Sprintf("  %-22s t+%12.1f us\n", ph.Phase, (ph.At - t0).Micros())
	}
	return out
}

// EffectivenessResult reproduces the §5.2 experiment: the Table 1 campaign
// repeated with FTGM in place.
type EffectivenessResult struct {
	CampaignRuns int
	Hangs        int
	Replayed     int // hangs replayed against the live pair
	Detected     int
	Recovered    int
	// AuditFailed counts the audited pump's lost, duplicate, out-of-order
	// and corrupt messages across every replay.
	AuditFailed int
	PaperHangs  int // 286
	PaperMissed int // 5
}

// Effectiveness runs the ISA campaign to find the hang-producing flips,
// then replays `sample` of them as live LANai hangs against an FTGM pair
// under audited traffic: every hang must be detected by the watchdog and
// recovered with exactly-once delivery.
func Effectiveness(campaignRuns, sample int, seed uint64) (*EffectivenessResult, error) {
	c, err := fault.NewCampaign(seed)
	if err != nil {
		return nil, err
	}
	campaign := c.Run(campaignRuns)
	res := &EffectivenessResult{
		CampaignRuns: campaignRuns,
		Hangs:        campaign.Counts[fault.OutcomeLocalHang],
		PaperHangs:   286,
		PaperMissed:  5,
	}
	if sample <= 0 || sample > res.Hangs {
		sample = res.Hangs
	}
	res.Replayed = sample

	p, err := NewPair(PairOptions{Mode: gm.ModeFTGM, SendTokens: 4096})
	if err != nil {
		return nil, err
	}
	// Audited continuous traffic.
	audit := chaos.NewAuditor()
	key := chaos.StreamKey{Src: p.A.ID(), SrcPort: p.PA.ID(), Dst: p.B.ID(), DstPort: p.PB.ID()}
	p.PB.SetReceiveHandler(func(ev gm.RecvEvent) {
		audit.RecordDelivery(p.B.ID(), p.PB.ID(), ev)
		_ = p.PB.ProvideReceiveBuffer(64, gm.PriorityLow)
	})
	for i := 0; i < 256; i++ {
		if err := p.PB.ProvideReceiveBuffer(64, gm.PriorityLow); err != nil {
			return nil, err
		}
	}
	stop := false
	var pump func()
	pump = func() {
		if stop {
			return
		}
		if err := p.PA.Send(key.Dst, key.DstPort, gm.PriorityLow, audit.NewMessage(key, chaos.MinMsgBytes), nil); err != nil {
			audit.Unsend(key)
		}
		p.Cluster.After(300*gm.Microsecond, pump)
	}
	pump()

	for i := 0; i < sample; i++ {
		p.Cluster.Run(10 * gm.Millisecond)
		recovered := false
		p.A.Recovered = func() { recovered = true }
		before := p.A.FTD().Stats().Wakeups
		p.A.InjectHang()
		limit := p.Cluster.Now() + 20*gm.Second
		for !recovered && p.Cluster.Now() < limit {
			p.Cluster.Run(100 * gm.Millisecond)
		}
		if p.A.FTD().Stats().Wakeups > before {
			res.Detected++
		}
		if recovered {
			res.Recovered++
		}
		p.Cluster.Run(500 * gm.Millisecond) // drain backlog
	}
	stop = true
	p.Cluster.Run(2 * gm.Second)
	res.AuditFailed = auditViolations(audit.Report())
	return res, nil
}

// auditViolations counts every message the audit faults: a lost message is
// as much a violation of exactly-once delivery as a duplicate.
func auditViolations(r chaos.AuditReport) int {
	return int(r.Lost + r.Duplicates + r.OutOfOrder + r.Corrupt)
}

// Render summarizes the §5.2 comparison.
func (r *EffectivenessResult) Render() string {
	t := trace.Table{
		Title:   "Recovery effectiveness (the §5.2 experiment: Table 1 campaign repeated with FTGM)",
		Headers: []string{"Quantity", "this repro", "paper"},
	}
	t.AddRow("Hangs in campaign", fmt.Sprintf("%d/%d", r.Hangs, r.CampaignRuns), "286/1000")
	t.AddRow("Hangs detected", fmt.Sprintf("%d/%d (replayed)", r.Detected, r.Replayed), "286/286 (all)")
	t.AddRow("Hangs recovered", fmt.Sprintf("%d/%d (replayed)", r.Recovered, r.Replayed), "281/286")
	t.AddRow("Audit violations", fmt.Sprintf("%d", r.AuditFailed), "n/a")
	return t.Render()
}
