package experiments

import (
	"fmt"

	"repro/gm"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// AvailabilityResult reports a long-mission run under recurring interface
// hangs — the NASA-REE-style context the paper motivates with (§2: systems
// "requiring high availability for special applications", where cosmic-ray
// upsets make processor hangs routine rather than exceptional).
type AvailabilityResult struct {
	Scheme       string
	MissionTime  gm.Duration
	Faults       int
	Sent         int
	Delivered    int
	Duplicates   int
	Losses       int
	Downtime     gm.Duration
	Availability float64 // 1 - downtime/mission
}

// AvailabilityConfig shapes the mission.
type AvailabilityConfig struct {
	// Mission is the total virtual mission time.
	Mission gm.Duration
	// FaultEvery is the spacing of injected hangs on the sender's
	// interface.
	FaultEvery gm.Duration
	// SendEvery is the application's message period.
	SendEvery gm.Duration
	// NaiveDetection is the external watchdog delay assumed for the naive
	// baseline (stock GM has no detection of its own; an operator or a
	// cluster heartbeat eventually notices).
	NaiveDetection gm.Duration
	// TargetWindows pins each injection to the instant an ACK leaves the
	// receiver — inside the protocol's vulnerable window. A real mission
	// has ~10^5 messages between faults, so over its lifetime some faults
	// land in the window; a compressed benchmark mission must aim for it
	// to show the same per-fault consequences (the Figure 4 duplicate
	// under naive restart).
	TargetWindows bool
	// HardFaults makes every injected fault a hard hang: the upset reaches
	// the timer/interrupt logic, so the watchdog can never fire (§4.2's
	// assumption violated). FTGM then degrades to the no-recovery scheme —
	// the honest boundary of the paper's detection mechanism.
	HardFaults bool
}

// DefaultAvailabilityConfig is a 60 s mission with a hang every 10 s.
func DefaultAvailabilityConfig() AvailabilityConfig {
	return AvailabilityConfig{
		Mission:        60 * gm.Second,
		FaultEvery:     10 * gm.Second,
		SendEvery:      1 * gm.Millisecond,
		NaiveDetection: 5 * gm.Second,
		TargetWindows:  true,
	}
}

// AvailabilityScheme selects the recovery policy under test.
type AvailabilityScheme int

// Schemes.
const (
	// SchemeNoRecovery is stock GM with nothing watching: the first hang
	// is permanent (middleware like MPI "consider GM send errors to be
	// fatal and exit", §2).
	SchemeNoRecovery AvailabilityScheme = iota + 1
	// SchemeNaiveRestart is stock GM plus an external watchdog that
	// reloads the driver after NaiveDetection (§3's baseline).
	SchemeNaiveRestart
	// SchemeFTGM is the paper's design.
	SchemeFTGM
)

// String names the scheme.
func (s AvailabilityScheme) String() string {
	switch s {
	case SchemeNoRecovery:
		return "GM, no recovery"
	case SchemeNaiveRestart:
		return "GM + naive restart"
	case SchemeFTGM:
		return "FTGM"
	default:
		return "scheme?"
	}
}

// availability runs the mission under one scheme.
func availability(scheme AvailabilityScheme, cfg AvailabilityConfig) (AvailabilityResult, error) {
	res := AvailabilityResult{Scheme: scheme.String(), MissionTime: cfg.Mission}
	mode := gm.ModeGM
	if scheme == SchemeFTGM {
		mode = gm.ModeFTGM
	}
	p, err := NewPair(PairOptions{
		Mode:       mode,
		SendTokens: 65536,
		Configure: func(c *gm.Config) {
			// A long outage accumulates a deep retransmission backlog;
			// keep recovery handler costs bounded for the mission.
			c.Host.RecoveryPerToken = 0
		},
	})
	if err != nil {
		return res, err
	}
	cl := p.Cluster
	start := cl.Now()

	// Receiver audit: numbered messages, exactly-once bookkeeping.
	seen := make(map[uint64]bool)
	var delivered, dups int
	p.PB.SetReceiveHandler(func(ev gm.RecvEvent) {
		var id uint64
		for i := 0; i < 8; i++ {
			id |= uint64(ev.Data[i]) << (8 * i)
		}
		if seen[id] {
			dups++
		}
		seen[id] = true
		delivered++
		_ = p.PB.ProvideReceiveBuffer(64, gm.PriorityLow)
	})
	for i := 0; i < 512; i++ {
		if err := p.PB.ProvideReceiveBuffer(64, gm.PriorityLow); err != nil {
			return res, err
		}
	}

	sent := 0
	var pump func()
	pump = func() {
		if cl.Now()-start >= cfg.Mission {
			return
		}
		sent++
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(sent) >> (8 * i))
		}
		_ = p.PA.Send(p.B.ID(), 2, gm.PriorityLow, buf, nil)
		cl.After(cfg.SendEvery, pump)
	}
	pump()

	// Downtime accounting: from each injection until the interface is
	// serving again.
	var downtime gm.Duration
	var downSince gm.Time
	down := false
	markDown := func() {
		if !down {
			down = true
			downSince = cl.Now()
		}
	}
	markUp := func() {
		if down {
			down = false
			downtime += cl.Now() - downSince
		}
	}
	if scheme == SchemeFTGM {
		p.A.Recovered = func() { markUp() }
	}

	faults := 0
	fire := func() {
		faults++
		markDown()
		if cfg.HardFaults {
			p.A.InjectHardHang()
		} else {
			p.A.InjectHang()
		}
		switch scheme {
		case SchemeNaiveRestart:
			cl.After(cfg.NaiveDetection, func() {
				p.A.NaiveRestart(func() { markUp() })
			})
		case SchemeNoRecovery:
			// nothing ever happens
		}
	}
	var inject func()
	inject = func() {
		if cl.Now()-start >= cfg.Mission {
			return
		}
		if cfg.TargetWindows && !p.A.Hung() {
			// Aim the SEU at the vulnerable instant: the receiver has just
			// released an ACK that the hang will strand in transit.
			baseline := p.B.MCPStats().AcksSent
			var probe func()
			probe = func() {
				if p.A.Hung() {
					return
				}
				if p.B.MCPStats().AcksSent > baseline {
					fire()
					return
				}
				cl.After(100*gm.Nanosecond, probe)
			}
			probe()
		} else if !p.A.Hung() {
			fire()
		}
		cl.After(cfg.FaultEvery, inject)
	}
	cl.After(cfg.FaultEvery, inject)

	cl.RunUntil(start + cfg.Mission)
	// Downtime is judged over the mission window only.
	missionDowntime := downtime
	if down {
		missionDowntime += cl.Now() - downSince
	}
	// Let in-flight recovery and retransmissions settle before auditing
	// delivery (messages reaching their destination late still count as
	// delivered, just as a post-mission telemetry flush would).
	cl.Run(20 * gm.Second)

	res.Faults = faults
	res.Sent = sent
	res.Delivered = delivered
	res.Duplicates = dups
	res.Losses = sent - (delivered - dups)
	if res.Losses < 0 {
		res.Losses = 0
	}
	res.Downtime = missionDowntime
	if cfg.Mission > 0 {
		res.Availability = 1 - float64(missionDowntime)/float64(cfg.Mission)
		if res.Availability < 0 {
			res.Availability = 0
		}
	}
	return res, nil
}

// AvailabilityComparison runs all three schemes on the same mission. Each
// scheme's mission is a full, independent simulation on its own cluster, so
// the three run concurrently; the result order is fixed (no-recovery, naive
// restart, FTGM) regardless of which finishes first.
func AvailabilityComparison(cfg AvailabilityConfig) ([]AvailabilityResult, error) {
	schemes := []AvailabilityScheme{SchemeNoRecovery, SchemeNaiveRestart, SchemeFTGM}
	return parallel.Map(len(schemes), 0, func(i int) (AvailabilityResult, error) {
		return availability(schemes[i], cfg)
	})
}

// RenderAvailability prints the comparison.
func RenderAvailability(results []AvailabilityResult) string {
	t := trace.Table{
		Title:   "Mission availability under recurring interface hangs (REE-style workload)",
		Headers: []string{"Scheme", "faults", "sent", "delivered", "dups", "lost", "downtime", "availability"},
	}
	for _, r := range results {
		t.AddRow(r.Scheme,
			fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%d", r.Sent),
			fmt.Sprintf("%d", r.Delivered),
			fmt.Sprintf("%d", r.Duplicates),
			fmt.Sprintf("%d", r.Losses),
			r.Downtime.String(),
			fmt.Sprintf("%.1f%%", 100*r.Availability))
	}
	return t.Render()
}
