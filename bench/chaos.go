package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/gm"
	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chaos_recovery is a fixed list of FTGM fault trials, each judged by
// chaos.Auditor:
//
//	(a) the pair testbed streaming 4 KB both ways while NIC hangs are
//	    injected on alternating hosts, each run to Node.Recovered;
//	(b) one compound-fault trial (every single-switch fault class) on 8 nodes;
//	(c) host death + periodic-checkpoint host death under the central plane
//	    with the network watchdog, and host death under the gossip plane.
//
// (a) is driven in slices by the harness, so its counters, latency and
// drift are visible; (b) and (c) are chaos.RunTrial calls, visible through
// their TrialResult.
const (
	chaosHangs     = 4
	chaosMsgBytes  = 4096
	chaosWindow    = 8 // sends each host keeps in flight
	chaosGap       = 20 * sim.Millisecond
	chaosSlice     = 25 * sim.Millisecond
	chaosTrialSend = 250 * sim.Microsecond
	// chaosPlanSeed fixes the injection plans of parts (b) and (c): host cost
	// differs several-fold between plans (which node dies when, how long a
	// link degrades), so the plans are part of the workload's definition.
	// --seed moves part (a)'s hang instants, cluster seed and payloads.
	chaosPlanSeed = 2003
)

// chaosTrials is parts (b) and (c) at full size.
func chaosTrials(scale int) []chaos.TrialConfig {
	traffic := func(d sim.Duration) sim.Duration {
		if scale > 1 {
			return d / 8
		}
		return d
	}
	return []chaos.TrialConfig{
		{Nodes: 8, Traffic: traffic(2 * sim.Second), SendEvery: chaosTrialSend},
		{Nodes: 4, Traffic: traffic(sim.Second), SendEvery: chaosTrialSend, Events: 2, NetWatch: true,
			Kinds: []chaos.EventKind{chaos.KindHostDeath, chaos.KindPeriodicDeath}},
		{Nodes: 4, Traffic: traffic(sim.Second), SendEvery: chaosTrialSend, Events: 1,
			ControlPlane: gm.ControlPlaneGossip, Kinds: []chaos.EventKind{chaos.KindHostDeath}},
	}
}

// hangStream is one direction of part (a)'s audited closed-loop stream.
type hangStream struct {
	from, to  int
	key       chaos.StreamKey
	inFlight  int
	sentAt    []sim.Time // send times of undelivered messages, oldest first
	delivered uint64
	latNs     int64
	sendErrs  uint64
	cb        gm.SendCallback
}

func chaosRound(env roundEnv) (*roundResult, error) {
	runtime.GC()
	res := &roundResult{extra: map[string]float64{}}
	poolLive := fabric.PoolStats().Live
	calib0 := calibrate()
	t0 := time.Now()
	main := env.tr.newLane(false)
	hangs := chaosHangs
	if env.scale > 1 {
		hangs = 1
	}

	env.mode = gm.ModeFTGM
	tb, err := buildPair(pairConfig(env), main)
	if err != nil {
		return nil, err
	}
	if err := tb.openPorts(chaosMsgBytes, 32); err != nil {
		return nil, err
	}
	aud := chaos.NewAuditor()
	cbLane := env.tr.newLane(true)
	streams := [2]*hangStream{{from: 0, to: 1}, {from: 1, to: 0}}
	posting := true
	post := func(s *hangStream) {
		for posting && s.inFlight < chaosWindow {
			buf := aud.NewMessage(s.key, chaosMsgBytes)
			cbLane.begin(spSend)
			err := tb.ports[s.from].Send(tb.nodes[s.to].ID(), benchPort, gm.PriorityLow, buf, s.cb)
			cbLane.end()
			if err != nil {
				aud.Unsend(s.key)
				res.refused++
				return
			}
			s.inFlight++
			s.sentAt = append(s.sentAt, tb.cl.Now())
		}
	}
	for _, s := range streams {
		s := s
		s.key = chaos.StreamKey{Src: tb.nodes[s.from].ID(), SrcPort: benchPort, Dst: tb.nodes[s.to].ID(), DstPort: benchPort}
		s.cb = func(st gm.SendStatus) {
			cbLane.begin(spOnSendDone)
			if st != gm.SendOK {
				s.sendErrs++
			}
			s.inFlight--
			post(s)
			cbLane.end()
		}
		self, port := tb.nodes[s.to].ID(), tb.ports[s.to]
		port.SetReceiveHandler(func(ev gm.RecvEvent) {
			cbLane.begin(spOnRecv)
			aud.RecordDelivery(self, benchPort, ev)
			s.delivered++
			if len(s.sentAt) > 0 {
				s.latNs += int64(tb.cl.Now() - s.sentAt[0])
				s.sentAt = s.sentAt[1:]
			}
			cbLane.begin(spRecycle)
			_ = port.RecycleReceiveBuffer(ev.Data, gm.PriorityLow)
			cbLane.end()
			cbLane.end()
		})
	}
	delivered := func() uint64 { return streams[0].delivered + streams[1].delivered }
	run := func(d sim.Duration) {
		main.openRun()
		tb.cl.Run(d)
		main.end()
	}

	// hangCycle streams for a gap, hangs the victim's NIC and runs until
	// its FTD and library have recovered it. The seeded jitter moves the
	// hang across the watchdog period, so each seed samples detection
	// latency at different phases.
	rng := sim.DeriveRNG(env.seed, 4)
	var recoveryMs, detectUs, ftdMs, perProcMs []float64
	mark := func() {}
	hangCycle := func(victim *gm.Node) bool {
		run(chaosGap + rng.Duration(2*sim.Millisecond))
		mark()
		var recoveredAt sim.Time
		victim.Recovered = func() { recoveredAt = tb.cl.Now() }
		injectedAt := tb.cl.Now()
		victim.InjectHang()
		for limit := injectedAt + 20*sim.Second; recoveredAt == 0 && tb.cl.Now() < limit; {
			run(chaosSlice)
			mark()
		}
		if recoveredAt == 0 {
			res.violations = append(res.violations, fmt.Sprintf("hang on %s never recovered", victim.Name()))
			return false
		}
		tl := victim.FTD().Timeline()
		recoveryMs = append(recoveryMs, (recoveredAt-injectedAt).Seconds()*1e3)
		detectUs = append(detectUs, tl.DetectionTime().Micros())
		ftdMs = append(ftdMs, tl.FTDTime().Seconds()*1e3)
		perProcMs = append(perProcMs, tl.PerProcessTime().Seconds()*1e3)
		return true
	}

	// Warm-up: one whole hang-and-recover cycle, so the FTD path, the
	// retransmit machinery and every pool have run once before timing.
	tb.cl.After(0, func() { post(streams[0]); post(streams[1]) })
	hangCycle(tb.nodes[1])
	recoveryMs, detectUs, ftdMs, perProcMs = nil, nil, nil, nil
	warmDelivered := delivered()
	warmLat := streams[0].latNs + streams[1].latNs
	layers0 := tb.snap()
	res.setupNs = time.Since(t0).Nanoseconds()
	host0 := readHost()
	simStart := tb.cl.Now()

	marks := []sliceMark{{0, warmDelivered}}
	mark = func() {
		marks = append(marks, sliceMark{time.Since(host0.wall).Nanoseconds(), delivered()})
	}
	// The hang cycles are identical work, so drift_ratio here is the last
	// cycle's host time per message over the first's.
	var cycleNsPerMsg []float64
	for h := 0; h < hangs; h++ {
		from := marks[len(marks)-1]
		if !hangCycle(tb.nodes[h%2]) {
			break
		}
		to := marks[len(marks)-1]
		cycleNsPerMsg = append(cycleNsPerMsg, ratio(float64(to.wallNs-from.wallNs), float64(to.delivered-from.delivered)))
	}
	res.driftRatio = 1
	if n := len(cycleNsPerMsg); n >= 2 {
		res.driftRatio = ratio(cycleNsPerMsg[n-1], cycleNsPerMsg[0])
	}
	run(2 * chaosGap)
	mark()
	posting = false
	for limit := tb.cl.Now() + 20*sim.Second; !aud.Complete() && tb.cl.Now() < limit; {
		run(chaosSlice)
		mark()
	}
	trafficA := tb.cl.Now() - simStart
	res.layers = tb.snap().sub(layers0)
	res.simWindow = trafficA
	res.nodes = len(tb.nodes)
	repA := aud.Report()
	dig := newDigest()
	dig.add(tb.digest(), repA.Sent, repA.Unique, recoveryMs)
	tb.shutdown(res, poolLive)

	audits := []chaos.AuditReport{repA}
	payload := repA.Unique * chaosMsgBytes
	traffic := trafficA
	for _, s := range streams {
		if s.sendErrs > 0 {
			res.violations = append(res.violations, fmt.Sprintf("stream %v: %d send errors", s.key, s.sendErrs))
		}
	}

	// Parts (b) and (c).
	var frames, frameBytes uint64
	for i, tcfg := range chaosTrials(env.scale) {
		main.begin(spRunTrial)
		tr, err := chaos.RunTrial(chaosPlanSeed, i, gm.ModeFTGM, tcfg)
		main.end()
		if err != nil {
			return nil, fmt.Errorf("chaos trial %d: %w", i, err)
		}
		audits = append(audits, tr.Audit)
		payload += tr.Audit.Unique * 32 // TrialConfig's default MsgBytes
		traffic += tcfg.Traffic
		marks = append(marks, sliceMark{time.Since(host0.wall).Nanoseconds(), marks[len(marks)-1].delivered + tr.Audit.Unique})
		dig.add(tr)
		if tr.RecoveryFailures+tr.PeriodicChainMismatches+tr.GossipLiveExpelled+tr.GossipRouteGaps > 0 {
			res.violations = append(res.violations, fmt.Sprintf(
				"chaos trial %d: %d recovery failures, %d chain mismatches, %d live nodes expelled, %d route gaps",
				i, tr.RecoveryFailures, tr.PeriodicChainMismatches, tr.GossipLiveExpelled, tr.GossipRouteGaps))
		}
		res.layers.FTD.Recoveries += tr.Recoveries
		res.layers.FTD.FalseAlarms += tr.FalseAlarms
		res.layers.FTD.ReloadRetries += tr.ReloadRetries
		res.layers.FTD.RecoveryRestarts += tr.RecoveryRestarts
		res.extra["core.netwatch_suspicions"] += float64(tr.NetSuspicions)
		res.extra["core.netwatch_remaps"] += float64(tr.NetRemaps)
		res.extra["gossip.probes"] += float64(tr.GossipProbes)
		res.extra["gossip.dead_declared"] += float64(tr.GossipDeadDeclared)
		res.extra["gossip.live_expelled"] += float64(tr.GossipLiveExpelled)
		res.extra["ckpt.skips"] += float64(tr.PeriodicSkips)
		res.extra["ckpt.chain_mismatches"] += float64(tr.PeriodicChainMismatches)
		if us := tr.PeriodicMaxPause.Micros(); us > res.extra["ckpt.max_drain_pause_us"] {
			res.extra["ckpt.max_drain_pause_us"] = us
		}
		frames += tr.PeriodicFrames
		frameBytes += tr.PeriodicBytes
	}
	host1 := readHost()
	res.speed = (calib0 + calibrate()) / 2 / calibNominalNs
	res.host = host0.until(host1)
	res.extra["ckpt.frames"] = float64(frames)
	res.extra["ckpt.bytes_per_frame"] = ratio(float64(frameBytes), float64(frames))
	res.extra["core.sim_recovery_ms"] = median(recoveryMs)
	res.extra["core.detect_us"] = median(detectUs)
	res.extra["core.ftd_ms"] = median(ftdMs)
	res.extra["core.per_process_ms"] = median(perProcMs)

	for i, a := range audits {
		res.attempted += a.Sent
		res.excused += a.Excused
		res.failed += a.Lost + a.Duplicates + a.OutOfOrder + a.Corrupt
		res.msgs += a.Unique
		if !a.ExactlyOnceInOrder {
			res.violations = append(res.violations, fmt.Sprintf("chaos part %d audit: %v", i, a))
		}
	}
	res.msgs -= warmDelivered
	res.payload = (repA.Unique - warmDelivered) * chaosMsgBytes
	res.simMBs = trace.Bandwidth(payload-warmDelivered*chaosMsgBytes, traffic)
	res.simLatencyUs = ratio(float64(streams[0].latNs+streams[1].latNs-warmLat)/1e3, float64(delivered()-warmDelivered))
	_, res.sliceNsPerMsg = driftAndSlices(marks)
	res.digest = dig.sum()
	checkPool(res, poolLive) // the trials shut their own clusters down
	return res, nil
}
