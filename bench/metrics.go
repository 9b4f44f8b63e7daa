package main

import (
	"fmt"
	"math"
	"time"
)

// metricSpec names one reported number. bound (end-to-end only) is the share
// of the reference median by which it may worsen before that counts as a
// regression. BENCHMARK.json mirrors these tables; the smoke test keeps the
// two in step.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// Host metrics (no prefix) are what the simulator costs to run and carry
// machine noise; the two host times, setup_s and wall_ns_per_msg, are in
// reference-box time (see calibrate). sim_ metrics are what the modelled
// Myrinet would take; for a given seed they repeat exactly, and -compare
// holds them to that. Their bounds here only have to cover the difference
// between seeds.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ns_per_msg", "ns", "lower", 0.25},
	{"allocs_per_msg", "count", "lower", 0.15},
	{"alloc_bytes_per_msg", "B", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"drift_ratio", "ratio", "lower", 0.25},
	{"delivered_share", "ratio", "higher", 0.001},
	{"sim_mbs", "sim_MB/s", "higher", 0.05},
	{"sim_latency_us", "sim_us", "lower", 0.15},
}

func lower(name, unit string) metricSpec { return metricSpec{name: name, unit: unit, better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{name: name, unit: unit, better: "higher"}
}

// perLayer lists the single-layer metrics of the traced pass, layer by
// layer (the repo's packages; "rt" is the Go runtime, "bench" the harness).
var perLayer = []metricSpec{
	lower("bench.slice_ns_per_msg_p50", "ns"),
	lower("bench.slice_ns_per_msg_p99", "ns"),
	higher("bench.slices", "count"),
	higher("bench.rounds", "count"),
	lower("bench.on_recv_self_ns_per_msg", "ns"),
	lower("bench.trace_overhead_ratio", "ratio"),
	lower("bench.excused_sends", "count"),
	lower("bench.cpu_ns_per_msg", "ns"),
	lower("bench.raw_wall_ns_per_msg", "ns"),
	lower("bench.raw_setup_s", "s"),
	lower("bench.machine_speed", "ratio"),
	lower("bench.sim_err_pct", "%"),

	lower("gm.cpu_share", "ratio"),
	lower("gm.send_self_ns", "ns"),
	lower("gm.recycle_self_ns", "ns"),
	lower("gm.run_self_share", "ratio"),
	lower("gm.boot_ms", "ms"),
	lower("gm.open_provide_ms", "ms"),
	lower("gm.send_rejected_share", "ratio"),
	lower("gm.port_recoveries", "count"),

	lower("core.cpu_share", "ratio"),
	lower("core.probe_shadow_cycle_ns_1k", "ns"),
	lower("core.probe_shadow_cycle_ns_100k", "ns"),
	lower("core.ftgm_host_overhead_ratio", "ratio"),
	lower("core.ftgm_sim_overhead_us", "sim_us"),
	lower("core.sim_recovery_ms", "sim_ms"),
	lower("core.detect_us", "sim_us"),
	lower("core.ftd_ms", "sim_ms"),
	lower("core.per_process_ms", "sim_ms"),
	lower("core.ftd_recoveries", "count"),
	lower("core.ftd_false_alarms", "count"),
	lower("core.ftd_reload_retries", "count"),
	lower("core.ftd_recovery_restarts", "count"),
	lower("core.netwatch_suspicions", "count"),
	lower("core.netwatch_remaps", "count"),

	lower("mcp.cpu_share", "ratio"),
	lower("mcp.fragments_per_msg", "count"),
	lower("mcp.acks_per_msg", "count"),
	lower("mcp.retransmit_ratio", "ratio"),
	lower("mcp.nacks_per_msg", "count"),
	lower("mcp.dup_dropped", "count"),
	lower("mcp.no_buffer_drops", "count"),
	lower("mcp.corrupt_dropped", "count"),
	lower("mcp.ltimer_runs_per_msg", "count"),

	lower("lanai.cpu_share", "ratio"),
	lower("lanai.exec_busy_us_per_msg", "sim_us"),
	lower("lanai.host_dmas_per_msg", "count"),
	lower("lanai.host_dma_bytes_per_msg", "B"),
	lower("lanai.packets_dropped", "count"),
	lower("lanai.resets", "count"),
	lower("lanai.probe_host_dma_ns_4k", "ns"),

	lower("host.cpu_share", "ratio"),
	lower("host.pci_busy_us_per_msg", "sim_us"),
	lower("host.pci_txn_per_msg", "count"),
	lower("host.pci_utilization", "ratio"),
	lower("host.cpu_send_us", "sim_us"),
	lower("host.cpu_recv_us", "sim_us"),
	lower("host.probe_pci_transfer_ns", "ns"),

	lower("fabric.cpu_share", "ratio"),
	lower("fabric.link_bytes_per_msg", "B"),
	higher("fabric.goodput_ratio", "ratio"),
	lower("fabric.link_utilization", "ratio"),
	lower("fabric.link_dropped", "count"),
	lower("fabric.link_corrupted", "count"),
	lower("fabric.switch_forwarded_per_msg", "count"),
	lower("fabric.switch_dropped", "count"),
	lower("fabric.pool_checkouts_per_msg", "count"),
	lower("fabric.pool_live_delta", "count"),
	lower("fabric.probe_seal_check_ns_4k", "ns"),
	lower("fabric.probe_hop_ns", "ns"),

	lower("gmproto.cpu_share", "ratio"),
	lower("gmproto.probe_data_codec_ns", "ns"),

	lower("sim.cpu_share", "ratio"),
	lower("sim.events_per_msg", "count"),
	lower("sim.wall_ns_per_event", "ns"),
	higher("sim.sim_s_per_wall_s", "ratio"),
	lower("sim.probe_event_ns_d16", "ns"),
	lower("sim.probe_event_ns_d4096", "ns"),
	higher("sim.shard_speedup", "ratio"),
	lower("sim.spec_overhead_ratio", "ratio"),
	higher("sim.spec_commit_ratio", "ratio"),

	lower("ckpt.cpu_share", "ratio"),
	lower("ckpt.frames", "count"),
	lower("ckpt.bytes_per_frame", "B"),
	lower("ckpt.skips", "count"),
	lower("ckpt.max_drain_pause_us", "sim_us"),
	lower("ckpt.chain_mismatches", "count"),
	lower("ckpt.probe_encode_ns", "ns"),
	lower("ckpt.probe_decode_ns", "ns"),
	lower("ckpt.probe_replay_ns_per_frame", "ns"),

	lower("gossip.cpu_share", "ratio"),
	lower("gossip.probes", "count"),
	lower("gossip.dead_declared", "count"),
	lower("gossip.live_expelled", "count"),
	lower("gossip.probe_wire_codec_ns", "ns"),

	lower("mapper.cpu_share", "ratio"),
	lower("mapper.scouts_sent", "count"),
	lower("mapper.sim_elapsed_ms", "sim_ms"),
	lower("routing.probe_tables_ms_128", "ms"),

	lower("chaos.cpu_share", "ratio"),
	higher("isa.probe_campaign_runs_per_s", "1/s"),

	lower("rt.memmove_share", "ratio"),
	lower("rt.memclr_share", "ratio"),
	lower("rt.crc32_share", "ratio"),
	lower("rt.malloc_share", "ratio"),
	lower("rt.gc_share", "ratio"),
	lower("rt.gc_cycles", "count"),
	lower("rt.gc_pause_total_ms", "ms"),
	lower("rt.gc_overhead_ratio", "ratio"),
}

// paperRef is the paper's figure a workload's simulated result is held
// against in bench.sim_err_pct.
var paperRef = map[string]struct {
	value float64
	of    func(e2e, layer map[string]float64) float64
}{
	"pair_bulk":      {92.0, func(e, _ map[string]float64) float64 { return e["sim_mbs"] }},
	"pair_pingpong":  {13.0, func(e, _ map[string]float64) float64 { return e["sim_latency_us"] }},
	"chaos_recovery": {1665.8, func(_, l map[string]float64) float64 { return l["core.sim_recovery_ms"] }},
}

// runStats is everything the rounds of one run measured.
type runStats struct {
	rounds    []*roundResult
	attempted uint64
	failed    uint64
	excused   uint64
	// violations collects every failed correctness check of every round,
	// plus cross-round disagreements of the simulated outcome.
	violations []string
}

func (rs *runStats) add(r *roundResult, round int) {
	rs.rounds = append(rs.rounds, r)
	rs.attempted += r.attempted
	rs.failed += r.failed
	rs.excused += r.excused
	for _, v := range r.violations {
		rs.violations = append(rs.violations, fmt.Sprintf("round %d: %s", round, v))
	}
	if first := rs.rounds[0]; r.digest != first.digest || r.simMBs != first.simMBs || r.simLatencyUs != first.simLatencyUs {
		rs.violations = append(rs.violations, fmt.Sprintf("round %d: simulated outcome differs from round 0 under the same seed (sim_digest %016x vs %016x)", round, r.digest, first.digest))
	}
}

// over collects one per-round reading across rounds.
func (rs *runStats) over(f func(*roundResult) float64) []float64 {
	v := make([]float64, len(rs.rounds))
	for i, r := range rs.rounds {
		v[i] = f(r)
	}
	return v
}

func perMsg(num func(*roundResult) float64) func(*roundResult) float64 {
	return func(r *roundResult) float64 { return ratio(num(r), float64(r.msgs)) }
}

// endToEndMetrics reduces a run to the end-to-end metrics: medians over
// rounds for host readings, round 0 for simulated ones (all rounds agree).
func (rs *runStats) endToEndMetrics() map[string]float64 {
	r0 := rs.rounds[0]
	return map[string]float64{
		"setup_s":             median(rs.over(func(r *roundResult) float64 { return float64(r.setupNs) / 1e9 / r.speed })),
		"wall_ns_per_msg":     median(rs.over(perMsg(func(r *roundResult) float64 { return float64(r.host.wallNs) / r.speed }))),
		"allocs_per_msg":      median(rs.over(perMsg(func(r *roundResult) float64 { return float64(r.host.mallocs) }))),
		"alloc_bytes_per_msg": median(rs.over(perMsg(func(r *roundResult) float64 { return float64(r.host.bytes) }))),
		"peak_rss_mb":         peakRSSMB(),
		"drift_ratio":         median(rs.over(func(r *roundResult) float64 { return r.driftRatio })),
		"delivered_share":     1 - ratio(float64(rs.failed), float64(rs.attempted)),
		"sim_mbs":             r0.simMBs,
		"sim_latency_us":      r0.simLatencyUs,
	}
}

// tracedInputs is what the traced pass adds to the traced rounds' own
// readings.
type tracedInputs struct {
	workload     string
	untracedWall float64 // wall_ns_per_msg of the untraced rounds run first
	spans        [numSpanNames]spanAgg
	cpu          *cpuFold
	gc           *runStats          // rounds run with the collector at GOGC=100
	variants     map[string]float64 // variant-cell metrics by name
	probes       map[string]float64
	probeTime    time.Duration
}

// perLayerMetrics computes every per-layer metric of a traced run. Counter
// metrics are deltas of the public Stats() snapshots over the timed window
// of round 0 (they repeat exactly); host readings are medians over rounds.
func (rs *runStats) perLayerMetrics(in tracedInputs) map[string]float64 {
	r0 := rs.rounds[0]
	L := r0.layers
	msgs := float64(r0.msgs)
	per := func(v uint64) float64 { return ratio(float64(v), msgs) }
	simUs := func(d int64) float64 { return float64(d) / 1e3 }

	var slices []float64
	var tracedMsgs float64
	for _, r := range rs.rounds {
		slices = append(slices, r.sliceNsPerMsg...)
		tracedMsgs += float64(r.msgs)
	}
	e2e := rs.endToEndMetrics()
	wallPerMsg := e2e["wall_ns_per_msg"]
	sp := in.spans
	perCall := func(n spanName) float64 { return ratio(float64(sp[n].SelfNs), float64(sp[n].Count)) }

	m := map[string]float64{
		"bench.slice_ns_per_msg_p50":      percentile(slices, 0.50),
		"bench.slice_ns_per_msg_p99":      percentile(slices, 0.99),
		"bench.slices":                    float64(len(slices)),
		"bench.rounds":                    float64(len(rs.rounds)),
		"bench.on_recv_self_ns_per_msg":   ratio(float64(sp[spOnRecv].SelfNs+sp[spOnSendDone].SelfNs), tracedMsgs),
		"bench.trace_overhead_ratio":      ratio(wallPerMsg, in.untracedWall),
		"bench.excused_sends":             float64(rs.excused),
		"bench.raw_wall_ns_per_msg":       median(rs.over(perMsg(func(r *roundResult) float64 { return float64(r.host.wallNs) }))),
		"bench.raw_setup_s":               median(rs.over(func(r *roundResult) float64 { return float64(r.setupNs) / 1e9 })),
		"bench.machine_speed":             median(rs.over(func(r *roundResult) float64 { return r.speed })),
		"bench.cpu_ns_per_msg":            median(rs.over(perMsg(func(r *roundResult) float64 { return float64(r.host.cpuNs) }))),
		"gm.send_self_ns":                 perCall(spSend),
		"gm.recycle_self_ns":              perCall(spRecycle),
		"gm.run_self_share":               ratio(float64(sp[spRun].SelfNs), float64(sp[spRun].DurNs)),
		"gm.send_rejected_share":          ratio(float64(r0.refused), float64(r0.refused+r0.attempted)),
		"gm.port_recoveries":              float64(L.PortRecv),
		"core.ftd_recoveries":             float64(L.FTD.Recoveries),
		"core.ftd_false_alarms":           float64(L.FTD.FalseAlarms),
		"core.ftd_reload_retries":         float64(L.FTD.ReloadRetries),
		"core.ftd_recovery_restarts":      float64(L.FTD.RecoveryRestarts),
		"mcp.fragments_per_msg":           per(L.MCP.FragmentsSent),
		"mcp.acks_per_msg":                per(L.MCP.AcksSent),
		"mcp.retransmit_ratio":            ratio(float64(L.MCP.Retransmits), float64(L.MCP.MsgsSent)),
		"mcp.nacks_per_msg":               per(L.MCP.NacksSent),
		"mcp.dup_dropped":                 float64(L.MCP.DupDropped),
		"mcp.no_buffer_drops":             float64(L.MCP.NoBufferDrops),
		"mcp.corrupt_dropped":             float64(L.MCP.CorruptDropped),
		"mcp.ltimer_runs_per_msg":         per(L.MCP.LTimerRuns),
		"lanai.exec_busy_us_per_msg":      ratio(simUs(int64(L.Chip.ExecBusy)), msgs),
		"lanai.host_dmas_per_msg":         per(L.Chip.HostDMAs),
		"lanai.host_dma_bytes_per_msg":    per(L.Chip.HostDMABytes),
		"lanai.packets_dropped":           float64(L.Chip.PacketsDropped),
		"lanai.resets":                    float64(L.Chip.Resets),
		"host.pci_busy_us_per_msg":        ratio(simUs(int64(L.PCI.Busy)), msgs),
		"host.pci_txn_per_msg":            per(L.PCI.Transactions),
		"host.pci_utilization":            ratio(float64(L.PCI.Busy), float64(r0.simWindow)*float64(r0.nodes)),
		"fabric.link_bytes_per_msg":       per(L.LinkUp.Bytes),
		"fabric.goodput_ratio":            ratio(float64(r0.payload), float64(L.LinkUp.Bytes)),
		"fabric.link_utilization":         ratio(float64(L.LinkUp.Busy+L.LinkDown.Busy), 2*float64(r0.simWindow)*float64(r0.nodes)),
		"fabric.link_dropped":             float64(L.LinkUp.Dropped + L.LinkDown.Dropped),
		"fabric.link_corrupted":           float64(L.LinkUp.Corrupted + L.LinkDown.Corrupted),
		"fabric.switch_forwarded_per_msg": per(L.Switch.Forwarded),
		"fabric.switch_dropped":           float64(L.Switch.DroppedNoPort + L.Switch.DroppedDead),
		"fabric.pool_checkouts_per_msg":   per(L.Pool.Checkouts),
		"sim.events_per_msg":              per(L.Events),
		"sim.wall_ns_per_event":           median(rs.over(func(r *roundResult) float64 { return ratio(float64(r.host.wallNs), float64(r.layers.Events)) })),
		"sim.sim_s_per_wall_s":            median(rs.over(func(r *roundResult) float64 { return ratio(float64(r.simWindow), float64(r.host.wallNs)) })),
		"rt.gc_cycles":                    median(in.gc.over(func(r *roundResult) float64 { return float64(r.host.gcs) })),
		"rt.gc_pause_total_ms":            median(in.gc.over(func(r *roundResult) float64 { return float64(r.host.gcPauseNs) / 1e6 })),
		"rt.gc_overhead_ratio":            ratio(in.gc.endToEndMetrics()["wall_ns_per_msg"], in.untracedWall),
	}
	for _, layer := range []string{"gm", "core", "mcp", "lanai", "host", "fabric", "gmproto", "sim", "ckpt", "gossip", "mapper", "chaos"} {
		m[layer+".cpu_share"] = in.cpu.share(layer)
	}
	for _, kind := range []string{"memmove", "memclr", "crc32", "malloc", "gc"} {
		m["rt."+kind+"_share"] = in.cpu.rtShare(kind)
	}
	for name, v := range r0.extra {
		m[name] = v
	}
	for _, name := range []string{"gm.boot_ms", "gm.open_provide_ms"} {
		name := name
		m[name] = median(rs.over(func(r *roundResult) float64 { return r.extra[name] }))
	}
	for name, v := range in.variants {
		m[name] = v
	}
	for name, v := range in.probes {
		m[name] = v
	}
	if ref, ok := paperRef[in.workload]; ok {
		got := ref.of(e2e, m)
		m["bench.sim_err_pct"] = 100 * math.Abs(got-ref.value) / ref.value
	}
	return m
}
