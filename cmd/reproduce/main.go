// Command reproduce runs the paper's entire evaluation — every table,
// every figure, the motivating scenarios, and this repository's extension
// experiments — and writes one self-contained markdown report. It is the
// only experiment front end; the harness benchmark lives in bench/.
//
//	go run ./cmd/reproduce                     every section, full parameters (~10 s)
//	go run ./cmd/reproduce -quick              reduced sweeps
//	go run ./cmd/reproduce -only chaos,census  just those sections, in report order
//	go run ./cmd/reproduce -o REPORT.md        regenerate the committed report
//
// The report is a pure function of the seed and -quick; progress lines and
// the wall-clock total go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/gm"
	"repro/internal/chaos"
	"repro/internal/experiments"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

// params are the sweep sizes: the full report's, or the -quick ones.
type params struct {
	msgs, rounds, t3Runs, effSample int
	// campaignTrials is the trial count of the chaos, netfault and
	// control-plane campaigns; hostFaultTrials that of the host-death one.
	campaignTrials, hostFaultTrials int
	bwSizes, latSizes               []int
}

func fullParams() params {
	return params{
		msgs: 200, rounds: 100, t3Runs: 5, effSample: 10,
		campaignTrials: 4, hostFaultTrials: 2,
		bwSizes:  experiments.Figure7Sizes(),
		latSizes: experiments.Figure8Sizes(),
	}
}

func quickParams() params {
	return params{
		msgs: 40, rounds: 20, t3Runs: 2, effSample: 2,
		campaignTrials: 1, hostFaultTrials: 1,
		bwSizes:  []int{64, 1024, 4096, 4097, 16384, 65536, 262144},
		latSizes: []int{1, 16, 100, 1024, 16384},
	}
}

// report is what a section writes into.
type report struct {
	w    io.Writer
	seed uint64
	p    params
}

func (r *report) block(s string) { fmt.Fprintf(r.w, "```\n%s```\n\n", s) }

func (r *report) heading(title string) { fmt.Fprintf(r.w, "## %s\n\n", title) }

// section is one named piece of the report: its heading and the
// experiment that fills it.
type section struct {
	name, title string
	run         func(r *report) error
}

// sections is the report, in order. -only selects a subset by name.
var sections = []section{
	{"table1", "Table 1 — fault-injection outcomes", table1},
	{"census", "Table 1 census — every bit of send_chunk flipped once", census},
	{"fig7", "Figure 7 — bandwidth vs message length", fig7},
	{"fig8", "Figure 8 — latency vs message length", fig8},
	{"table2", "Table 2 — performance metric summary", table2},
	{"table3", "Table 3 — recovery time components", table3},
	{"effectiveness", "§5.2 — detection and recovery effectiveness", effectiveness},
	{"scenarios", "Figures 4 and 5 — the motivating failure scenarios", scenarios},
	{"ablations", "Ablations", ablations},
	{"ports", "Extension — recovery time vs open ports", ports},
	{"availability", "Extension — mission availability", availability},
	{"chaos", "Extension — compound faults, GM vs FTGM", chaosCampaign},
	{"netfault", "Extension — network faults: dead trunks and partitions", netfault},
	{"controlplane", "Extension — control planes under mapper death", controlPlane},
	{"hostfault", "Extension — host death: checkpointed endpoints restored and reborn", hostFault},
	{"checkpoint", "Extension — the rejected checkpointing baseline", checkpoint},
	{"anatomy", "Extension — latency anatomy (where the microseconds go)", anatomy},
	{"memory", "§5 resource claims — memory footprint", memory},
}

// selectSections resolves a comma-separated -only list against the table,
// keeping table order. An empty list selects every section.
func selectSections(only string) ([]section, error) {
	if only == "" {
		return sections, nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []section
	for _, s := range sections {
		if want[s.name] {
			out = append(out, s)
			delete(want, s.name)
		}
	}
	if len(want) > 0 {
		var unknown, valid []string
		for name := range want {
			unknown = append(unknown, name)
		}
		for _, s := range sections {
			valid = append(valid, s.name)
		}
		return nil, fmt.Errorf("unknown section %q; valid sections: %s",
			strings.Join(unknown, ","), strings.Join(valid, ", "))
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced sweep sizes")
	out := fs.String("o", "", "output file (default stdout)")
	seed := fs.Uint64("seed", 2003, "experiment seed")
	only := fs.String("only", "", "comma-separated section names to run (default all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := selectSections(*only)
	if err != nil {
		return err
	}

	r := &report{w: stdout, seed: *seed, p: fullParams()}
	if *quick {
		r.p = quickParams()
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		r.w = f
	}

	started := time.Now()
	step := func(name string) {
		fmt.Fprintf(stderr, "reproduce: %-14s %6.1fs\n", name, time.Since(started).Seconds())
	}
	fmt.Fprintf(r.w, "# Reproduction report — Low Overhead Fault Tolerant Networking in Myrinet (DSN 2003)\n\n")
	fmt.Fprintf(r.w, "Generated by `cmd/reproduce` (seed %d, quick=%v). All timings are virtual;\n", *seed, *quick)
	fmt.Fprintf(r.w, "every number is deterministic given the seed.\n\n")
	for _, s := range selected {
		step(s.name)
		r.heading(s.title)
		if err := s.run(r); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	step("done")
	return nil
}

func table1(r *report) error {
	send, recv, err := experiments.Table1Sections(1000, r.seed)
	if err != nil {
		return err
	}
	r.block(send.Render())
	fmt.Fprintf(r.w, "Extension: the same campaign against the receive path:\n\n")
	r.block(experiments.RenderSections(send, recv))
	return nil
}

func census(r *report) error {
	res, err := experiments.Table1Exhaustive(r.seed)
	if err != nil {
		return err
	}
	r.block(res.Render())
	return nil
}

func fig7(r *report) error {
	res, err := experiments.Figure7(r.p.bwSizes, r.p.msgs)
	if err != nil {
		return err
	}
	r.block(res.Render())
	return nil
}

func fig8(r *report) error {
	res, err := experiments.Figure8(r.p.latSizes, r.p.rounds)
	if err != nil {
		return err
	}
	r.block(res.Render())
	return nil
}

func table2(r *report) error {
	res, err := experiments.Table2()
	if err != nil {
		return err
	}
	r.block(res.Render())
	return nil
}

// table3 also prints Figure 9: both come from the same injected hangs.
func table3(r *report) error {
	res, err := experiments.Table3(r.p.t3Runs)
	if err != nil {
		return err
	}
	r.block(res.Render())
	fmt.Fprintf(r.w, "%s\n", res.PerProcessNote())
	r.heading("Figure 9 — recovery timeline")
	r.block(res.RenderTimeline())
	return nil
}

func effectiveness(r *report) error {
	res, err := experiments.Effectiveness(1000, r.p.effSample, r.seed)
	if err != nil {
		return err
	}
	r.block(res.Render())
	return nil
}

func scenarios(r *report) error {
	for _, f := range []func(gm.Mode) (experiments.ScenarioResult, error){
		experiments.Figure4Scenario, experiments.Figure5Scenario,
	} {
		for _, mode := range []gm.Mode{gm.ModeGM, gm.ModeFTGM} {
			sc, err := f(mode)
			if err != nil {
				return err
			}
			fmt.Fprintf(r.w, "- %s", sc.Render())
		}
	}
	f6, err := experiments.Figure6Scenario()
	if err != nil {
		return err
	}
	fmt.Fprintf(r.w, "\n")
	r.block(f6.Render())
	return nil
}

func ablations(r *report) error {
	ack, err := experiments.AblationDelayedACK(4096, r.p.msgs/4)
	if err != nil {
		return err
	}
	r.block(ack.Render())
	seq, err := experiments.AblationSeqStreams()
	if err != nil {
		return err
	}
	r.block(seq.Render())
	sc, err := experiments.AblationShadowCopy()
	if err != nil {
		return err
	}
	r.block(sc.Render())
	wd, err := experiments.AblationWatchdog([]int{400, 600, 800, 1000, 1500, 2000, 4000})
	if err != nil {
		return err
	}
	r.block(experiments.RenderWatchdog(wd))
	return nil
}

func ports(r *report) error {
	pts, err := experiments.RecoveryVsPorts([]int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	r.block(experiments.RenderRecoveryVsPorts(pts))
	return nil
}

func availability(r *report) error {
	res, err := experiments.AvailabilityComparison(experiments.DefaultAvailabilityConfig())
	if err != nil {
		return err
	}
	r.block(experiments.RenderAvailability(res))
	return nil
}

func chaosCampaign(r *report) error {
	cfg := chaos.DefaultCampaignConfig()
	cfg.Trials = r.p.campaignTrials
	res, err := experiments.ChaosComparison(r.seed, cfg)
	if err != nil {
		return err
	}
	r.block(experiments.RenderChaos(res) + "\n")
	return nil
}

// fourNodeCampaign is the shared shape of the netfault, control-plane and
// host-death campaigns: four nodes, one second of audited traffic.
func fourNodeCampaign(trials, events int, every, settle gm.Duration) chaos.CampaignConfig {
	return chaos.CampaignConfig{
		Trials: trials,
		Trial: chaos.TrialConfig{
			Nodes:     4,
			Traffic:   gm.Second,
			SendEvery: every,
			Events:    events,
			MaxSettle: settle,
		},
	}
}

func netfault(r *report) error {
	res, err := experiments.NetworkFaultComparison(r.seed,
		fourNodeCampaign(r.p.campaignTrials, 2, 2*gm.Millisecond, 15*gm.Second))
	if err != nil {
		return err
	}
	r.block(experiments.RenderNetFault(res) + "\n")
	return nil
}

func controlPlane(r *report) error {
	res, err := experiments.ControlPlaneComparison(r.seed,
		fourNodeCampaign(r.p.campaignTrials, 1, 2*gm.Millisecond, 15*gm.Second))
	if err != nil {
		return err
	}
	r.block(experiments.RenderControlPlane(res) + "\n")
	return nil
}

func hostFault(r *report) error {
	res, err := experiments.HostFaultComparison(r.seed,
		fourNodeCampaign(r.p.hostFaultTrials, 2, 4*gm.Millisecond, 30*gm.Second))
	if err != nil {
		return err
	}
	r.block(experiments.RenderHostFault(res) + "\n")
	return nil
}

func checkpoint(r *report) error {
	res, err := experiments.CheckpointBaseline(
		[]gm.Duration{100 * gm.Millisecond, 50 * gm.Millisecond, 10 * gm.Millisecond},
		experiments.DefaultCheckpointConfig())
	if err != nil {
		return err
	}
	r.block(experiments.RenderCheckpoint(res))
	return nil
}

func anatomy(r *report) error {
	res, err := experiments.LatencyAnatomy(16)
	if err != nil {
		return err
	}
	r.block(res.Render())
	return nil
}

func memory(r *report) error {
	res, err := experiments.MemoryFootprint(96)
	if err != nil {
		return err
	}
	r.block(res.Render())
	return nil
}
