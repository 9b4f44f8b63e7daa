package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/gm"
	"repro/internal/chaos"
)

func TestTable1Experiment(t *testing.T) {
	res, err := Table1(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign.Runs != 500 {
		t.Errorf("runs = %d", res.Campaign.Runs)
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "Local Interface Hung", "No Impact", "28.6%", "Iyer"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable1ParallelDeterminism(t *testing.T) {
	// Table 1's campaign fans out across GOMAXPROCS workers internally; two
	// runs from the same seed must produce identical trial lists — same
	// order, same bits, same outcomes — regardless of scheduling.
	a, err := Table1(1000, 2003)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1(1000, 2003)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Campaign.Trials) != 1000 || len(b.Campaign.Trials) != 1000 {
		t.Fatalf("trials = %d / %d", len(a.Campaign.Trials), len(b.Campaign.Trials))
	}
	for i := range a.Campaign.Trials {
		if a.Campaign.Trials[i] != b.Campaign.Trials[i] {
			t.Fatalf("trial %d: %+v != %+v", i, a.Campaign.Trials[i], b.Campaign.Trials[i])
		}
	}
}

func TestBandwidthShape(t *testing.T) {
	// Figure 7's shape in miniature: FTGM tracks GM closely, the curve
	// grows with message size, and large messages approach the ~92 MB/s
	// asymptote.
	sizes := []int{64, 4096, 65536, 262144}
	res, err := Figure7(sizes, 40)
	if err != nil {
		t.Fatal(err)
	}
	last := len(sizes) - 1
	gmAsym := res.GM.Points[last].Y
	ftAsym := res.FTGM.Points[last].Y
	if gmAsym < 80 || gmAsym > 105 {
		t.Errorf("GM asymptote = %.1f MB/s, want ~92", gmAsym)
	}
	if ftAsym < gmAsym*0.97 {
		t.Errorf("FTGM asymptote = %.1f MB/s, want within 3%% of GM %.1f", ftAsym, gmAsym)
	}
	for i := 1; i <= last; i++ {
		if res.GM.Points[i].Y <= res.GM.Points[i-1].Y {
			t.Errorf("GM bandwidth not increasing at %v", res.GM.Points[i].X)
		}
	}
	if !strings.Contains(res.Render(), "Figure 7") {
		t.Error("render broken")
	}
}

func TestBandwidthJaggedAtFragmentBoundary(t *testing.T) {
	// A message one byte past 4 KB needs a second fragment: its rate dips
	// below the 4 KB point (the jagged mid-curve of Figure 7).
	p1, err := NewPair(PairOptions{Mode: gm.ModeGM})
	if err != nil {
		t.Fatal(err)
	}
	at4k := BidirectionalRate(p1, 4096, 60)
	p2, err := NewPair(PairOptions{Mode: gm.ModeGM})
	if err != nil {
		t.Fatal(err)
	}
	past4k := BidirectionalRate(p2, 4097, 60)
	if past4k >= at4k {
		t.Errorf("rate(4097B)=%.1f >= rate(4096B)=%.1f; fragmentation dip missing", past4k, at4k)
	}
}

func TestLatencyShape(t *testing.T) {
	sizes := []int{16, 1024, 16384}
	res, err := Figure8(sizes, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Small-message latencies in the paper's bands; FTGM ~1.5 µs above GM.
	if res.GM.Points[0].Y < 10 || res.GM.Points[0].Y > 13 {
		t.Errorf("GM 16B latency = %.1f us", res.GM.Points[0].Y)
	}
	d := res.FTGM.Points[0].Y - res.GM.Points[0].Y
	if d < 1.0 || d > 2.0 {
		t.Errorf("FTGM-GM delta = %.2f us, want ~1.5", d)
	}
	// Latency grows with size.
	for i := 1; i < len(sizes); i++ {
		if res.GM.Points[i].Y <= res.GM.Points[i-1].Y {
			t.Error("latency not increasing with size")
		}
	}
	if !strings.Contains(res.Render(), "Figure 8") {
		t.Error("render broken")
	}
}

func TestTable2Experiment(t *testing.T) {
	res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	r := res.GM
	f := res.FTGM
	if r.LatencyUs < 10 || r.LatencyUs > 13 {
		t.Errorf("GM latency = %.1f", r.LatencyUs)
	}
	if f.LatencyUs-r.LatencyUs < 1.0 || f.LatencyUs-r.LatencyUs > 2.0 {
		t.Errorf("latency delta = %.2f", f.LatencyUs-r.LatencyUs)
	}
	if r.HostSendUs < 0.25 || r.HostSendUs > 0.35 || f.HostSendUs < 0.5 || f.HostSendUs > 0.6 {
		t.Errorf("host send = %.2f / %.2f", r.HostSendUs, f.HostSendUs)
	}
	if r.LanaiPerMsgUs < 5 || r.LanaiPerMsgUs > 7.5 {
		t.Errorf("GM LANai util = %.1f", r.LanaiPerMsgUs)
	}
	if f.BandwidthMBs < r.BandwidthMBs*0.95 {
		t.Errorf("FTGM bandwidth %.1f much below GM %.1f", f.BandwidthMBs, r.BandwidthMBs)
	}
	out := res.Render()
	for _, want := range []string{"Table 2", "Bandwidth", "LANai util.", "92.4MB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable3Experiment(t *testing.T) {
	res, err := Table3(3)
	if err != nil {
		t.Fatal(err)
	}
	det := res.Detection.Mean().Micros()
	if det < 100 || det > 1200 {
		t.Errorf("detection = %.0f us, want sub-ms", det)
	}
	ftd := res.FTD.Mean().Micros()
	if ftd < 600000 || ftd > 900000 {
		t.Errorf("FTD = %.0f us, want ~765000", ftd)
	}
	pp := res.PerProcess.Mean().Micros()
	if pp < 700000 || pp > 1100000 {
		t.Errorf("per-process = %.0f us, want ~900000", pp)
	}
	if res.Total.Mean() > 2*gm.Second {
		t.Errorf("total recovery = %v, want < 2 s (the paper's headline)", res.Total.Mean())
	}
	// The note prices the row from the host constants and the re-pushed
	// tokens; that price must account for the measured mean to within the
	// event-delivery microsecond.
	h := res.Host
	tokens := float64(res.Tokens) / float64(res.Runs)
	priced := (h.RecoveryHandlerBase + h.RecoverySeqUpload + h.RecoveryReopen).Micros() +
		tokens*h.RecoveryPerToken.Micros()
	if tokens == 0 || math.Abs(priced-pp) > 5 {
		t.Errorf("per-process %.0f us, but %.0f tokens price it at %.0f us", pp, tokens, priced)
	}
	if note := res.PerProcessNote(); !strings.Contains(note, "900000 us fixed") {
		t.Errorf("note = %q", note)
	}
	out := res.Render()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "765000") {
		t.Error("render broken")
	}
	tl := res.RenderTimeline()
	for _, want := range []string{"Figure 9", "fault-injected", "ftd-woken", "processes-recovered"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestEffectivenessExperiment(t *testing.T) {
	res, err := Effectiveness(200, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hangs == 0 {
		t.Fatal("campaign produced no hangs")
	}
	if res.Replayed != 3 {
		t.Errorf("replayed %d hangs, want 3", res.Replayed)
	}
	if res.Detected != 3 {
		t.Errorf("detected %d/3 replayed hangs", res.Detected)
	}
	if res.Recovered != 3 {
		t.Errorf("recovered %d/3", res.Recovered)
	}
	if res.AuditFailed != 0 {
		t.Errorf("audit violations: %d", res.AuditFailed)
	}
	if !strings.Contains(res.Render(), "281/286") {
		t.Error("render missing paper reference")
	}
}

// TestEffectivenessRenderDenominator: the detected and recovered rows are
// out of the hangs replayed, so a hang the watchdog missed shows.
func TestEffectivenessRenderDenominator(t *testing.T) {
	r := &EffectivenessResult{CampaignRuns: 1000, Hangs: 247, Replayed: 10, Detected: 9, Recovered: 9}
	out := r.Render()
	for _, row := range []string{"Hangs detected", "Hangs recovered"} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, row) {
				found = strings.Contains(line, "9/10")
			}
		}
		if !found {
			t.Errorf("%q row does not read 9/10:\n%s", row, out)
		}
	}
}

// TestEffectivenessAuditCountsLoss: a message sent and never delivered is
// an audit violation, as are duplicates.
func TestEffectivenessAuditCountsLoss(t *testing.T) {
	a := chaos.NewAuditor()
	k := chaos.StreamKey{Src: 1, SrcPort: 2, Dst: 3, DstPort: 2}
	var msgs [][]byte
	for i := 0; i < 3; i++ {
		msgs = append(msgs, a.NewMessage(k, chaos.MinMsgBytes))
	}
	deliver := func(m []byte) {
		a.RecordDelivery(k.Dst, k.DstPort, gm.RecvEvent{Data: m, Src: k.Src, SrcPort: k.SrcPort})
	}
	deliver(msgs[0])
	deliver(msgs[2])
	if got := auditViolations(a.Report()); got != 1 {
		t.Fatalf("one lost message: %d violations, want 1", got)
	}
	deliver(msgs[2])
	if got := auditViolations(a.Report()); got != 2 {
		t.Fatalf("lost + duplicate: %d violations, want 2", got)
	}
}

func TestFigure4Scenarios(t *testing.T) {
	broken, err := Figure4Scenario(gm.ModeGM)
	if err != nil {
		t.Fatal(err)
	}
	if broken.Deliveries != 2 {
		t.Errorf("stock GM delivered %d times, want 2 (duplicate)", broken.Deliveries)
	}
	if !broken.Broken() {
		t.Error("Broken() = false for the duplicate")
	}
	fixed, err := Figure4Scenario(gm.ModeFTGM)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Deliveries != 1 {
		t.Errorf("FTGM delivered %d times, want 1", fixed.Deliveries)
	}
	if !strings.Contains(broken.Render(), "DUPLICATED") {
		t.Error("render broken")
	}
}

func TestFigure5Scenarios(t *testing.T) {
	broken, err := Figure5Scenario(gm.ModeGM)
	if err != nil {
		t.Fatal(err)
	}
	if broken.Deliveries != 0 {
		t.Errorf("stock GM delivered %d times, want 0 (lost)", broken.Deliveries)
	}
	fixed, err := Figure5Scenario(gm.ModeFTGM)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Deliveries != 1 {
		t.Errorf("FTGM delivered %d times, want 1", fixed.Deliveries)
	}
	if !strings.Contains(broken.Render(), "LOST") {
		t.Error("render broken")
	}
}

func TestFigure6Scenario(t *testing.T) {
	res, err := Figure6Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !res.GMBlocked {
		t.Error("stock GM did not head-of-line block across ports")
	}
	if res.FTGMBlocked {
		t.Error("FTGM streams head-of-line blocked")
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Error("render broken")
	}
}

func TestLatencyAnatomy(t *testing.T) {
	res, err := LatencyAnatomy(16)
	if err != nil {
		t.Fatal(err)
	}
	// The analytic budget must match the simulator within dispatch noise.
	if d := res.MeasuredGM - res.SumGMUs; d < -0.6 || d > 0.6 {
		t.Errorf("GM budget %.2f vs measured %.2f", res.SumGMUs, res.MeasuredGM)
	}
	if d := res.MeasuredFTGM - res.SumFTGMUs; d < -0.6 || d > 0.6 {
		t.Errorf("FTGM budget %.2f vs measured %.2f", res.SumFTGMUs, res.MeasuredFTGM)
	}
	// The delta decomposes into exactly the paper's four contributions.
	delta := res.SumFTGMUs - res.SumGMUs
	if delta < 1.2 || delta > 1.6 {
		t.Errorf("budget delta = %.2f, want ~1.45", delta)
	}
	if !strings.Contains(res.Render(), "Latency anatomy") {
		t.Error("render broken")
	}
}

func TestMemoryFootprintExperiment(t *testing.T) {
	res, err := MemoryFootprint(96)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtraLanai < 60<<10 || res.ExtraLanai > 140<<10 {
		t.Errorf("extra LANai = %dKB, want ~100KB (paper §5)", res.ExtraLanai>>10)
	}
	if res.ProcessBytes < 12<<10 || res.ProcessBytes > 32<<10 {
		t.Errorf("process = %dKB, want ~20KB (paper §5)", res.ProcessBytes>>10)
	}
	if res.FTGMLanaiBytes <= res.GMLanaiBytes {
		t.Error("FTGM tables not larger than GM's")
	}
	if !strings.Contains(res.Render(), "~100KB") {
		t.Error("render broken")
	}
}
