package fault

import (
	"testing"

	"repro/internal/isa"
)

func newCampaign(t *testing.T) *Campaign {
	t.Helper()
	c, err := NewCampaign(42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGoldenRun(t *testing.T) {
	c := newCampaign(t)
	pkt := c.goldenPkt
	if len(pkt) != 21 {
		// 4 header words + 16 payload words + checksum.
		t.Fatalf("golden packet = %d words, want 21", len(pkt))
	}
	// Header words carry the token fields.
	if pkt[1] != testDest<<16|testDestPort {
		t.Errorf("dest word = %#x", pkt[1])
	}
	if pkt[2] != testPrio<<16|testMsgLen {
		t.Errorf("len word = %#x", pkt[2])
	}
	if pkt[3] != testSeq {
		t.Errorf("seq word = %#x", pkt[3])
	}
	// Payload round trip.
	for i := 0; i < testMsgLen/4; i++ {
		if pkt[4+i] != uint32(0xD0D0_0000+4*i) {
			t.Fatalf("payload word %d = %#x", i, pkt[4+i])
		}
	}
}

func TestSectionBounds(t *testing.T) {
	c := newCampaign(t)
	if c.SectionBits() < 2000 || c.SectionBits() > 6000 {
		t.Errorf("section bits = %d, want a few thousand (~100 instructions)", c.SectionBits())
	}
}

func TestTrialDeterminism(t *testing.T) {
	c := newCampaign(t)
	for bit := 0; bit < 64; bit++ {
		a := c.RunTrial(bit)
		b := c.RunTrial(bit)
		if a != b {
			t.Fatalf("bit %d: %+v != %+v", bit, a, b)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	c1 := newCampaign(t)
	c2 := newCampaign(t)
	r1 := c1.Run(200)
	r2 := c2.Run(200)
	for _, o := range Outcomes() {
		if r1.Counts[o] != r2.Counts[o] {
			t.Fatalf("category %v: %d != %d", o, r1.Counts[o], r2.Counts[o])
		}
	}
}

func TestTable1Shape(t *testing.T) {
	// The reproduction bands for Table 1: the exact percentages depend on
	// the firmware's instruction mix, but the paper's shape must hold —
	// hangs and corruption together dominate the failures, roughly half of
	// all flips are harmless, host crashes are rare but present, and the
	// "remote interface hung" and "MCP restart" rows are ~0 (as in the
	// paper's own runs).
	c := newCampaign(t)
	res := c.Run(1000)
	if res.Runs != 1000 || len(res.Trials) != 1000 {
		t.Fatalf("runs = %d, trials = %d", res.Runs, len(res.Trials))
	}
	hang := res.Percent(OutcomeLocalHang)
	corrupt := res.Percent(OutcomeCorrupted)
	clean := res.Percent(OutcomeNoImpact)
	crash := res.Percent(OutcomeHostCrash)
	if hang < 18 || hang > 38 {
		t.Errorf("hang = %.1f%%, want ~28.6%% (paper) / 23.4%% (Iyer)", hang)
	}
	if corrupt < 10 || corrupt > 30 {
		t.Errorf("corrupt = %.1f%%, want ~18.3%%", corrupt)
	}
	if clean < 40 || clean > 62 {
		t.Errorf("no impact = %.1f%%, want ~51.3%%", clean)
	}
	if crash <= 0 || crash > 3 {
		t.Errorf("host crash = %.1f%%, want ~0.6%%", crash)
	}
	if res.Counts[OutcomeRemoteHang] != 0 {
		t.Errorf("remote hang = %d, want 0", res.Counts[OutcomeRemoteHang])
	}
	// Failures affecting the interface are dominated by hang+corrupt
	// ("more than 90% of the failures that affect the network interface").
	failures := 100 - clean
	if (hang+corrupt)/failures < 0.85 {
		t.Errorf("hang+corrupt = %.1f%% of failures, want > 85%%", 100*(hang+corrupt)/failures)
	}
}

func TestCampaignWorkerInvariance(t *testing.T) {
	// The seed-splitting contract: a campaign's trials — order, bit
	// positions, and outcomes — are bit-for-bit identical at any worker
	// count, because trial i draws its stream from (nonce, i) rather than
	// from whichever worker runs it.
	ref, err := NewCampaign(2003)
	if err != nil {
		t.Fatal(err)
	}
	serial := ref.RunWorkers(300, 1)
	for _, workers := range []int{1, 2, 8} {
		c, err := NewCampaign(2003)
		if err != nil {
			t.Fatal(err)
		}
		got := c.RunWorkers(300, workers)
		if len(got.Trials) != len(serial.Trials) {
			t.Fatalf("workers=%d: %d trials, want %d", workers, len(got.Trials), len(serial.Trials))
		}
		for i := range got.Trials {
			if got.Trials[i] != serial.Trials[i] {
				t.Fatalf("workers=%d: trial %d = %+v, serial %+v",
					workers, i, got.Trials[i], serial.Trials[i])
			}
		}
	}
}

func TestSuccessiveRunsSampleFreshPositions(t *testing.T) {
	// Each Run call draws a new nonce from the campaign's seed stream, so
	// back-to-back Runs must not replay the same bit sequence.
	c := newCampaign(t)
	r1 := c.Run(50)
	r2 := c.Run(50)
	same := 0
	for i := range r1.Trials {
		if r1.Trials[i].Bit == r2.Trials[i].Bit {
			same++
		}
	}
	if same == len(r1.Trials) {
		t.Fatal("two successive Run calls replayed identical bit positions")
	}
}

func TestExhaustiveWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("double census")
	}
	c1 := newCampaign(t)
	c2 := newCampaign(t)
	r1 := c1.exhaustiveWorkers(1)
	r2 := c2.exhaustiveWorkers(4)
	for i := range r1.Trials {
		if r1.Trials[i] != r2.Trials[i] {
			t.Fatalf("census trial %d differs: %+v vs %+v", i, r1.Trials[i], r2.Trials[i])
		}
	}
}

func TestExhaustiveCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive census")
	}
	c := newCampaign(t)
	res := c.Exhaustive()
	if res.Runs != c.SectionBits() {
		t.Fatalf("census runs = %d, want %d", res.Runs, c.SectionBits())
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != res.Runs {
		t.Fatalf("counts sum %d != runs %d", total, res.Runs)
	}
	// Every major category must be populated somewhere in the section.
	for _, o := range []Outcome{OutcomeLocalHang, OutcomeCorrupted, OutcomeNoImpact, OutcomeHostCrash} {
		if res.Counts[o] == 0 {
			t.Errorf("census found no %v", o)
		}
	}
}

func TestClassifierReasons(t *testing.T) {
	// Pin concrete flip positions to concrete mechanisms so the classifier
	// cannot silently drift: find via census one exemplar per stop reason.
	c := newCampaign(t)
	byStop := make(map[isa.StopReason]Trial)
	for bit := 0; bit < c.SectionBits(); bit++ {
		tr := c.RunTrial(bit)
		if _, ok := byStop[tr.Stop]; !ok {
			byStop[tr.Stop] = tr
		}
	}
	if tr, ok := byStop[isa.StopInvalidOpcode]; !ok || tr.Outcome != OutcomeLocalHang {
		t.Errorf("invalid opcode exemplar: %+v", tr)
	}
	if tr, ok := byStop[isa.StopBudgetExhausted]; !ok || tr.Outcome != OutcomeLocalHang {
		t.Errorf("infinite loop exemplar: %+v", tr)
	}
	if _, ok := byStop[isa.StopOutOfRange]; !ok {
		t.Error("no out-of-range exemplar in the whole section")
	}
	if _, ok := byStop[isa.StopHalted]; !ok {
		t.Error("no completing trial in the whole section")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range Outcomes() {
		if o.String() == "" {
			t.Errorf("empty name for %d", int(o))
		}
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome has empty name")
	}
}

func TestProgramAssembles(t *testing.T) {
	p, err := Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"start", "dispatch", "send_chunk", "send_chunk_end", "copy_loop", "pi_loop"} {
		if _, ok := p.Symbols[sym]; !ok {
			t.Errorf("symbol %q missing", sym)
		}
	}
}

func BenchmarkTrial(b *testing.B) {
	c, err := NewCampaign(42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunTrial(i % c.SectionBits())
	}
}

func TestRecvSectionCampaign(t *testing.T) {
	c, err := NewSectionCampaign(SectionRecv, 42)
	if err != nil {
		t.Fatal(err)
	}
	if c.Section() != SectionRecv {
		t.Errorf("Section = %v", c.Section())
	}
	// Golden recv run emits a 2-word ACK, not a data packet.
	if got := len(c.goldenPkt); got != 2 {
		t.Fatalf("golden ACK words = %d, want 2", got)
	}
	res := c.Run(600)
	hang := res.Percent(OutcomeLocalHang)
	clean := res.Percent(OutcomeNoImpact)
	if hang < 15 || hang > 35 {
		t.Errorf("recv-section hang = %.1f%%, want the same regime as send", hang)
	}
	if clean < 38 || clean > 62 {
		t.Errorf("recv-section no impact = %.1f%%", clean)
	}
	// The two sections must be *different* experiments: distinct golden
	// outputs and independent flip targets.
	s, err := NewSectionCampaign(SectionSend, 42)
	if err != nil {
		t.Fatal(err)
	}
	if s.SectionBits() == c.SectionBits() && len(s.goldenPkt) == len(c.goldenPkt) {
		t.Error("send and recv sections look identical")
	}
}

func TestSectionStrings(t *testing.T) {
	if SectionSend.String() != "send_chunk" || SectionRecv.String() != "recv_chunk" {
		t.Error("section names wrong")
	}
	if Section(9).String() == "" {
		t.Error("unknown section empty")
	}
}
