package gm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// buildTwoSwitch boots a 2-switch cluster with half the nodes on each side.
func buildTwoSwitch(t *testing.T, mode Mode, nodesPerSide int) (*Cluster, []*Node) {
	t.Helper()
	cfg := DefaultConfig(mode)
	cfg.Host.SendTokens = 256
	cl := NewCluster(cfg)
	s1 := cl.AddSwitch("s1")
	s2 := cl.AddSwitch("s2")
	if err := cl.ConnectSwitches(s1, s2, 7, 7); err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 0; i < 2*nodesPerSide; i++ {
		n := cl.AddNode(fmt.Sprintf("n%d", i))
		sw, port := s1, i
		if i >= nodesPerSide {
			sw, port = s2, i-nodesPerSide
		}
		if err := cl.Connect(n, sw, port); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	if _, err := cl.Boot(); err != nil {
		t.Fatal(err)
	}
	return cl, nodes
}

func TestTwoSwitchMessaging(t *testing.T) {
	cl, nodes := buildTwoSwitch(t, ModeFTGM, 2)
	// Cross-trunk exchange between one node on each side.
	pa, _ := nodes[0].OpenPort(1)
	pb, _ := nodes[2].OpenPort(1)
	var got []byte
	pb.SetReceiveHandler(func(ev RecvEvent) { got = ev.Data })
	if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(nodes[2].ID(), 1, PriorityLow, []byte("cross-trunk"), nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(5 * Millisecond)
	if !bytes.Equal(got, []byte("cross-trunk")) {
		t.Fatalf("got %q", got)
	}
}

// measureFlow streams count messages of size bytes from src to dst and
// returns the delivered data rate in MB/s.
func measureFlow(t *testing.T, cl *Cluster, src, dst *Node, port PortID, size, count int) func() float64 {
	t.Helper()
	ps, err := src.OpenPort(port)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := dst.OpenPort(port)
	if err != nil {
		t.Fatal(err)
	}
	var first, last Time
	delivered := 0
	pd.SetReceiveHandler(func(ev RecvEvent) {
		if delivered == 0 {
			first = cl.Now()
		}
		delivered++
		last = cl.Now()
		_ = pd.ProvideReceiveBuffer(uint32(size), PriorityLow)
	})
	for i := 0; i < 16; i++ {
		if err := pd.ProvideReceiveBuffer(uint32(size), PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, size)
	posted := 0
	var post func()
	post = func() {
		for posted < count {
			err := ps.Send(dst.ID(), port, PriorityLow, payload, func(SendStatus) { post() })
			if err == ErrNoSendTokens {
				return
			}
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			posted++
		}
	}
	cl.After(0, post)
	return func() float64 {
		if delivered < count {
			t.Fatalf("flow delivered %d/%d", delivered, count)
		}
		span := last - first
		if span <= 0 {
			return 0
		}
		return float64(size*(delivered-1)) / span.Seconds() / 1e6
	}
}

func TestTrunkSharingFairness(t *testing.T) {
	// Two unidirectional flows cross the same trunk: together they cannot
	// exceed the trunk's 250 MB/s, and neither starves.
	cl, nodes := buildTwoSwitch(t, ModeGM, 2)
	f1 := measureFlow(t, cl, nodes[0], nodes[2], 1, 65536, 60)
	f2 := measureFlow(t, cl, nodes[1], nodes[3], 2, 65536, 60)
	cl.Run(2 * Second)
	r1, r2 := f1(), f2()
	sum := r1 + r2
	if sum > 255 {
		t.Errorf("aggregate trunk throughput %.1f MB/s exceeds the 250 MB/s link", sum)
	}
	if sum < 150 {
		t.Errorf("aggregate trunk throughput %.1f MB/s — trunk badly underutilized", sum)
	}
	ratio := r1 / r2
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("unfair trunk sharing: %.1f vs %.1f MB/s", r1, r2)
	}
}

func TestSingleFlowNotTrunkLimited(t *testing.T) {
	// One flow alone across the trunk: the PCI bus (~186 MB/s
	// unidirectional), not the 250 MB/s trunk, is the bottleneck.
	cl, nodes := buildTwoSwitch(t, ModeGM, 2)
	f := measureFlow(t, cl, nodes[0], nodes[2], 1, 65536, 60)
	cl.Run(2 * Second)
	r := f()
	if r < 140 || r > 200 {
		t.Errorf("single cross-trunk flow = %.1f MB/s, want PCI-bound ~170-190", r)
	}
}

func TestClusterTrace(t *testing.T) {
	var buf strings.Builder
	cl, a, _ := twoNodes(t, ModeFTGM)
	cl.enableTrace(&buf)
	a.InjectHang()
	cl.Run(5 * Second)
	out := buf.String()
	for _, want := range []string{"processor hung", "card reset"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	cl.enableTrace(nil)
	n := len(buf.String())
	a.InjectHang()
	cl.Run(5 * Second)
	if len(buf.String()) != n {
		t.Error("trace still active after disable")
	}
}
