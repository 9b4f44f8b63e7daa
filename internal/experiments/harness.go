// Package experiments reproduces every table and figure of the paper's
// evaluation on top of the simulated Myrinet/GM stack:
//
//	Table 1  — fault-injection outcome distribution (ISA-level campaign)
//	Figure 7 — bidirectional bandwidth vs message length, GM vs FTGM
//	Figure 8 — half-round-trip latency vs message length, GM vs FTGM
//	Table 2  — bandwidth / latency / host util / LANai util summary
//	Table 3  — recovery time components
//	Figure 9 — recovery timeline
//	§5.2     — detection and recovery effectiveness under the campaign
//	Figures 4 and 5 — the motivating failure scenarios of stock GM
//
// plus the ablations called out in DESIGN.md. Each experiment returns
// structured results and can render itself in the textual shape the paper
// reports; cmd/reproduce and the benchmark suite are thin wrappers.
package experiments

import (
	"fmt"

	"repro/gm"
	"repro/internal/trace"
)

// Pair is a two-node experiment cluster: the paper's testbed shape (two
// Pentium III hosts, LANai9 PCI64B cards, one M3M-SW8 switch).
type Pair struct {
	Cluster *gm.Cluster
	A, B    *gm.Node
	PA, PB  *gm.Port
}

// PairOptions tweak the standard testbed.
type PairOptions struct {
	Mode       gm.Mode
	Seed       uint64
	SendTokens int
	RecvSlots  int
	Configure  func(*gm.Config)
}

// NewPair builds and boots the standard two-node testbed with one open
// port (port 2) on each side.
func NewPair(opts PairOptions) (*Pair, error) {
	cfg := gm.DefaultConfig(opts.Mode)
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.SendTokens > 0 {
		cfg.Host.SendTokens = opts.SendTokens
	}
	if opts.Configure != nil {
		opts.Configure(&cfg)
	}
	cl := gm.NewCluster(cfg)
	a := cl.AddNode("hostA")
	b := cl.AddNode("hostB")
	sw := cl.AddSwitch("m3m-sw8")
	if err := cl.Connect(a, sw, 0); err != nil {
		return nil, err
	}
	if err := cl.Connect(b, sw, 1); err != nil {
		return nil, err
	}
	if _, err := cl.Boot(); err != nil {
		return nil, fmt.Errorf("experiments: boot: %w", err)
	}
	pa, err := a.OpenPort(2)
	if err != nil {
		return nil, err
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		return nil, err
	}
	return &Pair{Cluster: cl, A: a, B: b, PA: pa, PB: pb}, nil
}

// streamStats reports a one-direction streaming run.
type streamStats struct {
	delivered  int
	firstAt    gm.Time
	lastAt     gm.Time
	bytesTotal uint64
}

// rate reports the steady-state data rate: bytes after the first delivery
// divided by the first-to-last delivery span.
func (s *streamStats) rate() float64 {
	if s.delivered < 2 {
		return 0
	}
	perMsg := s.bytesTotal / uint64(s.delivered)
	return trace.Bandwidth(s.bytesTotal-perMsg, s.lastAt-s.firstAt)
}

// stream drives `count` messages of `size` bytes from one port to another
// at the maximum rate the token flow control allows (the gm_allsize
// workload of §5.1), re-providing receive buffers as they drain.
func stream(cl *gm.Cluster, from *gm.Port, to *gm.Port, dest gm.NodeID, size, count, recvSlots int) *streamStats {
	st := &streamStats{}
	to.SetReceiveHandler(func(ev gm.RecvEvent) {
		if st.delivered == 0 {
			st.firstAt = cl.Now()
		}
		st.delivered++
		st.bytesTotal += uint64(len(ev.Data))
		st.lastAt = cl.Now()
		// The message was counted, not read: hand its buffer straight back
		// (steady state then allocates nothing per message).
		_ = to.RecycleReceiveBuffer(ev.Data, gm.PriorityLow)
	})
	for i := 0; i < recvSlots; i++ {
		if err := to.ProvideReceiveBuffer(uint32(size), gm.PriorityLow); err != nil {
			panic(err)
		}
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	posted := 0
	var post func()
	post = func() {
		for posted < count {
			err := from.Send(dest, to.ID(), gm.PriorityLow, payload, func(gm.SendStatus) { post() })
			if err == gm.ErrNoSendTokens {
				return // callbacks will resume posting
			}
			if err != nil {
				panic(err)
			}
			posted++
		}
	}
	cl.After(0, post)
	return st
}

// BidirectionalRate measures the sustained per-direction data rate with
// both hosts sending and receiving at the maximum rate possible (Figure 7's
// workload). It returns the mean of the two directions in MB/s.
func BidirectionalRate(p *Pair, size, count int) float64 {
	ab := stream(p.Cluster, p.PA, p.PB, p.B.ID(), size, count, 32)
	ba := stream(p.Cluster, p.PB, p.PA, p.A.ID(), size, count, 32)
	// Run until both directions drain (bounded for safety).
	limit := p.Cluster.Now() + 120*gm.Second
	for (ab.delivered < count || ba.delivered < count) && p.Cluster.Now() < limit {
		p.Cluster.Run(10 * gm.Millisecond)
	}
	if ab.delivered < count || ba.delivered < count {
		panic(fmt.Sprintf("experiments: streaming stalled: %d/%d and %d/%d",
			ab.delivered, count, ba.delivered, count))
	}
	return (ab.rate() + ba.rate()) / 2
}

// HalfRoundTrip measures the mean half round-trip latency of `rounds`
// ping-pong exchanges of `size`-byte messages (Figure 8's workload).
func HalfRoundTrip(p *Pair, size, rounds int) gm.Duration {
	payload := make([]byte, size)
	var lat trace.LatencySeries
	lat.Reserve(rounds)
	var start gm.Time
	done := 0
	p.PB.SetReceiveHandler(func(ev gm.RecvEvent) {
		_ = p.PB.RecycleReceiveBuffer(ev.Data, gm.PriorityLow)
		if err := p.PB.Send(p.A.ID(), 2, gm.PriorityLow, payload, nil); err != nil {
			panic(err)
		}
	})
	p.PA.SetReceiveHandler(func(ev gm.RecvEvent) {
		lat.Add(p.Cluster.Now() - start)
		done++
		if done < rounds {
			start = p.Cluster.Now()
			_ = p.PA.RecycleReceiveBuffer(ev.Data, gm.PriorityLow)
			if err := p.PA.Send(p.B.ID(), 2, gm.PriorityLow, payload, nil); err != nil {
				panic(err)
			}
		}
	})
	if err := p.PA.ProvideReceiveBuffer(uint32(size)+16, gm.PriorityLow); err != nil {
		panic(err)
	}
	if err := p.PB.ProvideReceiveBuffer(uint32(size)+16, gm.PriorityLow); err != nil {
		panic(err)
	}
	start = p.Cluster.Now()
	if err := p.PA.Send(p.B.ID(), 2, gm.PriorityLow, payload, nil); err != nil {
		panic(err)
	}
	limit := p.Cluster.Now() + 60*gm.Second
	for done < rounds && p.Cluster.Now() < limit {
		p.Cluster.Run(10 * gm.Millisecond)
	}
	if done < rounds {
		panic(fmt.Sprintf("experiments: ping-pong stalled at %d/%d", done, rounds))
	}
	return lat.Mean() / 2
}
