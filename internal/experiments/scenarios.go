package experiments

import (
	"bytes"
	"fmt"

	"repro/gm"
)

// ScenarioResult reports one of the motivating failure scenarios.
type ScenarioResult struct {
	Name       string
	Deliveries int // times the probe message reached the application
	Expected   int
	Detail     string
}

// Render describes the outcome.
func (s ScenarioResult) Render() string {
	verdict := "exactly-once (correct)"
	switch {
	case s.Deliveries == 0:
		verdict = "LOST (delivered 0 times)"
	case s.Deliveries > 1:
		verdict = fmt.Sprintf("DUPLICATED (delivered %d times)", s.Deliveries)
	}
	return fmt.Sprintf("%s: %s\n  %s\n", s.Name, verdict, s.Detail)
}

// Figure4Scenario reproduces the duplicate-message case: the sender's LANai
// crashes while the ACK for a delivered message is in transit. Under stock
// GM with a naive MCP reload the message is delivered twice; under FTGM it
// is delivered exactly once.
func Figure4Scenario(mode gm.Mode) (ScenarioResult, error) {
	res := ScenarioResult{Expected: 1}
	if mode == gm.ModeGM {
		res.Name = "Figure 4 scenario, stock GM + naive restart"
	} else {
		res.Name = "Figure 4 scenario, FTGM"
	}
	p, err := NewPair(PairOptions{Mode: mode})
	if err != nil {
		return res, err
	}
	cl := p.Cluster
	probe := []byte("probe-message")
	count := 0
	p.PB.SetReceiveHandler(func(ev gm.RecvEvent) {
		if bytes.Equal(ev.Data, probe) {
			count++
		}
	})
	for i := 0; i < 8; i++ {
		if err := p.PB.ProvideReceiveBuffer(64, gm.PriorityLow); err != nil {
			return res, err
		}
	}
	// Warm the connection so the crash hits an established stream.
	if err := p.PA.Send(p.B.ID(), 2, gm.PriorityLow, []byte("warmup"), nil); err != nil {
		return res, err
	}
	cl.Run(2 * gm.Millisecond)

	// Hang the sender the moment the receiver emits the probe's ACK.
	acksBefore := p.B.MCPStats().AcksSent
	var watch func()
	watch = func() {
		if p.B.MCPStats().AcksSent > acksBefore {
			if !p.A.Hung() {
				p.A.InjectHang()
			}
			return
		}
		cl.After(100*gm.Nanosecond, watch)
	}
	cl.After(100*gm.Nanosecond, watch)
	if err := p.PA.Send(p.B.ID(), 2, gm.PriorityLow, probe, nil); err != nil {
		return res, err
	}
	cl.Run(5 * gm.Millisecond)
	if !p.A.Hung() {
		return res, fmt.Errorf("experiments: crash window missed")
	}

	if mode == gm.ModeGM {
		done := false
		p.A.NaiveRestart(func() { done = true })
		cl.Run(3 * gm.Second)
		if !done {
			return res, fmt.Errorf("experiments: naive restart incomplete")
		}
		cl.Run(2 * gm.Second)
	} else {
		cl.Run(8 * gm.Second) // transparent FTGM recovery
	}
	res.Deliveries = count
	res.Detail = "sender crashed with the probe's ACK in transit; pending send re-posted after recovery"
	return res, nil
}

// Figure6Result reports the head-of-line demonstration.
type Figure6Result struct {
	GMBlocked   bool // stock GM: port 2 starved behind port 1's stall
	FTGMBlocked bool // FTGM: must be false
}

// Figure6Scenario demonstrates the structural change of Figure 6: stock GM
// multiplexes every port's traffic to a remote node into one connection
// with one sequence space, so one port's undeliverable message (its
// destination port has no receive buffer) head-of-line blocks every other
// port's traffic to that node. FTGM's independent per-(port, destination)
// streams decouple them.
func Figure6Scenario() (Figure6Result, error) {
	var res Figure6Result
	check := func(mode gm.Mode) (blocked bool, err error) {
		p, err := NewPair(PairOptions{Mode: mode})
		if err != nil {
			return false, err
		}
		pa1, err := p.A.OpenPort(1)
		if err != nil {
			return false, err
		}
		pb1, err := p.B.OpenPort(1)
		if err != nil {
			return false, err
		}
		_ = pb1
		flowed := false
		p.PB.SetReceiveHandler(func(ev gm.RecvEvent) { flowed = true })
		// Only the PB port (2) has a buffer; port 1 on B has none.
		if err := p.PB.ProvideReceiveBuffer(64, gm.PriorityLow); err != nil {
			return false, err
		}
		if err := pa1.Send(p.B.ID(), 1, gm.PriorityLow, []byte("starved"), nil); err != nil {
			return false, err
		}
		if err := p.PA.Send(p.B.ID(), 2, gm.PriorityLow, []byte("flows"), nil); err != nil {
			return false, err
		}
		p.Cluster.Run(5 * gm.Millisecond)
		return !flowed, nil
	}
	var err error
	if res.GMBlocked, err = check(gm.ModeGM); err != nil {
		return res, err
	}
	if res.FTGMBlocked, err = check(gm.ModeFTGM); err != nil {
		return res, err
	}
	return res, nil
}

// Render describes the Figure 6 outcome.
func (r Figure6Result) Render() string {
	verdict := func(blocked bool) string {
		if blocked {
			return "port 2 BLOCKED behind port 1's stalled message"
		}
		return "port 2 flows independently"
	}
	return fmt.Sprintf(
		"Figure 6 (stream structure): one port's message stalls for want of a buffer while another port sends to the same node\n"+
			"  stock GM (single multiplexed connection): %s\n"+
			"  FTGM (independent per-(port,dest) streams): %s\n",
		verdict(r.GMBlocked), verdict(r.FTGMBlocked))
}

// Figure5Scenario reproduces the lost-message case: the receiver's LANai
// crashes after sending the ACK but before the DMA into the user buffer
// completes. Under stock GM the message is lost forever; under FTGM the
// delayed commit point turns the crash into a retransmission.
func Figure5Scenario(mode gm.Mode) (ScenarioResult, error) {
	res := ScenarioResult{Expected: 1}
	if mode == gm.ModeGM {
		res.Name = "Figure 5 scenario, stock GM + naive restart"
	} else {
		res.Name = "Figure 5 scenario, FTGM"
	}
	p, err := NewPair(PairOptions{Mode: mode})
	if err != nil {
		return res, err
	}
	cl := p.Cluster
	count := 0
	p.PB.SetReceiveHandler(func(ev gm.RecvEvent) { count++ })
	for i := 0; i < 4; i++ {
		if err := p.PB.ProvideReceiveBuffer(64, gm.PriorityLow); err != nil {
			return res, err
		}
	}
	ackSeen := false
	if err := p.PA.Send(p.B.ID(), 2, gm.PriorityLow, []byte("victim"), func(s gm.SendStatus) {
		ackSeen = s == gm.SendOK
	}); err != nil {
		return res, err
	}
	// Kill the receiver inside the ACK-sent / not-yet-committed window
	// (GM) or the equivalent pre-commit instant (FTGM).
	if mode == gm.ModeGM {
		var watch func()
		watch = func() {
			if p.B.MCPStats().AcksSent > 0 && count == 0 {
				if !p.B.Hung() {
					p.B.Driver().MCP().InjectHang()
				}
				return
			}
			if count == 0 {
				cl.After(100*gm.Nanosecond, watch)
			}
		}
		cl.After(100*gm.Nanosecond, watch)
	} else {
		cl.After(8*gm.Microsecond, func() {
			if count == 0 {
				p.B.InjectHang()
			}
		})
	}
	cl.Run(5 * gm.Millisecond)
	if !p.B.Hung() {
		return res, fmt.Errorf("experiments: crash window missed")
	}

	if mode == gm.ModeGM {
		done := false
		p.B.NaiveRestart(func() { done = true })
		cl.Run(3 * gm.Second)
		if !done {
			return res, fmt.Errorf("experiments: naive restart incomplete")
		}
		cl.Run(2 * gm.Second)
		res.Detail = fmt.Sprintf("sender saw ACK: %v; stock GM never retransmits an ACKed message", ackSeen)
	} else {
		cl.Run(10 * gm.Second)
		res.Detail = "no ACK left before the crash; sender retransmitted after recovery"
	}
	res.Deliveries = count
	return res, nil
}
