package gm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestHostFaultHangAcrossReadmission: the peer is expelled and readmitted
// while a NIC-hang recovery is still in its FAULT_DETECTED handler window.
// The readmission restarts both stream directions at sequence 1, so the
// handler must not re-post the sends issued before the expulsion with their
// old sequence numbers — the peer would refuse them forever and the stream
// would wedge. Those sends complete with SendErrorUnreachable, as FailPeer
// would have completed them; every send issued after the readmission is
// delivered exactly once and in order.
func TestHostFaultHangAcrossReadmission(t *testing.T) {
	const total = 400
	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	idxRecorder(pb, &got)
	for i := 0; i < 512; i++ {
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}

	status := make([]SendStatus, total) // zero: no completion yet
	sent, cut := 0, -1
	var tick func()
	tick = func() {
		i := sent
		if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(i), func(s SendStatus) { status[i] = s }); err != nil {
			t.Errorf("send %d: %v", i, err)
			return
		}
		if sent++; sent < total {
			a.Engine().After(20*Microsecond, tick)
		}
	}
	a.Engine().After(0, tick)
	a.FTD().OnRecovered = func(*core.Timeline) {
		a.setPeerUnreachable(b.ID())
		b.setPeerUnreachable(a.ID())
		a.resetPeer(b.ID())
		b.resetPeer(a.ID())
		cut = sent
	}
	cl.After(2*Millisecond, a.InjectHang)
	cl.Run(300 * Millisecond)

	if cut < 0 {
		t.Fatal("the hang was never recovered")
	}
	if sent != total {
		t.Fatalf("issued %d of %d sends", sent, total)
	}
	failed, pending := 0, 0
	for i, s := range status {
		switch {
		case s == 0:
			pending++
		case s == SendErrorUnreachable && i < cut:
			failed++
		case s != SendOK:
			t.Errorf("send %d completed with %v", i, s)
		}
	}
	if pending != 0 {
		t.Fatalf("%d of %d sends never completed (%d delivered, %d failed)", pending, total, len(got), failed)
	}
	if failed == 0 {
		t.Fatal("the readmission failed no pre-expulsion send")
	}
	last := -1
	for _, idx := range got {
		if idx <= last {
			t.Fatalf("index %d delivered after %d (duplicate or reorder)", idx, last)
		}
		last = idx
		if status[idx] != SendOK {
			t.Fatalf("index %d delivered but completed with %v", idx, status[idx])
		}
	}
	if len(got)+failed != total {
		t.Fatalf("delivered %d + failed %d != %d sent", len(got), failed, total)
	}
}

// TestHostFaultReviveWindowNotDrained: between the reattach hook and done a
// restored port's tokens are not yet re-posted, so the node is mid-recovery
// and must refuse to checkpoint.
func TestHostFaultReviveWindowNotDrained(t *testing.T) {
	cl, _, b := twoNodesCfg(t, hostFaultConfig())
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb.SetReceiveHandler(func(RecvEvent) {})
	for i := 0; i < 4; i++ {
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	drainNode(t, cl, b)
	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.Kill()

	var inWindow error
	reattached, done := false, false
	err = b.Restore(wireCheckpoint(t, ck), func(map[PortID]*Port) {
		reattached = true
		b.Engine().After(Microsecond, func() {
			if b.Drained() {
				t.Error("node drained inside the revive window")
			}
			_, inWindow = b.Checkpoint()
		})
	}, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, cl, func() bool { return done })
	if !reattached {
		t.Fatal("reattach never ran")
	}
	if !errors.Is(inWindow, ErrNotDrained) {
		t.Fatalf("checkpoint inside the revive window: %v, want ErrNotDrained", inWindow)
	}
	if !b.Drained() {
		t.Fatal("restored idle node not drained")
	}
}

// TestHostDeathRestoreTwoPortsHeldSends restores a two-port node whose
// checkpoint holds outstanding sends on both ports. Each restored port runs
// the FAULT_DETECTED handler in turn on the host CPU, priced on the
// checkpointed tokens, so done fires at the MCP load plus the sum of both
// ports' handler costs. Sends the reattach hook issues are held until their
// port's handler re-posts the shadow queue: the receiver gets them exactly
// once, after the restored ones, in sequence order.
func TestHostDeathRestoreTwoPortsHeldSends(t *testing.T) {
	const before, during = 3, 2
	cfg := hostFaultConfig()
	cl, a, b := twoNodesCfg(t, cfg)
	ids := []PortID{2, 3}
	got := make(map[PortID]*[]int)
	for _, id := range ids {
		pa, err := a.OpenPort(id)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = new([]int)
		idxRecorder(pa, got[id])
		pb, err := b.OpenPort(id)
		if err != nil {
			t.Fatal(err)
		}
		// No receive buffer on a yet: b's sends stay outstanding.
		for i := 0; i < before; i++ {
			if err := pb.Send(a.ID(), id, PriorityLow, idxPayload(i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	drainNode(t, cl, b)
	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range ck.Ports {
		if len(pc.SendTokens) != before {
			t.Fatalf("port %d checkpointed %d outstanding sends, want %d", pc.Port, len(pc.SendTokens), before)
		}
	}
	b.Kill()
	for _, id := range ids {
		for i := 0; i < 2*(before+during); i++ {
			if err := a.ports[id].ProvideReceiveBuffer(64, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.Run(Millisecond)

	start := b.Engine().Now()
	var doneAt Time
	err = b.Restore(wireCheckpoint(t, ck), func(ports map[PortID]*Port) {
		for _, id := range ids {
			for i := before; i < before+during; i++ {
				if err := ports[id].Send(a.ID(), id, PriorityLow, idxPayload(i), nil); err != nil {
					t.Errorf("reattach send %d on port %d: %v", i, id, err)
				}
			}
		}
	}, func() { doneAt = b.Engine().Now() })
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, cl, func() bool { return doneAt != 0 })
	h := cfg.Host
	perPort := h.RecoveryHandlerBase + Duration(before)*h.RecoveryPerToken +
		h.RecoverySeqUpload + h.RecoveryReopen
	if want := start + cfg.Driver.MCPLoadTime + 2*perPort; doneAt != want {
		t.Fatalf("restore done at %v, want %v (MCP load + two handlers)", doneAt, want)
	}
	cl.Run(100 * Millisecond)
	for _, id := range ids {
		wantExactlyOnceInOrder(t, fmt.Sprintf("b->a port %d", id), *got[id], before+during)
	}
}

// TestHostFaultHangInsideRevive: a NIC hang lands while a restored port is
// still in its revive handler, so the port has two handlers pending, one
// per caller. Each caller must complete when its own handlers finish: the
// revive's done, then the hang's Recovered.
func TestHostFaultHangInsideRevive(t *testing.T) {
	cfg := hostFaultConfig()
	cfg.Host.RecoveryHandlerBase = 50 * Millisecond
	cl, a, b := twoNodesCfg(t, cfg)
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	idxRecorder(pa, &got)
	for i := 0; i < 16; i++ {
		if err := pa.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(5 * Millisecond)
	drainNode(t, cl, b)
	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.Kill()

	var restoredAt, recoveredAt Time
	b.Recovered = func() { recoveredAt = b.Engine().Now() }
	err = b.Restore(wireCheckpoint(t, ck), func(ports map[PortID]*Port) {
		pb = ports[2]
		b.Engine().After(Millisecond, b.InjectHang)
	}, func() { restoredAt = b.Engine().Now() })
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, cl, func() bool { return restoredAt != 0 && recoveredAt != 0 })
	if recoveredAt <= restoredAt {
		t.Fatalf("hang recovered at %v, not after the revive's handler (done at %v)", recoveredAt, restoredAt)
	}
	for i := 4; i < 8; i++ {
		if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(50 * Millisecond)
	if !b.Drained() {
		t.Fatal("node not drained after both recoveries")
	}
	wantExactlyOnceInOrder(t, "b->a", got, 8)
}

// TestHostFaultRecvBuffersPostedOnce: every receive buffer reaches the MCP
// once across a recovery, whichever way the handler window is entered — a
// buffer provided while the handler runs, or a second hang that reloads the
// MCP under a pending handler. A buffer handed over twice would take two
// messages, the second overwriting the first.
func TestHostFaultRecvBuffersPostedOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		during func(b *Node, pb *Port)
	}{
		{"provide", func(_ *Node, pb *Port) { _ = pb.ProvideReceiveBuffer(64, PriorityLow) }},
		{"second hang", func(b *Node, _ *Port) { b.InjectHang() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hostFaultConfig()
			cfg.Host.RecoveryHandlerBase = 50 * Millisecond
			cl, a, b := twoNodesCfg(t, cfg)
			pa, err := a.OpenPort(2)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := b.OpenPort(2)
			if err != nil {
				t.Fatal(err)
			}
			uses := map[*byte]int{}
			pb.SetReceiveHandler(func(ev RecvEvent) { uses[&ev.Data[:1][0]]++ })
			for i := 0; i < 3; i++ {
				if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
					t.Fatal(err)
				}
			}
			cl.After(Millisecond, b.InjectHang)
			runUntil(t, cl, func() bool { return b.pendingRecoveries > 0 })
			cl.After(0, func() { tc.during(b, pb) })
			recovered := false
			b.Recovered = func() { recovered = true }
			runUntil(t, cl, func() bool { return recovered })
			for i := 0; i < 8; i++ {
				if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			cl.Run(100 * Millisecond)
			for _, n := range uses {
				if n > 1 {
					t.Fatalf("a receive buffer took %d messages", n)
				}
			}
			if len(uses) == 0 {
				t.Fatal("no message delivered")
			}
		})
	}
}
