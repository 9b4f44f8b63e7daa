package gm

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/gmproto"
)

// hostFaultConfig: FTGM with the fast recovery/restore timings the shard
// trials use, plus a send-token pool deep enough that traffic toward a dead
// host can keep queueing in the Go-Back-N window for the whole outage.
func hostFaultConfig() Config {
	cfg := fastRecoveryConfig(ModeFTGM, 1)
	cfg.Host.SendTokens = 1024
	return cfg
}

// idxPayload encodes a message index into a payload the receiver can audit.
func idxPayload(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, uint32(i))
	return b
}

func payloadIdx(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }

// idxRecorder attaches a receive handler that records payload indices in
// delivery order and recycles the buffers.
func idxRecorder(p *Port, got *[]int) {
	p.SetReceiveHandler(func(ev RecvEvent) {
		*got = append(*got, payloadIdx(ev.Data))
		_ = p.RecycleReceiveBuffer(ev.Data, PriorityLow)
	})
}

// wantExactlyOnceInOrder fails unless got is exactly 0..n-1 in order.
func wantExactlyOnceInOrder(t *testing.T, dir string, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: delivered %d of %d", dir, len(got), n)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("%s: position %d holds index %d (dup, loss or reorder)", dir, i, idx)
		}
	}
}

// drainNode steps the sim until the node reaches a message boundary.
func drainNode(t *testing.T, cl *Cluster, n *Node) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if n.Drained() {
			return
		}
		cl.Run(10 * Microsecond)
	}
	t.Fatalf("%s never drained", n.name)
}

// wireCheckpoint round-trips a checkpoint through the versioned wire codec,
// exactly as a standby host would receive it.
func wireCheckpoint(t *testing.T, c *ckpt.Checkpoint) *ckpt.Checkpoint {
	t.Helper()
	dec, err := ckpt.Decode(c.Encode())
	if err != nil {
		t.Fatalf("checkpoint wire round-trip: %v", err)
	}
	return dec
}

// TestHostFaultGuards covers the drain/checkpoint/revive error surface:
// checkpointing an undrained or dead node, reviving a live one, and
// restoring a checkpoint onto the wrong slot.
func TestHostFaultGuards(t *testing.T) {
	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb.SetReceiveHandler(func(ev RecvEvent) {})
	if err := pb.ProvideReceiveBuffer(4096, PriorityLow); err != nil {
		t.Fatal(err)
	}
	cl.Run(Millisecond)
	if !a.Drained() || !b.Drained() {
		t.Fatal("idle booted nodes must be drained")
	}

	if err := pa.Send(b.ID(), 2, PriorityLow, []byte("in flight"), nil); err != nil {
		t.Fatal(err)
	}
	if a.Drained() {
		t.Fatal("node with a deferred send post reports drained")
	}
	if _, err := a.Checkpoint(); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("undrained checkpoint: %v, want ErrNotDrained", err)
	}
	cl.Run(5 * Millisecond)
	if !a.Drained() || !b.Drained() {
		t.Fatal("nodes must drain once traffic settles")
	}

	ckA, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ckB, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckA.UID == ckB.UID || ckB.NodeID != b.ID() {
		t.Fatalf("checkpoint identities: a=%d b=%d/%d", ckA.UID, ckB.UID, ckB.NodeID)
	}
	if len(ckB.RxAcks) == 0 || len(ckB.Ports) != 1 || len(ckB.Ports[0].RecvTokens) != 0 {
		t.Fatalf("checkpoint shape: %+v", ckB)
	}

	if err := a.Restore(ckA, nil, nil); !errors.Is(err, ErrNodeAlive) {
		t.Fatalf("restore of live node: %v, want ErrNodeAlive", err)
	}
	b.Kill()
	b.Kill() // idempotent
	if !b.Dead() {
		t.Fatal("killed node not dead")
	}
	if _, err := b.Checkpoint(); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("checkpoint of dead node: %v, want ErrNodeDead", err)
	}
	if _, err := b.OpenPort(3); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("open port on dead node: %v, want ErrNodeDead", err)
	}
	if err := b.Restore(ckA, nil, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("restore with foreign checkpoint: %v, want ErrCheckpointMismatch", err)
	}
	if err := b.Restore(nil, nil, nil); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("restore with nil checkpoint: %v, want ErrCheckpointMismatch", err)
	}

	done := false
	if err := b.Restore(wireCheckpoint(t, ckB), nil, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	cl.Run(50 * Millisecond)
	if !done || b.Dead() {
		t.Fatal("restore did not complete")
	}
}

// TestHostDeathRestoreMidBurst kills a host mid-burst with bidirectional
// traffic in flight, checkpoints at the drain boundary through the wire
// codec, restores, and requires exactly-once in-order delivery in both
// directions: the victim's unacknowledged receives are retransmitted by the
// peer's Go-Back-N window, the victim's own unacknowledged sends are
// re-posted from the checkpoint with their original sequence numbers, and
// the peer's receive ACK table dedups whatever the fault window already
// delivered.
func TestHostDeathRestoreMidBurst(t *testing.T) {
	const total = 60
	const killAt = 25

	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var atB, atA []int
	idxRecorder(pb, &atB)
	idxRecorder(pa, &atA)
	for i := 0; i < 64; i++ {
		if err := pa.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}

	sentA, sentB := 0, 0
	bUp := true
	step := func() {
		if sentA < total {
			if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(sentA), nil); err != nil {
				t.Fatalf("a send %d: %v", sentA, err)
			}
			sentA++
		}
		if sentB < total && bUp {
			if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(sentB), nil); err != nil {
				t.Fatalf("b send %d: %v", sentB, err)
			}
			sentB++
		}
		cl.Run(50 * Microsecond)
	}

	for sentA < killAt {
		step()
	}

	// Drain protocol: quiesce at a message boundary, snapshot, kill — the
	// checkpoint and the death share the same instant.
	drainNode(t, cl, b)
	ckB, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.Kill()
	bUp = false

	// Traffic keeps flowing into the dead slot; the sender's Go-Back-N
	// window holds it.
	deliveredAtKill := len(atB)
	for i := 0; i < 10; i++ {
		step()
	}
	if len(atB) != deliveredAtKill {
		t.Fatal("dead host delivered messages")
	}

	restored := false
	err = b.Restore(wireCheckpoint(t, ckB), func(ports map[PortID]*Port) {
		np, ok := ports[2]
		if !ok {
			t.Error("restore did not rebuild port 2")
			return
		}
		pb = np
		idxRecorder(pb, &atB)
	}, func() { restored, bUp = true, true })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000 && !restored; i++ {
		step()
	}
	if !restored {
		t.Fatal("restore never completed")
	}
	for sentA < total || sentB < total {
		step()
	}
	cl.Run(200 * Millisecond)

	wantExactlyOnceInOrder(t, "a->b", atB, total)
	wantExactlyOnceInOrder(t, "b->a", atA, total)
}

// TestHostDeathRestorePollingPort: on a polling-mode port the last hop to
// the application is the receive queue the process drains with Receive(),
// so a committed-and-ACKed event sitting there must hold off the drain
// verdict — a checkpoint cut above a non-empty poll queue would record the
// seqs in its RxAck table and dup-drop the peer's retransmissions after the
// restore, losing the messages forever. The test then kills and restores
// the polling port mid-burst and audits exactly-once in-order delivery.
func TestHostDeathRestorePollingPort(t *testing.T) {
	const before = 10
	const after = 10

	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb.EnablePolling()
	for i := 0; i < 64; i++ {
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}

	var atB []int
	poll := func() {
		for {
			ev, ok := pb.Receive()
			if !ok {
				return
			}
			if ev.Type == EvReceived {
				atB = append(atB, payloadIdx(ev.Data))
				_ = pb.RecycleReceiveBuffer(ev.Data, PriorityLow)
			} else {
				pb.UnknownEvent(ev)
			}
		}
	}

	for i := 0; i < before; i++ {
		if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(10 * Millisecond)
	if pb.Pending() == 0 {
		t.Fatal("no events queued on the polling port")
	}
	// Committed, ACKed, undelivered: the node must not report drained and
	// must refuse to checkpoint until the application polls the queue dry.
	if b.Drained() {
		t.Fatal("node drained with events in the poll queue")
	}
	if _, err := b.Checkpoint(); !errors.Is(err, ErrNotDrained) {
		t.Fatalf("checkpoint above a poll queue: %v, want ErrNotDrained", err)
	}
	poll()
	drainNode(t, cl, b)

	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.Kill()

	// Traffic toward the dead slot waits in the sender's Go-Back-N window.
	for i := before; i < before+after; i++ {
		if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(2 * Millisecond)

	restored := false
	err = b.Restore(wireCheckpoint(t, ck), func(ports map[PortID]*Port) {
		np, ok := ports[2]
		if !ok {
			t.Error("restore did not rebuild port 2")
			return
		}
		pb = np
		pb.EnablePolling() // polling is process state; the replacement re-arms it
	}, func() { restored = true })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		cl.Run(100 * Microsecond)
		if restored {
			poll()
		}
	}
	if !restored {
		t.Fatal("restore never completed")
	}
	wantExactlyOnceInOrder(t, "a->b", atB, before+after)
}

// TestRestoreSendCompletionReArm: completion callbacks are closures and do
// not survive host death; the reattach hook re-arms them for the
// checkpointed outstanding sends via OutstandingSendIDs/SetSendCompletion,
// and the re-posted send then completes through the fresh callback.
func TestRestoreSendCompletionReArm(t *testing.T) {
	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pa.SetReceiveHandler(func(ev RecvEvent) {})

	// No receive buffer on a: b's send stays unacknowledged (NACKed and
	// retried), so it is deterministically outstanding at the checkpoint.
	preDeath := false
	if err := pb.Send(a.ID(), 2, PriorityLow, []byte("paced"), func(SendStatus) { preDeath = true }); err != nil {
		t.Fatal(err)
	}
	drainNode(t, cl, b)
	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Ports) != 1 || len(ck.Ports[0].SendTokens) != 1 {
		t.Fatalf("checkpoint outstanding sends: %+v", ck.Ports)
	}
	b.Kill()

	completed := make(map[uint64]SendStatus)
	err = b.Restore(wireCheckpoint(t, ck), func(ports map[PortID]*Port) {
		np, ok := ports[2]
		if !ok {
			t.Error("restore did not rebuild port 2")
			return
		}
		pb = np
		ids := np.OutstandingSendIDs()
		if len(ids) != 1 {
			t.Errorf("OutstandingSendIDs = %v, want one id", ids)
			return
		}
		for _, id := range ids {
			id := id
			if err := np.SetSendCompletion(id, func(s SendStatus) { completed[id] = s }); err != nil {
				t.Errorf("SetSendCompletion(%d): %v", id, err)
			}
		}
		if err := np.SetSendCompletion(999999, func(SendStatus) {}); !errors.Is(err, ErrBadArgument) {
			t.Errorf("SetSendCompletion on unknown token: %v, want ErrBadArgument", err)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(20 * Millisecond)
	if err := pa.ProvideReceiveBuffer(64, PriorityLow); err != nil {
		t.Fatal(err)
	}
	cl.Run(50 * Millisecond)
	if preDeath {
		t.Fatal("pre-death callback closure fired across the host death")
	}
	if len(completed) != 1 {
		t.Fatalf("re-armed completions fired = %d, want 1", len(completed))
	}
	for _, s := range completed {
		if s != SendOK {
			t.Fatalf("re-armed completion status = %v", s)
		}
	}
	if pb.SendTokensAvailable() != hostFaultConfig().Host.SendTokens {
		t.Fatalf("send token not returned: %d", pb.SendTokensAvailable())
	}
}

// TestHostDeathRejoinAfterExpulsion: the host dies, stays down long enough
// that the peer expels it (streams forgotten, routes dropped), then rejoins
// from its checkpoint. Identity and port shape come back; protocol state
// restarts at sequence 1 on both sides, and the victim's checkpointed
// outstanding sends are disowned rather than replayed into reset streams.
func TestHostDeathRejoinAfterExpulsion(t *testing.T) {
	const before = 20
	const after = 20

	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var atB, atA []int
	idxRecorder(pb, &atB)
	idxRecorder(pa, &atA)
	for i := 0; i < 64; i++ {
		if err := pa.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < before; i++ {
		if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatal(err)
		}
		if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatal(err)
		}
		cl.Run(50 * Microsecond)
	}
	drainNode(t, cl, b)

	// One more burst from b that will still be unacknowledged at the kill:
	// these are the checkpointed outstanding sends Rejoin must disown.
	if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(before), nil); err != nil {
		t.Fatal(err)
	}
	drainNode(t, cl, b)
	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.Kill()

	// The control plane declares b dead and expels it: the peer marks it
	// unreachable and, on readmission, forgets both stream directions
	// (gossip Alive hook / central readmitNode both funnel into resetPeer).
	a.setPeerUnreachable(b.ID())
	cl.Run(20 * Millisecond)
	if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(0), nil); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("send to expelled peer: %v, want ErrPeerUnreachable", err)
	}

	rejoined := false
	err = b.Rejoin(wireCheckpoint(t, ck), func(ports map[PortID]*Port) {
		np, ok := ports[2]
		if !ok {
			t.Error("rejoin did not rebuild port 2")
			return
		}
		pb = np
		idxRecorder(pb, &atB)
	}, func() { rejoined = true })
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(100 * Millisecond)
	if !rejoined || b.Dead() {
		t.Fatal("rejoin did not complete")
	}
	a.resetPeer(b.ID())

	// Fresh epoch: both directions must flow again from restarted streams.
	for i := 0; i < after; i++ {
		if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(1000+i), nil); err != nil {
			t.Fatalf("post-rejoin a send %d: %v", i, err)
		}
		if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(1000+i), nil); err != nil {
			t.Fatalf("post-rejoin b send %d: %v", i, err)
		}
		cl.Run(50 * Microsecond)
	}
	cl.Run(200 * Millisecond)

	if len(atB) != before+after {
		t.Fatalf("a->b delivered %d, want %d", len(atB), before+after)
	}
	for i, idx := range atB {
		want := i
		if i >= before {
			want = 1000 + i - before
		}
		if idx != want {
			t.Fatalf("a->b position %d holds %d, want %d", i, idx, want)
		}
	}
	// b->a: the pre-kill burst delivered 0..before-1; the extra in-flight
	// message `before` was disowned by Rejoin (its sender is excused by
	// death), and the fresh epoch delivers 1000..1000+after-1 exactly once.
	if len(atA) < before+after || len(atA) > before+1+after {
		t.Fatalf("b->a delivered %d", len(atA))
	}
	tail := atA[len(atA)-after:]
	for i, idx := range tail {
		if idx != 1000+i {
			t.Fatalf("b->a fresh epoch position %d holds %d", i, idx)
		}
	}
	seen := map[int]bool{}
	for _, idx := range atA {
		if seen[idx] {
			t.Fatalf("b->a duplicate delivery of %d", idx)
		}
		seen[idx] = true
	}
}

// TestHostFaultKillHaltsFTD: a host that dies mid-FTD-recovery takes the
// daemon with it. The node is hung, then killed after the FTD's MCP reload
// but before FAULT_DETECTED is posted, then restored: the dead FTD must not
// resume its §4.3 sequence and reload the MCP under the revived host, and
// delivery stays exactly-once and in order.
func TestHostFaultKillHaltsFTD(t *testing.T) {
	const total = 40
	const before = 15

	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var atB []int
	idxRecorder(pb, &atB)
	for i := 0; i < 64; i++ {
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	sent := 0
	send := func() {
		if sent < total {
			if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(sent), nil); err != nil {
				t.Fatalf("send %d: %v", sent, err)
			}
			sent++
		}
		cl.Run(50 * Microsecond)
	}
	for sent < before {
		send()
	}

	// Checkpoint and hang at one drained instant: nothing commits between
	// the anchor and the fault.
	drainNode(t, cl, b)
	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.InjectHang()
	ftd := b.FTD()
	for i := 0; ; i++ {
		if _, ok := ftd.Timeline().At(core.PhaseMCPReloaded); ok {
			break
		}
		if i == 100000 {
			t.Fatal("FTD never reloaded the MCP")
		}
		if b.Drained() && ftd.Busy() {
			t.Fatal("node reads drained while its FTD is mid-recovery")
		}
		send()
	}
	if _, ok := ftd.Timeline().At(core.PhaseEventsPosted); ok {
		t.Fatal("FAULT_DETECTED already posted; the kill must land before it")
	}
	b.Kill()
	if ftd.Busy() {
		t.Fatal("Kill left the FTD mid-recovery")
	}
	for i := 0; i < 10; i++ {
		send()
	}

	restored := false
	err = b.Restore(wireCheckpoint(t, ck), func(ports map[PortID]*Port) {
		pb = ports[2]
		idxRecorder(pb, &atB)
	}, func() { restored = true })
	if err != nil {
		t.Fatal(err)
	}
	reviveLoads := b.Driver().Stats().MCPLoads // the revive's own load included
	for i := 0; i < 4000 && !restored; i++ {
		send()
	}
	if !restored {
		t.Fatal("restore never completed")
	}
	for sent < total {
		send()
	}
	cl.Run(2 * Second)

	if loads := b.Driver().Stats().MCPLoads; loads != reviveLoads {
		t.Fatalf("%d MCP loads after the revive's own load: the killed host's FTD reloaded under the restored node",
			loads-reviveLoads)
	}
	if _, ok := ftd.Timeline().At(core.PhaseEventsPosted); ok {
		t.Fatal("the killed host's FTD posted FAULT_DETECTED into the restored node")
	}
	wantExactlyOnceInOrder(t, "a->b", atB, total)
}

// TestHostFaultKillDuringReviveLoad: a host killed while its revive is still
// loading the MCP takes the load with it. The load's completion must not
// start the dead host's card, or peers would see a live interface behind a
// dead host.
func TestHostFaultKillDuringReviveLoad(t *testing.T) {
	cfg := hostFaultConfig()
	cl, _, b := twoNodesCfg(t, cfg)
	if _, err := b.OpenPort(2); err != nil {
		t.Fatal(err)
	}
	drainNode(t, cl, b)
	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.Kill()
	cl.Run(Millisecond)
	restored := false
	if err := b.Restore(wireCheckpoint(t, ck), nil, func() { restored = true }); err != nil {
		t.Fatal(err)
	}
	cl.Run(cfg.Driver.MCPLoadTime / 4)
	if b.Running() {
		t.Fatal("card running before the revive's MCP load finished")
	}
	b.Kill()
	cl.Run(10 * Millisecond)
	if !b.Dead() || b.Running() || restored {
		t.Fatalf("after a kill mid-load: Dead()=%v, Running()=%v, restore done=%v; want a dead host with a stopped card",
			b.Dead(), b.Running(), restored)
	}
}

// TestHostFaultRestoreRejects: Restore and Rejoin validate the checkpoint
// before changing any state. A checkpoint they could not reinstate — a port
// id out of range, repeated or unsorted ports, more outstanding sends than
// the token pool, a repeated region id — fails with ErrBadArgument, and the
// node stays dead and restorable from a good checkpoint.
func TestHostFaultRestoreRejects(t *testing.T) {
	cfg := hostFaultConfig()
	cl, _, b := twoNodesCfg(t, cfg)
	for _, id := range []PortID{2, 4} {
		p, err := b.OpenPort(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RegisterMemory(256); err != nil {
			t.Fatal(err)
		}
	}
	drainNode(t, cl, b)
	ck, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	good := ck.Encode()
	b.Kill()

	cases := []struct {
		name   string
		mutate func(c *ckpt.Checkpoint)
	}{
		{"port out of range", func(c *ckpt.Checkpoint) { c.Ports[1].Port = MaxPorts }},
		{"duplicate port", func(c *ckpt.Checkpoint) { c.Ports[1].Port = c.Ports[0].Port }},
		{"unsorted ports", func(c *ckpt.Checkpoint) { c.Ports[0], c.Ports[1] = c.Ports[1], c.Ports[0] }},
		{"sends beyond the token pool", func(c *ckpt.Checkpoint) {
			c.Ports[0].SendTokens = make([]gmproto.SendToken, cfg.Host.SendTokens+1)
		}},
		{"duplicate region", func(c *ckpt.Checkpoint) {
			c.Ports[0].Regions = append(c.Ports[0].Regions, c.Ports[0].Regions[0])
		}},
	}
	revives := []struct {
		name string
		fn   func(*ckpt.Checkpoint, func(map[PortID]*Port), func()) error
	}{{"Restore", b.Restore}, {"Rejoin", b.Rejoin}}
	for _, tc := range cases {
		for _, rv := range revives {
			c, err := ckpt.Decode(good)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(c)
			if err := rv.fn(c, nil, nil); !errors.Is(err, ErrBadArgument) {
				t.Errorf("%s with %s: %v, want ErrBadArgument", rv.name, tc.name, err)
			}
			if !b.Dead() {
				t.Fatalf("%s with %s revived the node", rv.name, tc.name)
			}
		}
	}
	cl.Run(10 * Millisecond)

	done := false
	if err := b.Restore(wireCheckpoint(t, ck), nil, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	runUntil(t, cl, func() bool { return done })
	if b.Dead() || len(b.ports) != 2 {
		t.Fatalf("restore after the rejected attempts: dead=%v ports=%d", b.Dead(), len(b.ports))
	}
}
