package gm

import (
	"testing"

	"repro/internal/fabric"
)

// DATA packets reference the sender's pinned buffer instead of copying it
// (DESIGN.md §11), so a packet must never be read after the buffer's send
// callback has handed the memory back. The fault suites allocate a fresh
// buffer per message and could not see such a read; this trial makes every
// callback wipe its buffer the moment it fires, then drives the faults that
// keep packets in flight around a completion, on a two-shard cluster:
//
//   - a cable that drops and corrupts packets (Go-Back-N retransmits, and
//     copy-on-corrupt on referenced bodies);
//   - a processor hang repaired by FTGM recovery;
//   - a peer cut off, expelled (FailPeer: every pending send toward it
//     completes with an error) and readmitted (ResetPeerStreams);
//   - host death and restore from a checkpoint.
//
// Any fragment read after its callback delivers wiped bytes, which the
// receivers count as corrupt. Every message must arrive intact, exactly
// once and in order, except sends the expulsion failed.
func TestSendBufferReuseAfterCallback(t *testing.T) {
	const (
		msgLen = 2*4096 + 500 // three fragments
		every  = 40 * Microsecond
		bufs   = 32
	)
	cfg := fastRecoveryConfig(ModeFTGM, 2)
	c := NewCluster(cfg)
	topo, err := BuildClos(c, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Boot(c); err != nil {
		t.Fatal(err)
	}
	nodes := topo.Nodes
	n := len(nodes)

	// Node i streams to node i+1. Each side's bookkeeping is touched only
	// from its own node's domain (sends and callbacks on the sender,
	// deliveries on the receiver) and read by the test between runs.
	type sender struct {
		port   *Port
		next   int          // index of the next message
		failed map[int]bool // indices whose callback reported an error
		paused bool
	}
	type receiver struct {
		got     []int
		corrupt int
	}
	snd := make([]*sender, n)
	rcv := make([]*receiver, n)
	attach := func(i int, p *Port) {
		r := rcv[i]
		src := nodes[(i+n-1)%n].ID()
		p.SetReceiveHandler(func(ev RecvEvent) {
			if idx, ok := checkMessage(ev.Data, src); ok && ev.Src == src {
				r.got = append(r.got, idx)
			} else {
				r.corrupt++
			}
			_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
		})
	}
	for i, node := range nodes {
		p, err := node.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		snd[i] = &sender{port: p, failed: map[int]bool{}}
		rcv[i] = &receiver{}
		attach(i, p)
		for j := 0; j < bufs; j++ {
			if err := p.ProvideReceiveBuffer(msgLen, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, node := range nodes {
		s, eng, dst := snd[i], node.Engine(), nodes[(i+1)%n]
		var tick func()
		tick = func() {
			if !s.paused {
				buf := makeMessage(msgLen, node.ID(), s.next)
				idx := s.next
				err := s.port.Send(dst.ID(), 2, PriorityLow, buf, func(st SendStatus) {
					if st != SendOK {
						s.failed[idx] = true
					}
					for k := range buf {
						buf[k] = 0xFF
					}
				})
				if err == nil {
					s.next++
				}
			}
			eng.After(every, tick)
		}
		eng.After(Duration(i+1)*Microsecond, tick)
	}

	// Node 2's processor hangs while node 3 is cut off, expelled (every
	// pending send toward it and from it fails) and readmitted: node 2's
	// FTGM recovery finishes after the readmission reset its stream toward
	// node 3. A lossy, corrupting cable on node 1 runs meanwhile. The host
	// restore still comes last: a host restored from a checkpoint taken
	// before a peer's readmission comes back with the old receive stream
	// (see ROADMAP.md).
	lossy := nodes[1].Link()
	lossy.SetFaults(fabric.FaultProfile{DropProb: 0.02, CorruptProb: 0.02}, 11)
	recovered := 0
	nodes[2].Recovered = func() { recovered++ }
	c.After(3*Millisecond, func() { nodes[2].InjectHang() })
	x := nodes[3]
	c.After(3*Millisecond, func() { x.Link().SetUp(false) })
	c.After(5*Millisecond, func() {
		for _, m := range nodes {
			if m != x {
				m.setPeerUnreachable(x.ID())
				x.setPeerUnreachable(m.ID())
			}
		}
	})
	c.After(6*Millisecond, func() { x.Link().SetUp(true) })
	c.After(7*Millisecond, func() {
		for _, m := range nodes {
			if m != x {
				m.resetPeer(x.ID())
				x.resetPeer(m.ID())
			}
		}
	})
	runUntil(t, c, func() bool { return recovered > 0 })
	c.After(0, func() { lossy.SetFaults(fabric.FaultProfile{}, 0) })
	c.Run(4 * Millisecond)

	// Host death and restore of node 0 at a drained instant.
	for _, s := range snd {
		s.paused = true
	}
	victim := nodes[0]
	drainNode(t, c, victim)
	ck, err := victim.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	victim.Kill()
	for _, s := range snd[1:] {
		s.paused = false
	}
	c.Run(2 * Millisecond)
	restored := false
	err = victim.Restore(wireCheckpoint(t, ck), func(ports map[PortID]*Port) {
		snd[0].port = ports[2]
		attach(0, ports[2])
	}, func() { restored, snd[0].paused = true, false })
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, c, func() bool { return restored })
	c.Run(4 * Millisecond)
	for _, s := range snd {
		s.paused = true
	}
	c.Run(300 * Millisecond)
	c.Shutdown(Millisecond)

	if st := lossy.Stats(0); st.Corrupted+lossy.Stats(1).Corrupted == 0 {
		t.Fatal("the corrupting cable damaged nothing")
	}
	failed := 0
	for i := range nodes {
		s, r := snd[i], rcv[(i+1)%n]
		failed += len(s.failed)
		if r.corrupt != 0 {
			t.Errorf("stream %d->%d: %d deliveries arrived damaged", i, (i+1)%n, r.corrupt)
		}
		seen := make(map[int]bool, len(r.got))
		last := -1
		for _, idx := range r.got {
			if idx <= last {
				t.Errorf("stream %d->%d: index %d after %d (duplicate or reorder)", i, (i+1)%n, idx, last)
			}
			last = idx
			seen[idx] = true
		}
		lost := 0
		for idx := 0; idx < s.next; idx++ {
			if !seen[idx] && !s.failed[idx] {
				lost++
			}
		}
		if lost != 0 {
			t.Errorf("stream %d->%d: %d of %d messages lost", i, (i+1)%n, lost, s.next)
		}
	}
	if failed == 0 {
		t.Error("the expulsion failed no send: its error completions went unexercised")
	}
}

// runUntil advances the cluster in 1 ms steps until done holds.
func runUntil(t *testing.T, c *Cluster, done func() bool) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if done() {
			return
		}
		c.Run(Millisecond)
	}
	t.Fatal("condition never reached")
}

// makeMessage fills a message whose every byte is a function of its source
// and index, so any overwritten byte fails checkMessage.
func makeMessage(size int, src NodeID, idx int) []byte {
	b := make([]byte, size)
	b[0], b[1] = byte(src), byte(src>>8)
	b[2], b[3], b[4], b[5] = byte(idx), byte(idx>>8), byte(idx>>16), byte(idx>>24)
	for k := 6; k < size; k++ {
		b[k] = messageByte(src, idx, k)
	}
	return b
}

func messageByte(src NodeID, idx, k int) byte { return byte(int(src)*131 + idx*31 + k*7) }

// checkMessage returns the message index, or false if any byte differs
// from what makeMessage wrote for src.
func checkMessage(b []byte, src NodeID) (int, bool) {
	if len(b) < 6 || NodeID(b[0])|NodeID(b[1])<<8 != src {
		return 0, false
	}
	idx := int(b[2]) | int(b[3])<<8 | int(b[4])<<16 | int(b[5])<<24
	for k := 6; k < len(b); k++ {
		if b[k] != messageByte(src, idx, k) {
			return 0, false
		}
	}
	return idx, true
}
