package gm

import (
	"bytes"
	"testing"

	"repro/internal/gmproto"
)

func TestPollingReceive(t *testing.T) {
	cl, a, b := twoNodes(t, ModeFTGM)
	pa, _ := a.OpenPort(1)
	pb, _ := b.OpenPort(1)
	pb.EnablePolling()
	if !pb.polling {
		t.Fatal("polling = false")
	}
	if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(b.ID(), 1, PriorityLow, []byte("polled"), nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(2 * Millisecond)
	if pb.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", pb.Pending())
	}
	ev, ok := pb.Receive()
	if !ok || ev.Type != gmproto.EvReceived {
		t.Fatalf("Receive = %+v, %v", ev, ok)
	}
	if !bytes.Equal(ev.Data, []byte("polled")) {
		t.Errorf("data = %q", ev.Data)
	}
	if _, ok := pb.Receive(); ok {
		t.Error("empty queue returned an event")
	}
}

func TestPollingReceiveOnCallbackPortEmpty(t *testing.T) {
	cl, a, b := twoNodes(t, ModeFTGM)
	pa, _ := a.OpenPort(1)
	pb, _ := b.OpenPort(1)
	pb.SetReceiveHandler(func(ev RecvEvent) {})
	if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(b.ID(), 1, PriorityLow, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(2 * Millisecond)
	if _, ok := pb.Receive(); ok {
		t.Error("Receive returned events on a handler-mode port")
	}
}

func TestPollingFigure3ControlFlow(t *testing.T) {
	// The paper's Figure 3 loop, verbatim: poll, handle RECEIVED, pass
	// everything else to Unknown — and fault recovery rides the Unknown
	// path without the application knowing.
	cfg := DefaultConfig(ModeFTGM)
	cfg.Host.SendTokens = 512
	cl, a, b := twoNodesCfg(t, cfg)
	pa, _ := a.OpenPort(1)
	pb, _ := b.OpenPort(1)
	pa.EnablePolling() // the *sender* polls; FAULT_DETECTED arrives there
	var delivered [][]byte
	pb.SetReceiveHandler(func(ev RecvEvent) {
		delivered = append(delivered, append([]byte(nil), ev.Data...))
		_ = pb.ProvideReceiveBuffer(64, PriorityLow)
	})
	for i := 0; i < 16; i++ {
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}

	// The application: a classic GM main loop, polling every 100 µs.
	var loop func()
	loop = func() {
		for {
			ev, ok := pa.Receive()
			if !ok {
				break
			}
			switch ev.Type {
			case gmproto.EvReceived:
				// not expected on this side
			default:
				pa.UnknownEvent(ev) // gm_unknown()
			}
		}
		cl.After(100*Microsecond, loop)
	}
	loop()

	const total = 30
	sent := 0
	var pump func()
	pump = func() {
		if sent >= total {
			return
		}
		sent++
		if err := pa.Send(b.ID(), 1, PriorityLow, []byte{byte(sent)}, nil); err != nil {
			t.Fatal(err)
		}
		cl.After(200*Microsecond, pump)
	}
	pump()
	cl.After(2*Millisecond, func() { a.InjectHang() })
	cl.Run(15 * Second)

	if len(delivered) != total {
		t.Fatalf("delivered %d/%d through the polled recovery", len(delivered), total)
	}
	if pa.Stats().Recoveries != 1 {
		t.Errorf("recoveries = %d", pa.Stats().Recoveries)
	}
}

func TestPollingRecoveryWaitsForPoll(t *testing.T) {
	// In polling mode, FAULT_DETECTED sits in the queue until the process
	// polls: recovery genuinely requires the application's cooperation
	// (§4.4), even though it never has to understand the event.
	cl, a, _ := twoNodes(t, ModeFTGM)
	pa, _ := a.OpenPort(1)
	pa.EnablePolling()
	a.InjectHang()
	cl.Run(5 * Second) // detection + FTD finish; the event waits
	if pa.Pending() != 1 {
		t.Fatalf("Pending = %d, want the queued FAULT_DETECTED", pa.Pending())
	}
	if pa.Stats().Recoveries != 0 {
		t.Fatal("recovery ran before the application polled")
	}
	ev, ok := pa.Receive()
	if !ok || ev.Type != gmproto.EvFaultDetected {
		t.Fatalf("ev = %+v", ev)
	}
	pa.UnknownEvent(ev)
	cl.Run(3 * Second)
	if pa.Stats().Recoveries != 1 {
		t.Fatal("Unknown did not run the recovery")
	}
}

func TestPollingAlarm(t *testing.T) {
	cl, a, _ := twoNodes(t, ModeFTGM)
	pa, _ := a.OpenPort(1)
	pa.EnablePolling()
	pa.SetAlarm(cl.Now() + 2*Millisecond)
	cl.Run(5 * Millisecond)
	ev, ok := pa.Receive()
	if !ok || ev.Type != gmproto.EvAlarm {
		t.Fatalf("ev = %+v, ok = %v", ev, ok)
	}
	// Alarms are app events; Unknown must also accept them harmlessly.
	pa.UnknownEvent(ev)
}
