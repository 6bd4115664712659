package transport

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"allpairs/internal/simnet"
	"allpairs/internal/wire"
)

func TestSimEnvSendReceive(t *testing.T) {
	nw := simnet.New(2, 1)
	nw.SetLatency(0, 1, 10*time.Millisecond)
	reg := NewRegistry()
	a := NewSimEnv(nw, reg, 0, 1)
	b := NewSimEnv(nw, reg, 1, 2)
	a.SetLocalID(10)
	b.SetLocalID(20)

	var gotFrom wire.NodeID
	var gotType wire.MsgType
	b.Bind(func(from wire.NodeID, payload []byte) {
		gotFrom = from
		gotType = wire.PeekType(payload)
	})
	a.Send(20, wire.AppendProbe(nil, a.LocalID(), wire.Probe{Seq: 1}))
	nw.RunFor(time.Second)
	if gotFrom != 10 || gotType != wire.TProbe {
		t.Errorf("from=%d type=%v", gotFrom, gotType)
	}
}

func TestSimEnvUnknownDestinationDropped(t *testing.T) {
	nw := simnet.New(1, 1)
	reg := NewRegistry()
	a := NewSimEnv(nw, reg, 0, 1)
	a.SetLocalID(1)
	a.Send(99, wire.AppendHeartbeat(nil, 1)) // must not panic
	nw.RunFor(time.Millisecond)
}

func TestSimEnvMalformedPacketIgnored(t *testing.T) {
	nw := simnet.New(2, 1)
	reg := NewRegistry()
	a := NewSimEnv(nw, reg, 0, 1)
	b := NewSimEnv(nw, reg, 1, 2)
	a.SetLocalID(1)
	b.SetLocalID(2)
	called := false
	b.Bind(func(wire.NodeID, []byte) { called = true })
	nw.Send(0, 1, []byte{0xFF}) // bogus bytes straight onto the wire
	nw.RunFor(time.Millisecond)
	if called {
		t.Error("handler ran for malformed packet")
	}
}

// datagram returns a heartbeat padded to size bytes: a parseable header, so a
// delivered copy reaches the handler.
func datagram(src wire.NodeID, size int) []byte {
	b := wire.AppendHeartbeat(nil, src)
	return append(b, make([]byte, size-len(b))...)
}

// filled returns a size-byte datagram from src whose bytes past the header
// all read fill.
func filled(src wire.NodeID, size int, fill byte) []byte {
	b := datagram(src, size)
	for i := wire.HeaderLen; i < len(b); i++ {
		b[i] = fill
	}
	return b
}

// TestSimEnvKeptPayloadUnchanged: a handler keeps a delivered payload without
// copying it, more traffic passes through the same endpoints, and the kept
// bytes still read as sent (transport.Handler's contract).
func TestSimEnvKeptPayloadUnchanged(t *testing.T) {
	nw := simnet.New(2, 1)
	nw.SetLatency(0, 1, 10*time.Millisecond)
	reg := NewRegistry()
	a := NewSimEnv(nw, reg, 0, 1)
	b := NewSimEnv(nw, reg, 1, 2)
	a.SetLocalID(1)
	b.SetLocalID(2)
	var kept [][]byte
	b.Bind(func(_ wire.NodeID, p []byte) { kept = append(kept, p) })
	a.Send(2, filled(1, 64, 0xAA))
	nw.RunFor(time.Second)
	for fill := range byte(8) {
		a.Send(2, filled(1, 64, fill))
	}
	nw.RunFor(time.Second)
	if len(kept) != 9 {
		t.Fatalf("%d datagrams delivered, want 9", len(kept))
	}
	if want := filled(1, 64, 0xAA); !bytes.Equal(kept[0], want) {
		t.Errorf("kept payload changed after more traffic:\n got %x\nwant %x", kept[0], want)
	}
}

// TestSimEnvRefusesOversizeDatagram: the simulator carries a payload of
// exactly wire.MaxDatagram and refuses one byte more, as a UDP socket does —
// counted, and never handed to the network, so it cannot draw from the
// network's random stream.
func TestSimEnvRefusesOversizeDatagram(t *testing.T) {
	nw := simnet.New(2, 1)
	reg := NewRegistry()
	a := NewSimEnv(nw, reg, 0, 1)
	b := NewSimEnv(nw, reg, 1, 2)
	a.SetLocalID(1)
	b.SetLocalID(2)
	var got []int
	b.Bind(func(_ wire.NodeID, p []byte) { got = append(got, len(p)) })
	sent := 0
	nw.OnSend = func(int, int, []byte) { sent++ }
	a.Send(2, datagram(1, wire.MaxDatagram+1))
	a.Send(2, datagram(1, wire.MaxDatagram))
	nw.RunFor(time.Second)
	if a.SendErrors() != 1 || sent != 1 || len(got) != 1 || got[0] != wire.MaxDatagram {
		t.Errorf("SendErrors=%d, network saw %d sends, delivered sizes %v; want 1, 1, [%d]",
			a.SendErrors(), sent, got, wire.MaxDatagram)
	}
}

func TestSimEnvAddressingConvention(t *testing.T) {
	nw := simnet.New(3, 1)
	reg := NewRegistry()
	a := NewSimEnv(nw, reg, 0, 1)
	c := NewSimEnv(nw, reg, 2, 3)
	a.SetLocalID(7)

	if got := c.LocalAddr().Port(); got != 2 {
		t.Fatalf("LocalAddr port = %d, want endpoint index 2", got)
	}
	// a learns c's ID→endpoint binding through SetPeer, as the membership
	// layer would from a view.
	a.SetPeer(42, c.LocalAddr())
	received := false
	c.Bind(func(from wire.NodeID, _ []byte) { received = from == 7 })
	a.Send(42, wire.AppendHeartbeat(nil, 7))
	nw.RunFor(time.Millisecond)
	if !received {
		t.Error("packet not routed via SetPeer binding")
	}
	// NilNode bindings are ignored.
	a.SetPeer(wire.NilNode, c.LocalAddr())
	if _, ok := reg.Lookup(wire.NilNode); ok {
		t.Error("NilNode registered")
	}
}

// TestRegistryDenseIndex: the registry resolves IDs through an array sized to
// the largest registered ID + 1; every ID it was not given — below, above,
// wire.NilNode — reports false, and ID 0 and endpoint 0 are ordinary values.
func TestRegistryDenseIndex(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Lookup(0); ok {
		t.Error("empty registry resolved ID 0")
	}
	const coord, replica = wire.NodeID(0xFFFE), wire.NodeID(0xFFFD)
	reg.Register(0, 3)
	reg.Register(9, 0)
	for _, id := range []wire.NodeID{1, 8, 10, replica, coord, wire.NilNode} {
		if ep, ok := reg.Lookup(id); ok {
			t.Errorf("Lookup(%d) = %d on a registry that never saw it", id, ep)
		}
	}
	if len(reg.byID) != 10 {
		t.Errorf("index sized %d, want largest registered ID + 1 = 10", len(reg.byID))
	}
	reg.Register(coord, 7)
	reg.Register(replica, 8)
	reg.Register(9, 5) // a re-registration moves the binding
	reg.Register(wire.NilNode, 1)
	for id, want := range map[wire.NodeID]int{0: 3, 9: 5, coord: 7, replica: 8} {
		if ep, ok := reg.Lookup(id); !ok || ep != want {
			t.Errorf("Lookup(%d) = %d,%v, want %d", id, ep, ok, want)
		}
	}
	for _, id := range []wire.NodeID{1, 10, 0xFFFC, wire.NilNode} {
		if _, ok := reg.Lookup(id); ok {
			t.Errorf("Lookup(%d) found", id)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		reg.Lookup(0)
		reg.Lookup(coord)
		reg.Lookup(wire.NilNode)
	}); n != 0 {
		t.Errorf("Lookup allocates %v times", n)
	}
}

func TestSimEnvTimerAndNow(t *testing.T) {
	nw := simnet.New(1, 1)
	reg := NewRegistry()
	a := NewSimEnv(nw, reg, 0, 1)
	var at time.Time
	a.After(30*time.Millisecond, func() { at = a.Now() })
	tm := a.After(10*time.Millisecond, func() { t.Error("cancelled timer fired") })
	tm.Stop()
	nw.RunFor(time.Second)
	if want := time.Unix(0, 0).UTC().Add(30 * time.Millisecond); !at.Equal(want) {
		t.Errorf("timer fired at %v, want %v", at, want)
	}
	ran := false
	a.Do(func() { ran = true })
	if !ran {
		t.Error("Do did not run")
	}
	if a.Rand() == nil {
		t.Error("nil Rand")
	}
}

func TestUDPEnvRoundTrip(t *testing.T) {
	a, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Outside a callback the Env is reached through Do, as deploy.go does.
	var got []wire.NodeID
	done := make(chan struct{}, 4)
	b.Do(func() {
		b.SetLocalID(2)
		b.Bind(func(from wire.NodeID, payload []byte) {
			got = append(got, from)
			done <- struct{}{}
		})
	})
	replied := make(chan struct{}, 1)
	a.Do(func() {
		a.SetLocalID(1)
		a.SetPeer(2, b.LocalAddr())
		a.Bind(func(from wire.NodeID, payload []byte) {
			if from == 2 {
				replied <- struct{}{}
			}
		})
		a.Send(2, wire.AppendHeartbeat(nil, 1))
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for packet")
	}

	// b learned a's address from the incoming packet, so it can reply without
	// an explicit SetPeer.
	b.Do(func() { b.Send(1, wire.AppendHeartbeat(nil, 2)) })
	select {
	case <-replied:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for opportunistic reply path")
	}

	b.Do(func() {
		if len(got) != 1 || got[0] != 1 {
			t.Errorf("got %v", got)
		}
	})
}

// TestUDPEnvForgedSourceDoesNotRedirect: over loopback, a datagram whose
// header forges the ID of a member the env has an address for does not
// redirect the env's traffic to that member: the forger hears nothing, the
// member what is sent to it.
func TestUDPEnvForgedSourceDoesNotRedirect(t *testing.T) {
	var envs [3]*UDPEnv // the member, the receiver, the forger
	for i := range envs {
		e, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		envs[i] = e
	}
	member, receiver, forger := envs[0], envs[1], envs[2]
	heard := make(chan struct{}, 8)
	forged := make(chan struct{}, 8)
	receiver.Do(func() {
		receiver.SetLocalID(2)
		receiver.SetPeer(1, member.LocalAddr())
		receiver.SetPeer(3, forger.LocalAddr())
		receiver.Bind(func(from wire.NodeID, _ []byte) {
			if from == 1 {
				forged <- struct{}{}
			}
		})
	})
	member.Do(func() { member.Bind(func(wire.NodeID, []byte) { heard <- struct{}{} }) })
	misled := make(chan struct{}, 8)
	forger.Do(func() {
		forger.SetPeer(2, receiver.LocalAddr())
		forger.Bind(func(wire.NodeID, []byte) { misled <- struct{}{} })
		forger.Send(2, wire.AppendHeartbeat(nil, 1)) // claims to be member 1
	})
	select {
	case <-forged:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for the forged datagram")
	}
	receiver.Do(func() { receiver.Send(1, wire.AppendHeartbeat(nil, 2)) })
	select {
	case <-heard:
	case <-misled:
		t.Fatal("a forged header redirected the member's traffic to the forger")
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for the member to hear the receiver")
	}
	select {
	case <-misled:
		t.Fatal("the forger heard what was sent to the member")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestUDPEnvDatagramCeiling: over loopback a payload of exactly
// wire.MaxDatagram arrives whole through the receive buffer sized to it, and
// one byte more is refused by the socket and counted instead of discarded.
func TestUDPEnvDatagramCeiling(t *testing.T) {
	a, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sizes := make(chan int, 2)
	b.Do(func() { b.Bind(func(_ wire.NodeID, p []byte) { sizes <- len(p) }) })
	a.Do(func() {
		a.SetLocalID(1)
		a.SetPeer(2, b.LocalAddr())
		a.Send(2, datagram(1, wire.MaxDatagram+1))
	})
	if got := a.SendErrors(); got != 1 {
		t.Errorf("SendErrors = %d after an oversize send, want 1", got)
	}
	a.Do(func() { a.Send(2, datagram(1, wire.MaxDatagram)) })
	select {
	case n := <-sizes:
		if n != wire.MaxDatagram {
			t.Errorf("received %d bytes, want %d", n, wire.MaxDatagram)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MaxDatagram payload never arrived")
	}
	if got := a.SendErrors(); got != 1 {
		t.Errorf("SendErrors = %d after a MaxDatagram send, want still 1", got)
	}
}

// TestUDPEnvKeptPayloadUnchanged: over loopback, a handler keeps a delivered
// payload without copying it while more datagrams arrive through the same
// socket, and the kept bytes still read as sent — UDPEnv copies each datagram
// out of the one receive buffer it reads into.
func TestUDPEnvKeptPayloadUnchanged(t *testing.T) {
	a, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan []byte, 16)
	b.Do(func() { b.Bind(func(_ wire.NodeID, p []byte) { got <- p }) })
	a.Do(func() {
		a.SetLocalID(1)
		a.SetPeer(2, b.LocalAddr())
		a.Send(2, filled(1, 64, 0xAA))
	})
	var kept []byte
	select {
	case kept = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("first datagram never arrived")
	}
	// Loopback may drop under load; wait for at least one more datagram to
	// pass through the receive buffer.
	a.Do(func() {
		for fill := range byte(8) {
			a.Send(2, filled(1, 64, fill))
		}
	})
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no later datagram arrived")
	}
	if want := filled(1, 64, 0xAA); !bytes.Equal(kept, want) {
		t.Errorf("kept payload changed after more traffic:\n got %x\nwant %x", kept, want)
	}
}

func TestUDPEnvTimers(t *testing.T) {
	e, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fired := make(chan struct{})
	e.After(10*time.Millisecond, func() { close(fired) })
	tm := e.After(time.Minute, func() { t.Error("long timer fired") })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire")
	}
	if !tm.Stop() {
		t.Error("Stop returned false for pending timer")
	}
}

func TestUDPEnvCloseIdempotentAndQuiescent(t *testing.T) {
	e, err := NewUDPEnv("127.0.0.1:0", netip.AddrPort{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Do(func() {
		e.SetLocalID(5)
		if e.LocalID() != 5 {
			t.Errorf("LocalID = %d", e.LocalID())
		}
	})
	if err := e.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	// After close, timers and Do are suppressed.
	e.After(time.Millisecond, func() { t.Error("timer after close fired") })
	e.Do(func() { t.Error("Do after close ran") })
	e.Send(5, wire.AppendHeartbeat(nil, 5)) // must not panic
	time.Sleep(20 * time.Millisecond)
}

func TestUDPEnvBadListenAddr(t *testing.T) {
	if _, err := NewUDPEnv("not-an-addr:xyz", netip.AddrPort{}, 1); err == nil {
		t.Error("want error for bad listen address")
	}
}
