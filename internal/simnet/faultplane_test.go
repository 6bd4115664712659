package simnet

import (
	"testing"
	"time"
)

func TestDuplicationDeliversTwice(t *testing.T) {
	nw, got := countNet(t, 7)
	nw.SetDuplication(0, 1, 1.0)
	nw.Send(0, 1, []byte{9})
	nw.RunFor(time.Second)

	if len(got[1]) != 2 {
		t.Errorf("deliveries = %d, want 2", len(got[1]))
	}
	if nw.Duplicated() != 1 {
		t.Errorf("Duplicated() = %d, want 1", nw.Duplicated())
	}
	// Symmetric: the reverse direction duplicates too.
	nw.Send(1, 0, []byte{9})
	nw.RunFor(time.Second)
	if len(got[0]) != 2 {
		t.Errorf("reverse deliveries = %d, want 2", len(got[0]))
	}
}

func TestDuplicatedCopyDiesInFlightToo(t *testing.T) {
	// Both copies of a duplicated packet are subject to receiver death:
	// killing the receiver while the packet is in flight drops both.
	nw, got := countNet(t, 7)
	nw.SetDuplication(0, 1, 1.0)
	nw.SetLatency(0, 1, 10*time.Millisecond)
	nw.Send(0, 1, []byte{9})
	nw.SetNodeDown(1, true)
	nw.RunFor(time.Second)

	if len(got[1]) != 0 {
		t.Errorf("deliveries = %d, want 0", len(got[1]))
	}
	if nw.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2 (original + duplicate)", nw.Dropped())
	}
}

func TestJitterReordersPackets(t *testing.T) {
	// With a jitter bound far above the base latency, a burst of packets
	// sent in sequence arrives out of order.
	nw := New(2, 3)
	var order []byte
	nw.SetHandler(1, func(from int, payload []byte) { order = append(order, payload[0]) })
	nw.SetLatency(0, 1, time.Millisecond)
	nw.SetJitter(0, 1, 100*time.Millisecond)
	const n = 32
	for i := 0; i < n; i++ {
		nw.Send(0, 1, []byte{byte(i)})
	}
	nw.RunFor(time.Second)

	if len(order) != n {
		t.Fatalf("deliveries = %d, want %d", len(order), n)
	}
	inOrder := true
	for i := 1; i < n; i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("jittered burst arrived in send order; want reordering")
	}
	if nw.Reordered() == 0 || nw.Reordered() > n {
		t.Errorf("Reordered() = %d, want in (0, %d]", nw.Reordered(), n)
	}
}

func TestJitterBoundsDeliveryTime(t *testing.T) {
	// Every jittered delivery lands within [latency, latency+jitter).
	nw := New(2, 11)
	var at []time.Duration
	nw.SetHandler(1, func(int, []byte) { at = append(at, nw.Elapsed()) })
	nw.SetLatency(0, 1, 5*time.Millisecond)
	nw.SetJitter(0, 1, 20*time.Millisecond)
	for i := 0; i < 16; i++ {
		nw.Send(0, 1, nil)
	}
	nw.RunFor(time.Second)
	for _, d := range at {
		if d < 5*time.Millisecond || d >= 25*time.Millisecond {
			t.Errorf("delivery at %v outside [5ms, 25ms)", d)
		}
	}
	if len(at) != 16 {
		t.Errorf("deliveries = %d, want 16", len(at))
	}
}

func TestBurstLossWindow(t *testing.T) {
	nw, got := countNet(t, 5)
	// Window covers [1s, 2s) from now.
	nw.AddBurstLoss(0, 1, time.Second, time.Second)

	nw.Send(0, 1, []byte{1}) // before the window: delivered
	nw.RunFor(1500 * time.Millisecond)
	nw.Send(0, 1, []byte{2}) // inside: dropped
	nw.Send(1, 0, []byte{3}) // symmetric: dropped too
	nw.RunFor(time.Second)   // now 2.5s, window closed
	nw.Send(0, 1, []byte{4}) // after: delivered
	nw.Send(1, 0, []byte{5}) // after, reverse: delivered, prunes its window
	nw.RunFor(time.Second)

	if len(got[1]) != 2 {
		t.Errorf("endpoint 1 deliveries = %d, want 2", len(got[1]))
	}
	if len(got[0]) != 1 {
		t.Errorf("endpoint 0 deliveries = %d, want 1", len(got[0]))
	}
	if nw.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", nw.Dropped())
	}
	// Expired windows are pruned lazily on the send path.
	if len(nw.bursts) != 0 {
		t.Errorf("bursts map holds %d entries after expiry, want 0", len(nw.bursts))
	}
}

func TestBurstLossWindowsAccumulate(t *testing.T) {
	nw, got := countNet(t, 5)
	nw.AddBurstLoss(0, 1, 0, time.Second)
	nw.AddBurstLoss(0, 1, 2*time.Second, time.Second)

	nw.Send(0, 1, []byte{1}) // in window 1: dropped
	nw.RunFor(1500 * time.Millisecond)
	nw.Send(0, 1, []byte{2}) // between windows: delivered
	nw.RunFor(time.Second)
	nw.Send(0, 1, []byte{3}) // in window 2: dropped
	nw.RunFor(2 * time.Second)
	nw.Send(0, 1, []byte{4}) // after both: delivered
	nw.RunFor(time.Second)

	if len(got[1]) != 2 {
		t.Errorf("deliveries = %d, want 2", len(got[1]))
	}
	if nw.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", nw.Dropped())
	}
}

func TestFaultPlaneDeterminism(t *testing.T) {
	// Identical seeds with the full fault plane enabled (loss + duplication
	// + jitter + a burst window) yield identical counters and an identical
	// delivery order.
	run := func() (uint64, uint64, uint64, uint64, []byte) {
		nw := New(4, 123)
		var order []byte
		for i := 0; i < 4; i++ {
			nw.SetHandler(i, func(from int, payload []byte) { order = append(order, payload[0]) })
		}
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				nw.SetLatency(a, b, time.Duration(a+b)*time.Millisecond)
				nw.SetLoss(a, b, 0.2)
				nw.SetDuplication(a, b, 0.3)
				nw.SetJitter(a, b, 10*time.Millisecond)
			}
		}
		nw.AddBurstLoss(0, 1, 50*time.Millisecond, 50*time.Millisecond)
		seq := byte(0)
		for round := 0; round < 10; round++ {
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					if a != b {
						nw.Send(a, b, []byte{seq})
						seq++
					}
				}
			}
			nw.RunFor(20 * time.Millisecond)
		}
		nw.RunFor(time.Second)
		return nw.Delivered(), nw.Dropped(), nw.Duplicated(), nw.Reordered(), order
	}
	d1, x1, u1, r1, o1 := run()
	d2, x2, u2, r2, o2 := run()
	if d1 != d2 || x1 != x2 || u1 != u2 || r1 != r2 {
		t.Errorf("nondeterministic counters: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			d1, x1, u1, r1, d2, x2, u2, r2)
	}
	if string(o1) != string(o2) {
		t.Error("nondeterministic delivery order under identical seeds")
	}
	if u1 == 0 || r1 == 0 || x1 == 0 {
		t.Errorf("degenerate run: duplicated=%d reordered=%d dropped=%d", u1, r1, x1)
	}
}

func TestFaultPlaneOffConsumesNoRandomness(t *testing.T) {
	// With duplication and jitter at zero the send path must not draw from
	// the rng beyond the pre-existing loss draw, so older seeded simulations
	// replay byte-identically. Two runs — one never touching the new knobs,
	// one setting them explicitly to zero — must consume the stream
	// identically, observable through the loss outcomes.
	run := func(touch bool) (uint64, uint64) {
		nw := New(2, 77)
		nw.SetHandler(1, func(int, []byte) {})
		nw.SetLoss(0, 1, 0.5)
		if touch {
			nw.SetDuplication(0, 1, 0)
			nw.SetJitter(0, 1, 0)
			nw.AddBurstLoss(0, 1, time.Second, 0) // zero duration: ignored
		}
		for i := 0; i < 200; i++ {
			nw.Send(0, 1, nil)
		}
		nw.RunFor(time.Second)
		return nw.Delivered(), nw.Dropped()
	}
	d1, x1 := run(false)
	d2, x2 := run(true)
	if d1 != d2 || x1 != x2 {
		t.Errorf("zeroed fault plane perturbed the stream: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	if nw := (d1 + x1); nw != 200 {
		t.Errorf("accounting: delivered+dropped = %d, want 200", nw)
	}
}
