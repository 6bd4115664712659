package simnet

import (
	"fmt"
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

// TestBurstLossWindow: a blackout drops every packet to or from its endpoint,
// on every link and in both directions, until it ends. A packet already in
// flight when it starts still arrives, a self-send is untouched, and
// Reachable does not see it.
func TestBurstLossWindow(t *testing.T) {
	nw, got := countNet(t, 5)
	nw.SetLatency(0, 1, 100*time.Millisecond)
	nw.Send(0, 1, []byte{1}) // in flight when the blackout starts: delivered
	nw.RunFor(50 * time.Millisecond)
	nw.Blackout(1, time.Second) // until 1.05 s
	nw.Send(0, 1, []byte{2})    // to it: dropped
	nw.Send(1, 2, []byte{3})    // from it, on another link: dropped
	nw.Send(2, 3, []byte{4})    // between others: delivered
	nw.Send(1, 1, []byte{5})    // to itself: delivered, ahead of the first
	if !nw.Reachable(0, 1) {
		t.Error("Reachable sees the blackout")
	}
	nw.RunFor(950 * time.Millisecond)
	nw.Send(2, 1, []byte{6}) // at 1 s, still inside: dropped
	nw.RunFor(50 * time.Millisecond)
	nw.Send(1, 0, []byte{7}) // at 1.05 s, over: delivered
	nw.Send(0, 1, []byte{8}) // delivered
	nw.RunFor(time.Second)

	if want := [4][]int{{1}, {1, 0, 0}, nil, {2}}; fmt.Sprint(*got) != fmt.Sprint(want) {
		t.Errorf("senders heard per endpoint = %v, want %v", *got, want)
	}
	if nw.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", nw.Dropped())
	}
}

// TestBurstLossWindowsAccumulate: an endpoint's blackouts merge — a later one
// extends an earlier one it overlaps, and one ending sooner cuts nothing short.
func TestBurstLossWindowsAccumulate(t *testing.T) {
	nw, got := countNet(t, 5)
	nw.Blackout(0, time.Second)
	nw.RunFor(500 * time.Millisecond)
	nw.Blackout(0, time.Second)          // extends it to 1.5 s
	nw.Blackout(0, 100*time.Millisecond) // ends inside it: no effect
	nw.RunFor(800 * time.Millisecond)    // 1.3 s
	nw.Send(0, 1, []byte{1})             // past the first blackout's end: dropped
	nw.RunFor(200 * time.Millisecond)    // 1.5 s
	nw.Send(0, 1, []byte{2})             // delivered
	nw.RunFor(time.Second)

	if len(got[1]) != 1 {
		t.Errorf("deliveries = %d, want 1", len(got[1]))
	}
	if nw.Dropped() != 1 {
		t.Errorf("Dropped() = %d, want 1", nw.Dropped())
	}
}

func TestFaultPlaneDeterminism(t *testing.T) {
	// Identical seeds with the full fault plane enabled (loss + duplication
	// + jitter + a blackout) yield identical counters and an identical
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
		seq := byte(0)
		for round := 0; round < 10; round++ {
			if round == 3 {
				nw.Blackout(1, 50*time.Millisecond)
			}
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
	// the rng beyond the pre-existing loss draw, and a packet a blackout drops
	// draws nothing, so older seeded simulations replay byte-identically. Two
	// runs — one never touching those knobs, one setting duplication and
	// jitter explicitly to zero and also sending on a lossy link into a
	// blackout — must consume the stream identically, observable through the
	// loss outcomes on the 0→1 link.
	run := func(touch bool) (delivered int) {
		nw := New(3, 77)
		nw.SetHandler(1, func(int, []byte) { delivered++ })
		nw.SetLoss(0, 1, 0.5)
		nw.SetLoss(0, 2, 0.5)
		if touch {
			nw.SetDuplication(0, 1, 0)
			nw.SetJitter(0, 1, 0)
			nw.Blackout(2, time.Minute)
		}
		for i := 0; i < 200; i++ {
			nw.Send(0, 1, nil)
			if touch {
				nw.Send(0, 2, nil)
			}
		}
		nw.RunFor(time.Second)
		want := 200 - delivered
		if touch {
			want += 200 // blacked out
		}
		if nw.Dropped() != uint64(want) {
			t.Errorf("accounting: %d dropped, want %d", nw.Dropped(), want)
		}
		return delivered
	}
	if d1, d2 := run(false), run(true); d1 != d2 || d1 == 0 || d1 == 200 {
		t.Errorf("blackout or zeroed fault plane perturbed the stream: %d vs %d of 200 delivered", d1, d2)
	}
}
