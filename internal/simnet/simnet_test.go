package simnet

import (
	"testing"
	"time"
)

func TestDeliveryWithLatency(t *testing.T) {
	nw := New(2, 1)
	nw.SetLatency(0, 1, 50*time.Millisecond)
	var got []byte
	var at time.Duration
	nw.SetHandler(1, func(from int, payload []byte) {
		if from != 0 {
			t.Errorf("from = %d", from)
		}
		got = payload
		at = nw.Elapsed()
	})
	nw.Send(0, 1, []byte("hello"))
	nw.RunFor(time.Second)
	if string(got) != "hello" {
		t.Fatalf("payload = %q", got)
	}
	if at != 50*time.Millisecond {
		t.Errorf("delivered at %v", at)
	}
	if nw.Delivered() != 1 || nw.Dropped() != 0 {
		t.Errorf("delivered=%d dropped=%d", nw.Delivered(), nw.Dropped())
	}
}

func TestEventOrdering(t *testing.T) {
	nw := New(1, 1)
	var order []int
	nw.After(20*time.Millisecond, func() { order = append(order, 2) })
	nw.After(10*time.Millisecond, func() { order = append(order, 1) })
	nw.After(10*time.Millisecond, func() { order = append(order, 10) }) // same time: FIFO
	nw.After(30*time.Millisecond, func() { order = append(order, 3) })
	nw.RunFor(time.Second)
	want := []int{1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimerStop(t *testing.T) {
	nw := New(1, 1)
	fired := false
	tm := nw.After(10*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	nw.RunFor(time.Second)
	if fired {
		t.Error("cancelled timer fired")
	}
	var nilTimer *Timer
	if nilTimer.Stop() {
		t.Error("nil timer Stop returned true")
	}
	// A fired timer was not prevented from running: Stop reports false, from
	// inside its own callback and afterwards, like time.Timer.Stop.
	var self *Timer
	self = nw.After(10*time.Millisecond, func() {
		fired = true
		if self.Stop() {
			t.Error("Stop inside the timer's own callback returned true")
		}
	})
	nw.RunFor(time.Second)
	if !fired {
		t.Fatal("timer did not fire")
	}
	if self.Stop() {
		t.Error("Stop on a fired timer returned true")
	}
}

// TestAllocationPins: a packet in flight is a recycled record, a timer is the
// one record its handle points at, and a bucket entry is a recycled pool node.
func TestAllocationPins(t *testing.T) {
	nw := New(2, 1)
	nw.SetLatency(0, 1, time.Millisecond)
	nw.SetHandler(1, func(int, []byte) {})
	payload := []byte{1}
	for i := 0; i < 64; i++ { // fill the free list and grow the queue
		nw.Send(0, 1, payload)
	}
	nw.RunFor(time.Second)
	if n := testing.AllocsPerRun(200, func() {
		nw.Send(0, 1, payload)
		nw.Send(0, 1, payload)
		nw.Step()
		nw.Step()
	}); n != 0 {
		t.Errorf("Send + delivery allocates %v times at steady state, want 0", n)
	}
	fn := func() {}
	if n := testing.AllocsPerRun(200, func() {
		nw.After(time.Millisecond, fn)
		nw.Step()
	}); n > 1 {
		t.Errorf("After + Step allocates %v times, want at most 1 (the Timer)", n)
	}
	// Links slower than a tick and than the wheel's span: every run moves
	// the clock, so 200 runs wrap the wheel dozens of times and send events
	// through its buckets and its far heap.
	wide := New(3, 1)
	wide.SetLatency(0, 1, 300*time.Millisecond)
	wide.SetLatency(0, 2, span+span/2)
	wide.SetHandler(1, func(int, []byte) {})
	wide.SetHandler(2, func(int, []byte) {})
	wrap := func() {
		wide.Send(0, 1, payload)
		wide.Send(0, 2, payload)
		wide.Step()
		wide.Step()
	}
	for i := 0; i < 64; i++ {
		wrap()
	}
	start, pool := wide.Elapsed(), len(wide.queue.nodes)
	if n := testing.AllocsPerRun(200, wrap); n != 0 {
		t.Errorf("Send + delivery across the wheel allocates %v times at steady state, want 0", n)
	}
	// AllocsPerRun rounds down, so amortized growth hides from it.
	if got := len(wide.queue.nodes); got != pool {
		t.Errorf("the bucket node pool grew from %d to %d nodes at steady state", pool, got)
	}
	if d := wide.Elapsed() - start; d < 5*span {
		t.Fatalf("the loop ran %v of virtual time, want at least five spans (%v)", d, 5*span)
	}
}

func TestNestedScheduling(t *testing.T) {
	nw := New(1, 1)
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, nw.Elapsed())
		if len(ticks) < 3 {
			nw.After(100*time.Millisecond, tick)
		}
	}
	nw.After(0, tick)
	nw.RunFor(time.Second)
	if len(ticks) != 3 || ticks[2] != 200*time.Millisecond {
		t.Errorf("ticks = %v", ticks)
	}
	if nw.Elapsed() != time.Second {
		t.Errorf("clock = %v", nw.Elapsed())
	}
}

func TestLoss(t *testing.T) {
	nw := New(2, 42)
	nw.SetLoss(0, 1, 0.5)
	delivered := 0
	nw.SetHandler(1, func(int, []byte) { delivered++ })
	const total = 2000
	for i := 0; i < total; i++ {
		nw.Send(0, 1, nil)
	}
	nw.RunFor(time.Second)
	if delivered == 0 || delivered == total {
		t.Fatalf("delivered = %d of %d with 50%% loss", delivered, total)
	}
	frac := float64(delivered) / total
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("delivery fraction = %.3f, want ≈0.5", frac)
	}
	if nw.Dropped() != uint64(total-delivered) {
		t.Errorf("dropped = %d", nw.Dropped())
	}
}

func TestLinkDown(t *testing.T) {
	nw := New(2, 1)
	delivered := 0
	nw.SetHandler(1, func(int, []byte) { delivered++ })
	nw.SetLinkDown(0, 1, true)
	if !nw.LinkDown(0, 1) || !nw.LinkDown(1, 0) {
		t.Error("link down not symmetric")
	}
	nw.Send(0, 1, nil)
	nw.RunFor(time.Second)
	if delivered != 0 {
		t.Error("packet crossed a failed link")
	}
	nw.SetLinkDown(0, 1, false)
	nw.Send(0, 1, nil)
	nw.RunFor(time.Second)
	if delivered != 1 {
		t.Error("packet not delivered after link restore")
	}
}

func TestNodeDown(t *testing.T) {
	nw := New(3, 1)
	delivered := 0
	nw.SetHandler(1, func(int, []byte) { delivered++ })
	nw.SetNodeDown(1, true)
	if !nw.NodeDown(1) {
		t.Error("NodeDown not set")
	}
	nw.Send(0, 1, nil)
	nw.RunFor(time.Second)
	if delivered != 0 {
		t.Error("delivered to dead node")
	}
	if nw.Reachable(0, 1) || nw.Reachable(1, 2) {
		t.Error("dead node reported reachable")
	}
	nw.SetNodeDown(1, false)
	if !nw.Reachable(0, 1) {
		t.Error("revived node unreachable")
	}
}

func TestDeathInFlight(t *testing.T) {
	nw := New(2, 1)
	nw.SetLatency(0, 1, 100*time.Millisecond)
	delivered := 0
	nw.SetHandler(1, func(int, []byte) { delivered++ })
	nw.Send(0, 1, nil)
	nw.After(50*time.Millisecond, func() { nw.SetNodeDown(1, true) })
	nw.RunFor(time.Second)
	if delivered != 0 {
		t.Error("packet delivered to node that died mid-flight")
	}
	if nw.Dropped() != 1 {
		t.Errorf("dropped = %d", nw.Dropped())
	}
}

func TestHooks(t *testing.T) {
	nw := New(2, 7)
	nw.SetLoss(0, 1, 1.0)
	var sent, deliveredPkts int
	nw.OnSend = func(from, to int, p []byte) { sent++ }
	nw.OnDeliver = func(from, to int, p []byte) { deliveredPkts++ }
	nw.Send(0, 1, []byte{1})
	nw.SetLoss(0, 1, 0)
	nw.Send(0, 1, []byte{2})
	nw.RunFor(time.Second)
	if sent != 2 || nw.Dropped() != 1 || deliveredPkts != 1 {
		t.Errorf("sent=%d dropped=%d delivered=%d", sent, nw.Dropped(), deliveredPkts)
	}
}

func TestSelfSend(t *testing.T) {
	nw := New(1, 1)
	got := false
	nw.SetHandler(0, func(from int, _ []byte) { got = from == 0 })
	nw.Send(0, 0, nil)
	nw.RunFor(time.Millisecond)
	if !got {
		t.Error("self-send not delivered")
	}
}

// TestSendPanicsOutOfRange: an endpoint out of range is a bug wherever it is
// named — links are one flat n×n matrix, so an unchecked (0, n) would quietly
// configure link (1, 0).
func TestSendPanicsOutOfRange(t *testing.T) {
	nw := New(2, 1)
	for name, call := range map[string]func(){
		"Send":       func() { nw.Send(0, 5, nil) },
		"SetLatency": func() { nw.SetLatency(0, 2, time.Millisecond) },
		"LinkDown":   func() { nw.LinkDown(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic for out-of-range endpoint", name)
				}
			}()
			call()
		}()
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, time.Duration) {
		nw := New(4, 99)
		for a := 0; a < 4; a++ {
			for b := 0; b < 4; b++ {
				if a != b {
					nw.SetLatency(a, b, time.Duration(10+a+b)*time.Millisecond)
					nw.SetLoss(a, b, 0.2)
				}
			}
		}
		var last time.Duration
		for i := range nw.handlers {
			i := i
			nw.SetHandler(i, func(from int, p []byte) {
				last = nw.Elapsed()
				if len(p) < 10 {
					nw.Send(i, from, append(p, byte(i)))
				}
			})
		}
		nw.Send(0, 1, []byte{0})
		nw.Send(2, 3, []byte{0})
		nw.RunFor(10 * time.Second)
		return nw.Delivered(), nw.Dropped(), last
	}
	d1, x1, t1 := run()
	d2, x2, t2 := run()
	if d1 != d2 || x1 != x2 || t1 != t2 {
		t.Errorf("non-deterministic: (%d,%d,%v) vs (%d,%d,%v)", d1, x1, t1, d2, x2, t2)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	nw := New(1, 1)
	nw.RunUntil(3 * time.Second)
	if nw.Elapsed() != 3*time.Second {
		t.Errorf("elapsed = %v", nw.Elapsed())
	}
	if nw.Now() != time.Unix(3, 0).UTC() {
		t.Errorf("now = %v", nw.Now())
	}
	// Running to an earlier mark must not move the clock backwards.
	nw.RunUntil(time.Second)
	if nw.Elapsed() != 3*time.Second {
		t.Errorf("clock moved backwards to %v", nw.Elapsed())
	}
}

func TestStep(t *testing.T) {
	nw := New(1, 1)
	count := 0
	nw.After(time.Millisecond, func() { count++ })
	nw.After(2*time.Millisecond, func() { count++ })
	if !nw.Step() || count != 1 {
		t.Errorf("first step: count=%d", count)
	}
	if !nw.Step() || count != 2 {
		t.Errorf("second step: count=%d", count)
	}
	if nw.Step() {
		t.Error("step on empty queue returned true")
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	nw := New(1, 1)
	ran := false
	nw.After(-time.Second, func() { ran = true })
	nw.Step()
	if !ran || nw.Elapsed() != 0 {
		t.Errorf("ran=%v elapsed=%v", ran, nw.Elapsed())
	}
}

// LinkDown reports whether the a–b link is failed in the a→b direction.
func (nw *Network) LinkDown(a, b int) bool { return nw.down[nw.at(a, b)] }

// NodeDown reports whether node a is failed.
func (nw *Network) NodeDown(a int) bool { return nw.nodeDown[a] }
