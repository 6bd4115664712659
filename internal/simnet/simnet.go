// Package simnet is a deterministic, virtual-time datagram network
// simulator: the substrate on which all of the paper's experiments run, in
// the same spirit as the paper's own in-system emulation (§6.1, "the
// emulation uses the same implementation as the one deployed").
//
// A Network owns a set of endpoints and one queue of timed events: a hashed
// timing wheel of ≈ 1 ms ticks spanning ≈ 1 s, with 4-ary heaps of value keys
// (at, seq, record), compared without following a pointer, for the current
// tick and for events past the span (queue.go). An event inside the span
// waits unsorted in its tick's bucket and is sorted only among its tick's
// few others, so its cost does not grow with the number pending. Packets
// sent between endpoints are delivered after the configured one-way link
// latency, subject to per-link loss probability, link failures, and node
// failures. Timers and packet deliveries interleave in strict (at, seq)
// order — timestamp, ties broken by scheduling order — so a simulation is a
// pure function of its inputs and seed.
//
// An event is one record. The *Timer that After returns is the record the
// queue holds, and it is never reused: a handle stays valid for as long as
// its owner keeps it. A packet in flight is a packet record that no handle
// can reach, taken from and returned to a free list, and a bucket entry is a
// node of one recycled pool, so a steady stream of sends allocates nothing.
//
// The event loop is single-threaded by design: protocol handlers run
// synchronously inside Run, which keeps node logic free of locks and makes
// hundreds of emulated nodes cheap.
package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// Handler receives a packet delivered to an endpoint.
type Handler func(from int, payload []byte)

// link is the directed-link configuration every packet reads: one-way
// latency and per-packet drop probability, 16 bytes, so the n² matrix is the
// simulator's largest table at no more than it needs.
type link struct {
	latency time.Duration
	loss    float64
}

// fault is a directed link's adversarial fault plane, which the gossip
// scenarios set: dup is the per-packet duplication probability and jitter the
// upper bound of the uniformly random extra latency added to each delivery.
type fault struct {
	dup    float64
	jitter time.Duration
}

// Timer is a cancellable scheduled callback. It is also the record the queue
// holds for the callback: fn is nil once the timer has fired or been stopped.
type Timer struct {
	fn func()
}

// Stop cancels the timer if it has not fired. It reports whether the callback
// was prevented from running: false for a timer that already fired or was
// already stopped.
func (t *Timer) Stop() bool {
	if t == nil || t.fn == nil {
		return false
	}
	t.fn = nil
	return true
}

// packet is the record of one packet copy in flight. No handle to it leaves
// the package, so it is recycled through Network.free once delivered.
type packet struct {
	from, to int32
	payload  []byte
}

// Network is a simulated datagram network. Create one with New; methods are
// not safe for concurrent use (the simulation is single-threaded).
type Network struct {
	epoch    time.Time
	now      time.Duration
	seq      uint64
	rng      *rand.Rand
	queue    queue
	free     []*packet // delivered packet records awaiting reuse
	n        int
	links    []link // n×n, row-major by sender
	down     []bool // n×n: injected hard link failures
	nodeDown []bool
	handlers []Handler

	// faults is the n×n duplication and jitter matrix, nil until some link
	// sets either, so a network without that fault plane pays nothing for it.
	faults []fault

	// group partitions the endpoints: cross-group packets are dropped at
	// send time. nil means no partition is active. Group 0 is the implicit
	// "rest of the network" for endpoints not named in SetPartition.
	group []int

	// blackout is, per endpoint, the instant its blackout ends. nil until
	// the first Blackout, so the send path pays one nil check without it.
	blackout []time.Duration

	// OnSend, if non-nil, observes every attempted transmission (including
	// ones that will be dropped); used for outgoing bandwidth accounting.
	OnSend func(from, to int, payload []byte)
	// OnDeliver, if non-nil, observes every successful delivery just before
	// the receiving handler runs; used for incoming bandwidth accounting.
	OnDeliver func(from, to int, payload []byte)

	delivered  uint64
	dropped    uint64
	duplicated uint64
	reordered  uint64
}

// New creates a network of n endpoints with every link up, zero latency and
// zero loss, using the given deterministic seed. Virtual time starts at the
// Unix epoch.
func New(n int, seed int64) *Network {
	return &Network{
		epoch:    time.Unix(0, 0).UTC(),
		rng:      rand.New(rand.NewSource(seed)),
		n:        n,
		links:    make([]link, n*n),
		down:     make([]bool, n*n),
		nodeDown: make([]bool, n),
		handlers: make([]Handler, n),
	}
}

// at returns the index of the directed a→b link in the n×n matrices, and
// panics on an endpoint out of range, which always indicates a bug.
func (nw *Network) at(a, b int) int {
	if max(uint(a), uint(b)) >= uint(nw.n) {
		nw.linkOutOfRange(a, b)
	}
	return a*nw.n + b
}

// linkOutOfRange panics for at. It stays out of line so that at, which runs
// on every packet, is cheap enough to inline.
//
//go:noinline
func (nw *Network) linkOutOfRange(a, b int) {
	panic(fmt.Sprintf("simnet: link %d->%d out of range [0,%d)", a, b, nw.n))
}

// Now returns the current virtual time.
func (nw *Network) Now() time.Time { return nw.epoch.Add(nw.now) }

// Elapsed returns the virtual time since the start of the simulation.
func (nw *Network) Elapsed() time.Duration { return nw.now }

// Delivered returns the count of successfully delivered packets.
func (nw *Network) Delivered() uint64 { return nw.delivered }

// Dropped returns the count of dropped packets.
func (nw *Network) Dropped() uint64 { return nw.dropped }

// Duplicated returns the count of extra packet copies created by link
// duplication.
func (nw *Network) Duplicated() uint64 { return nw.duplicated }

// Reordered returns the count of packets that drew nonzero delivery jitter.
func (nw *Network) Reordered() uint64 { return nw.reordered }

// Pending returns the number of scheduled events (including cancelled
// timers not yet reaped).
func (nw *Network) Pending() int { return nw.queue.Len() }

// SetHandler installs the packet handler for endpoint i.
func (nw *Network) SetHandler(i int, h Handler) {
	nw.handlers[i] = h
}

// SetLatency sets the symmetric one-way latency between a and b.
func (nw *Network) SetLatency(a, b int, d time.Duration) {
	nw.links[nw.at(a, b)].latency = d
	nw.links[nw.at(b, a)].latency = d
}

// SetLatencyOneWay sets the directed one-way latency from a to b only.
func (nw *Network) SetLatencyOneWay(a, b int, d time.Duration) {
	nw.links[nw.at(a, b)].latency = d
}

// Latency returns the configured one-way latency from a to b.
func (nw *Network) Latency(a, b int) time.Duration { return nw.links[nw.at(a, b)].latency }

// SetLoss sets the symmetric per-packet loss probability between a and b.
func (nw *Network) SetLoss(a, b int, p float64) {
	nw.links[nw.at(a, b)].loss = p
	nw.links[nw.at(b, a)].loss = p
}

// SetDuplication sets the symmetric per-packet duplication probability
// between a and b: a duplicated packet is delivered twice, each copy drawing
// its own jitter, so the copies may arrive out of order.
func (nw *Network) SetDuplication(a, b int, p float64) {
	if p != 0 || nw.faults != nil {
		nw.fault(a, b).dup, nw.fault(b, a).dup = p, p
	}
}

// SetJitter sets the symmetric delivery jitter bound between a and b: every
// delivered packet adds a uniformly random extra latency in [0, d), which is
// what reorders packets relative to their send order.
func (nw *Network) SetJitter(a, b int, d time.Duration) {
	if d != 0 || nw.faults != nil {
		nw.fault(a, b).jitter, nw.fault(b, a).jitter = d, d
	}
}

// fault returns the directed a→b link's fault plane, allocating the matrix on
// first use.
func (nw *Network) fault(a, b int) *fault {
	if nw.faults == nil {
		nw.faults = make([]fault, nw.n*nw.n)
	}
	return &nw.faults[nw.at(a, b)]
}

// Blackout cuts endpoint ep off from every other endpoint for d from now:
// every packet it sends or is sent in that time is dropped, modelling a
// congestion burst or a routing flap. A later blackout extends an earlier one.
// Packets already in flight still arrive, and Reachable ignores blackouts.
func (nw *Network) Blackout(ep int, d time.Duration) {
	if nw.blackout == nil {
		nw.blackout = make([]time.Duration, nw.n)
	}
	nw.blackout[ep] = max(nw.blackout[ep], nw.now+d)
}

// blackedOut reports whether a blackout drops a packet sent now from a to b.
func (nw *Network) blackedOut(a, b int) bool {
	return nw.blackout != nil && a != b && (nw.now < nw.blackout[a] || nw.now < nw.blackout[b])
}

// SetLinkDown marks the link between a and b as failed (or restores it).
// Both directions are affected, matching the paper's bidirectional links.
func (nw *Network) SetLinkDown(a, b int, down bool) {
	nw.down[nw.at(a, b)] = down
	nw.down[nw.at(b, a)] = down
}

// SetNodeDown fails (or revives) a node: all its packets, in and out, are
// dropped while it is down.
func (nw *Network) SetNodeDown(a int, down bool) { nw.nodeDown[a] = down }

// SetPartition splits the network: each groups[i] lists the endpoints of
// one side, and every endpoint not named falls into an implicit extra side
// (group 0 alongside the first listed group's complement). Packets crossing
// sides are dropped at send time, exactly like a failed link; traffic within
// a side is untouched. Calling SetPartition again replaces the previous
// partition. An endpoint named in two groups ends up in the last one listed.
func (nw *Network) SetPartition(groups ...[]int) {
	nw.group = make([]int, nw.n)
	for gi, g := range groups {
		for _, ep := range g {
			if ep < 0 || ep >= nw.n {
				panic(fmt.Sprintf("simnet: partition endpoint %d out of range [0,%d)", ep, nw.n))
			}
			// +1 keeps 0 as the implicit "everyone else" side.
			nw.group[ep] = gi + 1
		}
	}
}

// Heal removes any active partition. Node and link failures injected
// separately stay in force.
func (nw *Network) Heal() { nw.group = nil }

// Partitioned reports whether an active partition separates a and b.
func (nw *Network) Partitioned(a, b int) bool {
	return nw.group != nil && nw.group[a] != nw.group[b]
}

// Reachable reports whether a packet sent now from a to b would be
// delivered, ignoring probabilistic loss. This is the ground-truth
// reachability used by the experiment harness.
func (nw *Network) Reachable(a, b int) bool {
	return !nw.nodeDown[a] && !nw.nodeDown[b] && !nw.down[nw.at(a, b)] && !nw.Partitioned(a, b)
}

// schedule queues a record to run d from now (a non-positive d means now,
// after already-queued events).
func (nw *Network) schedule(d time.Duration, t *Timer, pkt *packet) {
	if d < 0 {
		d = 0
	}
	nw.seq++
	nw.queue.push(entry{at: nw.now + d, seq: nw.seq, t: t, pkt: pkt})
}

// After schedules fn to run d from now. A non-positive d runs at the current
// time, after already-queued events. The returned timer can cancel it.
func (nw *Network) After(d time.Duration, fn func()) *Timer {
	t := &Timer{fn: fn}
	nw.schedule(d, t, nil)
	return t
}

// Send transmits payload from endpoint `from` to endpoint `to`. Delivery
// happens after the link's one-way latency unless the packet is dropped by
// link loss, a blackout, link failure, or node failure. Loss,
// failure, duplication, and jitter are evaluated at send time, in a fixed
// order, so the random stream — and with it the whole simulation — stays a
// pure function of the seed. Sending to self delivers after zero latency.
func (nw *Network) Send(from, to int, payload []byte) {
	i := nw.at(from, to)
	if nw.OnSend != nil {
		nw.OnSend(from, to, payload)
	}
	l := nw.links[i]
	if nw.nodeDown[from] || nw.nodeDown[to] || nw.down[i] || nw.Partitioned(from, to) ||
		nw.blackedOut(from, to) ||
		(l.loss > 0 && nw.rng.Float64() < l.loss) {
		nw.dropped++
		return
	}
	var f fault
	if nw.faults != nil {
		f = nw.faults[i]
	}
	copies := 1
	if f.dup > 0 && nw.rng.Float64() < f.dup {
		copies = 2
		nw.duplicated++
	}
	for c := 0; c < copies; c++ {
		d := l.latency
		if f.jitter > 0 {
			if extra := time.Duration(nw.rng.Int63n(int64(f.jitter))); extra > 0 {
				d += extra
				nw.reordered++
			}
		}
		pkt := nw.newPacket()
		*pkt = packet{from: int32(from), to: int32(to), payload: payload}
		nw.schedule(d, nil, pkt)
	}
}

// newPacket returns a packet record: a recycled one when the free list has
// any, so the steady state allocates nothing.
func (nw *Network) newPacket() *packet {
	if n := len(nw.free); n > 0 {
		pkt := nw.free[n-1]
		nw.free = nw.free[:n-1]
		return pkt
	}
	return new(packet)
}

// deliver completes one packet copy's flight. The record goes back to the
// free list first — nothing else can reach it — so a handler that sends
// reuses it at once.
func (nw *Network) deliver(pkt *packet) {
	from, to, payload := int(pkt.from), int(pkt.to), pkt.payload
	pkt.payload = nil
	nw.free = append(nw.free, pkt)
	if nw.nodeDown[to] { // receiver died while the packet was in flight
		nw.dropped++
		return
	}
	nw.delivered++
	if nw.OnDeliver != nil {
		nw.OnDeliver(from, to, payload)
	}
	if h := nw.handlers[to]; h != nil {
		h(from, payload)
	}
}

// run pops the earliest entry and executes it at its timestamp, reporting
// false for the entry of a stopped timer. Firing retires a timer's record
// (fn dropped) before the callback runs, so Stop on a fired timer reports
// false and the handle no longer pins the closure.
func (nw *Network) run() bool {
	e := nw.queue.pop()
	nw.now = e.at // even for a stopped timer: the pop moved the cursor to its tick
	if e.pkt != nil {
		nw.deliver(e.pkt)
		return true
	}
	fn := e.t.fn
	if fn == nil {
		return false // stopped timer
	}
	e.t.fn = nil
	fn()
	return true
}

// Step executes the earliest pending event and reports whether one ran.
func (nw *Network) Step() bool {
	for nw.queue.Len() > 0 {
		if nw.run() {
			return true
		}
	}
	return false
}

// RunFor advances virtual time by d, executing every event scheduled within
// the window, and leaves the clock exactly d later.
func (nw *Network) RunFor(d time.Duration) {
	nw.RunUntil(nw.now + d)
}

// RunUntil executes all events scheduled at or before the elapsed-time mark
// t and sets the clock to t.
func (nw *Network) RunUntil(t time.Duration) {
	for nw.queue.due(t) {
		nw.run()
	}
	if t > nw.now {
		nw.now = t
	}
}
