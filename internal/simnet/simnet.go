// Package simnet is a deterministic, virtual-time datagram network
// simulator: the substrate on which all of the paper's experiments run, in
// the same spirit as the paper's own in-system emulation (§6.1, "the
// emulation uses the same implementation as the one deployed").
//
// A Network owns a set of endpoints and one queue of timed events: a 4-ary
// implicit heap of value keys (at, seq, record), compared without following
// a pointer. Packets sent between endpoints are delivered after the
// configured one-way link latency, subject to per-link loss probability, link
// failures, and node failures. Timers and packet deliveries interleave in
// strict (at, seq) order — timestamp, ties broken by scheduling order — so a
// simulation is a pure function of its inputs and seed.
//
// An event is one record. The *Timer that After returns is the record the
// queue holds, and it is never reused: a handle stays valid for as long as
// its owner keeps it. A packet in flight is a packet record that no handle
// can reach, taken from and returned to a free list, so a steady stream of
// sends allocates nothing.
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

// burstWindow is one scheduled burst-loss interval on a directed link:
// every packet sent in [from, to) is dropped.
type burstWindow struct {
	from, to time.Duration
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

// entry is one queued event: the (at, seq) key inline, so ordering never
// follows a pointer, plus the record to run — a timer or a packet, never both.
// A stopped timer keeps its entry until it is popped.
type entry struct {
	at  time.Duration
	seq uint64
	t   *Timer
	pkt *packet
}

// before reports whether e runs before o: earlier timestamp, then earlier
// scheduling order. seq is unique, so this is a strict total order and the
// heap's shape never shows in the order events run.
func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Network is a simulated datagram network. Create one with New; methods are
// not safe for concurrent use (the simulation is single-threaded).
type Network struct {
	epoch    time.Time
	now      time.Duration
	seq      uint64
	rng      *rand.Rand
	queue    []entry   // 4-ary min-heap on (at, seq): children of i are 4i+1..4i+4
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

	// bursts holds the scheduled burst-loss windows per directed link. nil
	// until the first AddBurstLoss, so the hot send path pays nothing when
	// the fault plane is idle.
	bursts map[[2]int][]burstWindow

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

// Size returns the number of endpoints.
func (nw *Network) Size() int { return nw.n }

// at returns the index of the directed a→b link in the n×n matrices, and
// panics on an endpoint out of range, which always indicates a bug.
func (nw *Network) at(a, b int) int {
	if a < 0 || a >= nw.n || b < 0 || b >= nw.n {
		panic(fmt.Sprintf("simnet: link %d->%d out of range [0,%d)", a, b, nw.n))
	}
	return a*nw.n + b
}

// Now returns the current virtual time.
func (nw *Network) Now() time.Time { return nw.epoch.Add(nw.now) }

// Elapsed returns the virtual time since the start of the simulation.
func (nw *Network) Elapsed() time.Duration { return nw.now }

// Rand returns the simulation's deterministic random source.
func (nw *Network) Rand() *rand.Rand { return nw.rng }

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
func (nw *Network) Pending() int { return len(nw.queue) }

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

// AddBurstLoss schedules a symmetric burst-loss window on the a–b link:
// every packet sent between `in` from now and `in+dur` from now is dropped,
// modelling a congestion burst or a routing flap. Windows accumulate;
// expired ones are pruned lazily. Scheduling is an explicit, caller-driven
// act, so a fixed schedule is deterministic by construction and a randomized
// one is exactly as deterministic as its caller's seed.
func (nw *Network) AddBurstLoss(a, b int, in, dur time.Duration) {
	if dur <= 0 {
		return
	}
	if in < 0 {
		in = 0
	}
	if nw.bursts == nil {
		nw.bursts = make(map[[2]int][]burstWindow)
	}
	w := burstWindow{from: nw.now + in, to: nw.now + in + dur}
	nw.bursts[[2]int{a, b}] = append(nw.bursts[[2]int{a, b}], w)
	nw.bursts[[2]int{b, a}] = append(nw.bursts[[2]int{b, a}], w)
}

// inBurst reports whether the directed a→b link is inside an active
// burst-loss window, pruning windows that have already closed.
func (nw *Network) inBurst(a, b int) bool {
	if nw.bursts == nil {
		return false
	}
	key := [2]int{a, b}
	ws := nw.bursts[key]
	i := 0
	for i < len(ws) && ws[i].to <= nw.now {
		i++
	}
	if i > 0 {
		ws = ws[i:]
		if len(ws) == 0 {
			delete(nw.bursts, key)
		} else {
			nw.bursts[key] = ws
		}
	}
	for _, w := range ws {
		if nw.now >= w.from && nw.now < w.to {
			return true
		}
	}
	return false
}

// SetLinkDown marks the link between a and b as failed (or restores it).
// Both directions are affected, matching the paper's bidirectional links.
func (nw *Network) SetLinkDown(a, b int, down bool) {
	nw.down[nw.at(a, b)] = down
	nw.down[nw.at(b, a)] = down
}

// LinkDown reports whether the a–b link is failed in the a→b direction.
func (nw *Network) LinkDown(a, b int) bool { return nw.down[nw.at(a, b)] }

// SetNodeDown fails (or revives) a node: all its packets, in and out, are
// dropped while it is down.
func (nw *Network) SetNodeDown(a int, down bool) { nw.nodeDown[a] = down }

// NodeDown reports whether node a is failed.
func (nw *Network) NodeDown(a int) bool { return nw.nodeDown[a] }

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

// push queues e.
//
//lint:allocfree
func (nw *Network) push(e entry) {
	//lint:allowalloc amortized growth of the queue's backing array
	q := append(nw.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	nw.queue = q
}

// pop removes and returns the earliest entry. The queue must not be empty.
//
//lint:allocfree
func (nw *Network) pop() entry {
	q := nw.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // drop the record references for the collector
	q = q[:n]
	nw.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 4*i + 1
		if child >= n {
			break
		}
		least := child
		for c := child + 1; c < min(child+4, n); c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&last) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = last
	return top
}

// schedule queues a record to run d from now (a non-positive d means now,
// after already-queued events).
func (nw *Network) schedule(d time.Duration, t *Timer, pkt *packet) {
	if d < 0 {
		d = 0
	}
	nw.seq++
	nw.push(entry{at: nw.now + d, seq: nw.seq, t: t, pkt: pkt})
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
// link loss, a burst-loss window, link failure, or node failure. Loss,
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
		nw.inBurst(from, to) ||
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
	e := nw.pop()
	if e.pkt != nil {
		nw.now = e.at
		nw.deliver(e.pkt)
		return true
	}
	fn := e.t.fn
	if fn == nil {
		return false // stopped timer
	}
	e.t.fn = nil
	nw.now = e.at
	fn()
	return true
}

// Step executes the earliest pending event and reports whether one ran.
func (nw *Network) Step() bool {
	for len(nw.queue) > 0 {
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
	for len(nw.queue) > 0 && nw.queue[0].at <= t {
		nw.run()
	}
	if t > nw.now {
		nw.now = t
	}
}
