package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/emul"
	"allpairs/internal/membership"
	"allpairs/internal/metrics"
	"allpairs/internal/overlay"
	"allpairs/internal/simnet"
	"allpairs/internal/stats"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// world is one built fleet, static or dynamic, behind the handful of
// accessors the measurement needs. Simulator endpoints are the common
// currency: endpoint ep hosts overlay node w.node(ep).
type world struct {
	spec  *spec
	seed  int64
	env   *traces.Env
	net   *simnet.Network
	col   *metrics.Collector
	fleet *emul.Fleet        // static workloads
	dyn   *emul.DynamicFleet // dynamic workloads

	coordEPs []int
	// gone accumulates the counters of departed nodes: their endpoints are
	// recycled, so they must be read before Depart.
	gone counters
}

func (w *world) node(ep int) *overlay.Node {
	if w.fleet != nil {
		return w.fleet.Nodes[ep]
	}
	return w.dyn.Node(ep)
}

// live returns the endpoints hosting a running node, ascending.
func (w *world) live() []int {
	if w.dyn != nil {
		return w.dyn.ActiveEndpoints()
	}
	eps := make([]int, w.spec.n)
	for i := range eps {
		eps[i] = i
	}
	return eps
}

// settled returns the live endpoints whose nodes have joined and are old
// enough for their pairs to count (every node of a static fleet).
func (w *world) settled() []int {
	if w.dyn != nil {
		return w.dyn.SettledEndpoints(w.net.Now().Add(-settleAge))
	}
	return w.live()
}

func (w *world) id(ep int) wire.NodeID { return w.node(ep).Env().LocalID() }

// endpointOf resolves an overlay ID to the live endpoint that holds it. The
// registry keeps the entries of departed nodes, whose endpoints may since
// have been recycled for a joiner with another ID.
func (w *world) endpointOf(id wire.NodeID) (int, bool) {
	if w.dyn == nil {
		return int(id), int(id) < w.spec.n
	}
	ep, ok := w.dyn.Reg.Lookup(id)
	return ep, ok && w.dyn.Active(ep) && w.id(ep) == id
}

func (w *world) isCoord(ep int) bool {
	return len(w.coordEPs) > 0 && ep >= w.coordEPs[0]
}

// rtt is the ground-truth round-trip latency between two endpoints in
// milliseconds, +Inf when the simulator would not deliver between them.
func (w *world) rtt(a, b int) float64 {
	if !w.net.Reachable(a, b) {
		return math.Inf(1)
	}
	return w.env.LatencyMS[a][b]
}

// bestPath is the best physically-up direct-or-one-hop round-trip latency
// from a to b over the live endpoints, +Inf when no such path exists.
func (w *world) bestPath(a, b int, live []int) float64 {
	best := w.rtt(a, b)
	for _, h := range live {
		if h != a && h != b {
			if v := w.rtt(a, h) + w.rtt(h, b); v < best {
				best = v
			}
		}
	}
	return best
}

// counters are the cumulative per-node counters the layer rows are built
// from, summed over nodes.
type counters struct {
	pairsComputed, pairsCached, failoverAttempts uint64
	viewRemaps                                   uint64
	fullPasses, incPasses                        uint64
	client                                       membership.ClientStats
}

func countersOf(n *overlay.Node) counters {
	c := counters{client: n.MembershipStats()}
	switch r := n.Router().(type) {
	case *core.Quorum:
		st := r.Stats()
		c.pairsComputed, c.pairsCached = st.PairsComputed, st.PairsCached
		c.failoverAttempts, c.viewRemaps = st.FailoverAttempts, st.ViewRemaps
	case *core.FullMesh:
		c.fullPasses, c.incPasses, _ = r.RecomputeStats()
		_, c.viewRemaps = r.ViewChangeStats()
	}
	return c
}

func (c *counters) add(o counters) {
	c.pairsComputed += o.pairsComputed
	c.pairsCached += o.pairsCached
	c.failoverAttempts += o.failoverAttempts
	c.viewRemaps += o.viewRemaps
	c.fullPasses += o.fullPasses
	c.incPasses += o.incPasses
	c.client.Add(o.client)
}

// counters sums the fleet: every live node plus everything that departed.
func (w *world) counters() counters {
	c := w.gone
	for _, ep := range w.live() {
		c.add(countersOf(w.node(ep)))
	}
	return c
}

func (w *world) coordStats() (s membership.CoordinatorStats) {
	for r := range w.coordEPs {
		o := w.dyn.Coordinator(r).Stats()
		s.Broadcasts += o.Broadcasts
		s.FullViewsSent += o.FullViewsSent
		s.ViewChunksSent += o.ViewChunksSent
		s.SeedsSent += o.SeedsSent
		s.Promotions += o.Promotions
	}
	return s
}

// categoryBytes sums one traffic category (in + out) over every endpoint.
func (w *world) categoryBytes(cat wire.Category) (sum uint64) {
	for ep := 0; ep < w.col.N(); ep++ {
		sum += w.col.TotalBytes(ep, cat)
	}
	return sum
}

// snapshot is the cumulative state read at both ends of the measured phase;
// layer rows are differences of two snapshots.
type snapshot struct {
	counters  counters
	coord     membership.CoordinatorStats
	coordMsgs uint64
	churn     int // joins + leaves + crashes injected
	bytes     [wire.NumCategories]uint64
	dropped   uint64
	dup       uint64
	reordered uint64
	mem       runtime.MemStats
	gcCPU     float64
}

func (w *world) snapshot() snapshot {
	s := snapshot{
		counters: w.counters(), dropped: w.net.Dropped(),
		dup: w.net.Duplicated(), reordered: w.net.Reordered(), gcCPU: gcCPUSeconds(),
	}
	if w.dyn != nil {
		s.coord, s.coordMsgs = w.coordStats(), w.dyn.CoordMembershipPackets()
		s.churn = w.dyn.Joins + w.dyn.Leaves + w.dyn.Crashes
	}
	for cat := range s.bytes {
		s.bytes[cat] = w.categoryBytes(wire.Category(cat))
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// measurement is one measured phase over a warmed-up world. The benchmark
// owns the event loop: it steps the simulator up to a sentinel it scheduled
// itself, so a traced and an untraced run execute the same events in the
// same order.
type measurement struct {
	w      *world
	dur    time.Duration
	tr     *tracer // nil when untraced
	start  time.Duration
	stream *stream

	// pending holds observations queued by sampling events; the loop runs
	// them between steps with the clock stopped, so sampling cost never
	// reaches sim_rate.
	pending []func()
	done    bool

	events              uint64
	pendingSum          uint64
	pendingSamples      uint64
	wall                time.Duration
	digest              string
	heapMB              float64
	before, after       snapshot
	memberSeconds       float64
	membersSince        time.Duration
	crashedAt, healedAt time.Duration
	failoverAt          time.Duration
	syncedAt            map[int]time.Duration

	// Route sampling.
	lookups, routed uint64
	stretchSum      float64
	stretchPairs    int
	fresh           map[uint32][]float64
	doubleSum       map[int]float64
	doubleSamples   int
}

func newMeasurement(w *world, dur time.Duration, tr *tracer) *measurement {
	return &measurement{
		w: w, dur: dur, tr: tr, start: w.net.Elapsed(), membersSince: w.net.Elapsed(),
		fresh: make(map[uint32][]float64), doubleSum: make(map[int]float64),
		syncedAt: make(map[int]time.Duration),
	}
}

// noteMembers integrates the live member count up to now; call before every
// membership change and at the end of the phase.
func (m *measurement) noteMembers() {
	now := m.w.net.Elapsed()
	m.memberSeconds += float64(len(m.w.live())) * (now - m.membersSince).Seconds()
	m.membersSince = now
}

// every runs fn at period, 2·period, … for the rest of the measured phase,
// re-arming like a real timer so the event queue keeps its natural depth.
// With paused set the callback is queued and runs between steps with the
// clock stopped; otherwise it runs inside the step like any other event.
func (m *measurement) every(period time.Duration, paused bool, fn func()) {
	var tick func()
	tick = func() {
		if m.done {
			return // the phase is over: nothing of the workload outlives it
		}
		if paused {
			m.pending = append(m.pending, fn)
		} else {
			fn()
		}
		m.w.net.After(period, tick)
	}
	m.w.net.After(period, tick)
}

// run executes the measured phase.
func (m *measurement) run() {
	w := m.w
	rng := rand.New(rand.NewSource(w.seed*31 + 7))
	m.stream = newStream(m, rand.New(rand.NewSource(w.seed*131+3)))
	// Scheduled first: whatever else lands on the final instant runs after
	// the sentinel, that is, not at all.
	w.net.After(m.dur, func() { m.done = true })
	m.schedule(rng)
	m.every(sampleEvery, true, m.sampleRoutes)
	m.every(freshEvery, true, m.sampleFreshness)
	m.every(time.Minute, true, m.sampleDoubleFailures)
	m.every(streamInterval, false, m.stream.inject)
	if w.spec.partition {
		m.every(100*time.Millisecond, false, m.pollFailover)
		m.every(time.Second, false, m.pollSync)
	}
	if m.tr != nil {
		m.tr.attach(m)
	}

	runtime.GC()
	m.before = w.snapshot()
	if m.tr != nil {
		m.tr.begin()
	}
	t0 := time.Now()
	var paused time.Duration
	for !m.done {
		if m.tr != nil {
			m.tr.step()
		} else {
			w.net.Step()
		}
		m.events++
		if m.events&4095 == 0 {
			m.pendingSum += uint64(w.net.Pending())
			m.pendingSamples++
		}
		if len(m.pending) > 0 {
			p0 := time.Now()
			for _, fn := range m.pending {
				fn()
			}
			m.pending = m.pending[:0]
			paused += time.Since(p0)
		}
	}
	m.wall = time.Since(t0) - paused
	m.after = w.snapshot()
	m.noteMembers()
	if m.tr != nil {
		m.tr.detach()
	}
	m.digest, m.heapMB = m.fingerprint(), liveHeapMB()
	m.settle()
}

// settleBound is how long after the measured phase a dynamic fleet may take
// to agree on one view: a crashed member's lease and two sweeps to expire it,
// then the membership plane's own 90 s convergence bound.
const settleBound = 2*time.Minute + 2*15*time.Second + 90*time.Second

// settle runs on past the measured phase, outside every metric: two virtual
// seconds so stream packets still in flight land, then, on a dynamic fleet,
// until every member holds the primary's view (checked each virtual second).
func (m *measurement) settle() {
	w := m.w
	w.net.RunFor(2 * time.Second)
	for end := w.net.Elapsed() + settleBound; w.dyn != nil && !w.dyn.ViewsConverged() && w.net.Elapsed() < end; {
		w.net.RunFor(time.Second)
	}
}

// sampleRoutes checks installed routes against simulator ground truth over a
// deterministic stride of ordered settled pairs: availability and stretch
// come from here.
func (m *measurement) sampleRoutes() {
	w := m.w
	eps, live := w.settled(), w.live()
	if len(eps) < 2 {
		return
	}
	check := min(len(eps)*(len(eps)-1), maxPairs)
	for k := 0; k < check; k++ {
		a, b := stridePair(eps, k, check)
		r, ok := w.node(a).BestHop(w.id(b))
		via, usable := b, false
		if ok {
			if r.Hop != r.Dst {
				via, ok = w.endpointOf(r.Hop)
			}
			usable = ok && !math.IsInf(w.rtt(a, via)+w.rtt(via, b), 1)
		}
		if !usable && math.IsInf(w.bestPath(a, b, live), 1) {
			continue // no physical path: no routing system could serve the pair
		}
		m.lookups++
		if !usable {
			continue
		}
		m.routed++
		lat := w.rtt(a, b)
		if via != b {
			lat = w.rtt(a, via) + w.rtt(via, b)
		}
		if best := w.bestPath(a, b, live); best > 0 {
			m.stretchSum += lat / best
			m.stretchPairs++
		}
	}
}

// stridePair is the k-th of check ordered pairs picked by a deterministic
// stride over all ordered pairs of eps.
func stridePair(eps []int, k, check int) (a, b int) {
	idx := k * (len(eps) * (len(eps) - 1)) / check
	i, j := idx/(len(eps)-1), idx%(len(eps)-1)
	if j >= i {
		j++
	}
	return eps[i], eps[j]
}

// sampleFreshness records, for the same stride of settled pairs, how old the
// source's installed route entry for the destination is. It samples on a
// period no routing interval divides: every timer in the simulator is
// phase-locked to virtual time, so a 30 s period would see each pair at one
// fixed phase of its 15 s or 30 s refresh cycle, never the cycle.
func (m *measurement) sampleFreshness() {
	w := m.w
	eps := w.settled()
	if len(eps) < 2 {
		return
	}
	now := w.net.Now()
	check := min(len(eps)*(len(eps)-1), maxPairs)
	var routes []core.RouteEntry
	src := -1
	for k := 0; k < check; k++ {
		a, b := stridePair(eps, k, check)
		na, idB := w.node(a), w.id(b)
		slot, inView := na.View().SlotOf(idB)
		if !inView {
			continue
		}
		if a != src {
			routes, src = na.Router().Routes(), a
		}
		age := w.net.Elapsed() // never learned: age since the fleet started
		if when := routes[slot].When; !when.IsZero() {
			age = now.Sub(when)
		}
		key := uint32(w.id(a))<<16 | uint32(idB)
		m.fresh[key] = append(m.fresh[key], age.Seconds())
	}
}

// sampleDoubleFailures records Figure 11's quantity once per virtual minute:
// per node, the destinations whose two default rendezvous are both unusable.
func (m *measurement) sampleDoubleFailures() {
	for _, ep := range m.w.live() {
		if q, ok := m.w.node(ep).Router().(*core.Quorum); ok {
			m.doubleSum[ep] += float64(q.Stats().DoubleFailures)
		}
	}
	m.doubleSamples++
}

// pollFailover notes the first instant after the primary's crash at which
// some replica reports itself primary.
func (m *measurement) pollFailover() {
	if m.crashedAt > 0 && m.failoverAt == 0 && m.w.dyn.Primary() != nil {
		m.failoverAt = m.w.net.Elapsed()
	}
}

// pollSync notes, from the heal on, the first poll at which each member
// holds the view stamp of the one replica that considers itself primary.
func (m *measurement) pollSync() {
	w := m.w
	if m.healedAt == 0 {
		return
	}
	var prim *membership.Coordinator
	for r := range w.coordEPs {
		if c := w.dyn.Coordinator(r); c.IsPrimary() {
			if prim != nil {
				return // split brain: nothing to be in sync with yet
			}
			prim = c
		}
	}
	if prim == nil {
		return
	}
	for _, ep := range w.live() {
		if _, done := m.syncedAt[ep]; !done && w.node(ep).Ready() && w.node(ep).View().Stamp() == prim.Stamp() {
			m.syncedAt[ep] = w.net.Elapsed()
		}
	}
}

// convergence returns the mean and max, over surviving members, of the time
// from the heal to the member's first sync with the single primary. A member
// that never got there counts to the end of the phase.
func (m *measurement) convergence() (mean, max float64) {
	var sum float64
	live := m.w.live()
	for _, ep := range live {
		at, synced := m.syncedAt[ep]
		if !synced {
			at = m.start + m.dur
		}
		d := (at - m.healedAt).Seconds()
		sum += d
		max = math.Max(max, d)
	}
	return ratio(sum, float64(len(live))), max
}

// freshnessP50 is Figure 12's headline: the median over pairs of each pair's
// median route age across its samples.
func (m *measurement) freshnessP50() float64 {
	if len(m.fresh) == 0 {
		return 0
	}
	var medians stats.CDF
	for _, ages := range m.fresh { // order-free: a CDF sorts its samples
		medians.Add(median(ages))
	}
	return medians.Median()
}

// doubleFailuresP98 is Figure 11's headline: the 98th percentile over nodes
// of the per-node mean double-rendezvous-failure count.
func (m *measurement) doubleFailuresP98() float64 {
	if len(m.doubleSum) == 0 {
		return 0
	}
	var means stats.CDF
	for _, s := range m.doubleSum { // order-free: a CDF sorts its samples
		means.Add(s / float64(m.doubleSamples))
	}
	return means.Quantile(0.98)
}

// median is the 50th percentile of vals, which must not be empty.
func median(vals []float64) float64 { return stats.NewCDF(vals).Median() }

// fingerprint digests the simulation's outcome at the end of the measured
// phase: final route tables, delivery counters and per-category bytes. Same
// seed and code give the same digest, traced or not.
func (m *measurement) fingerprint() string {
	w := m.w
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, ep := range w.live() {
		put(uint64(ep), uint64(w.id(ep)))
		for _, r := range w.node(ep).RouteTable() {
			put(uint64(r.Dst), uint64(r.Hop), uint64(r.Cost), uint64(r.Source))
		}
	}
	put(w.net.Delivered(), w.net.Dropped())
	for cat := wire.Category(0); cat < wire.NumCategories; cat++ {
		for ep := 0; ep < w.col.N(); ep++ {
			put(w.col.Bytes(ep, cat, metrics.In), w.col.Bytes(ep, cat, metrics.Out))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stream is the open-loop application workload every run carries: one
// 64-byte packet every 20 virtual ms between random settled endpoints, sent
// with Node.SendData and received through OnData. Open loop in virtual time:
// the send schedule never waits for deliveries.
type stream struct {
	m       *measurement
	rng     *rand.Rand
	eps     []int // settled endpoints packets are drawn over
	live    []int // live endpoints a packet may be relayed through
	sent    []packet
	payload [streamPayload]byte

	eligible, delivered uint64 // packets with a physical path at send time
	duplicates, corrupt uint64
	sendErrors          uint64
	latency, direct     time.Duration // summed over delivered packets
}

type packet struct {
	src, dst int32
	origin   wire.NodeID
	at       time.Duration
	path     bool // a physical path existed at send time
	got      bool
}

func newStream(m *measurement, rng *rand.Rand) *stream {
	s := &stream{m: m, rng: rng}
	for _, ep := range m.w.live() {
		s.attach(ep)
	}
	s.refresh()
	return s
}

// attach hooks the node at ep up as a stream receiver.
func (s *stream) attach(ep int) {
	s.m.w.node(ep).OnData = func(origin wire.NodeID, payload []byte) { s.receive(ep, origin, payload) }
}

// refresh re-reads the settled population the stream draws endpoints from.
func (s *stream) refresh() { s.eps, s.live = s.m.w.settled(), s.m.w.live() }

func (s *stream) inject() {
	w := s.m.w
	if len(s.sent)%50 == 0 {
		s.refresh()
	}
	if len(s.eps) < 2 {
		return
	}
	i, j := s.rng.Intn(len(s.eps)), s.rng.Intn(len(s.eps)-1)
	if j >= i {
		j++
	}
	src, dst := s.eps[i], s.eps[j]
	p := packet{src: int32(src), dst: int32(dst), origin: w.id(src), at: w.net.Elapsed()}
	p.path = !math.IsInf(w.bestPath(src, dst, s.live), 1)
	binary.BigEndian.PutUint64(s.payload[:], uint64(len(s.sent)))
	binary.BigEndian.PutUint64(s.payload[8:], uint64(p.at))
	s.sent = append(s.sent, p)
	if p.path {
		s.eligible++
	}
	var err error
	if tr := s.m.tr; tr != nil {
		t0 := time.Now()
		err = w.node(src).SendData(w.id(dst), s.payload[:])
		tr.sendData(time.Since(t0))
	} else {
		err = w.node(src).SendData(w.id(dst), s.payload[:])
	}
	if err != nil {
		s.sendErrors++
	}
}

func (s *stream) receive(ep int, origin wire.NodeID, payload []byte) {
	if len(payload) != streamPayload {
		s.corrupt++
		return
	}
	seq := binary.BigEndian.Uint64(payload)
	if seq >= uint64(len(s.sent)) {
		s.corrupt++
		return
	}
	p := &s.sent[seq]
	if int(p.dst) != ep || p.origin != origin || uint64(p.at) != binary.BigEndian.Uint64(payload[8:]) {
		s.corrupt++
		return
	}
	if p.got {
		s.duplicates++
		return
	}
	p.got = true
	if p.path {
		s.delivered++
	}
	s.latency += s.m.w.net.Elapsed() - p.at
	s.direct += s.m.w.net.Latency(int(p.src), int(p.dst))
}

// gate runs the correctness checks that need the finished measurement and
// returns one line per violation.
func (m *measurement) gate() []string {
	w, s := m.w, m.stream
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if w.dyn != nil {
		if w.dyn.SpawnsDropped != 0 {
			fail("%d spawns dropped: endpoint capacity exhausted", w.dyn.SpawnsDropped)
		}
		if !w.dyn.ViewsConverged() {
			fail("views not converged %s after the measured phase", settleBound)
		}
	}
	if s.corrupt != 0 {
		fail("%d delivered stream packets match no sent (origin, seq)", s.corrupt)
	}
	if w.spec.dup == 0 && s.duplicates != 0 {
		fail("%d stream packets delivered twice on links without duplication", s.duplicates)
	}
	// A member that rode out the split brain on the losing primary's log
	// jumps onto the winner's: a cold install by design, so only the other
	// workloads must never leave the stable-extension path.
	if r := m.after.counters.viewRemaps; r != 0 && !w.spec.partition {
		fail("core.view_remaps = %d, want 0: a view install fell back to the wholesale remap", r)
	}
	return bad
}

// coverage checks the steady workloads' warm-up contract: every ordered pair
// has a route before measurement starts.
func (w *world) coverage() []string {
	if w.fleet == nil {
		return nil
	}
	missing := 0
	for a := 0; a < w.spec.n; a++ {
		for b := 0; b < w.spec.n; b++ {
			if a != b {
				if _, ok := w.node(a).BestHop(wire.NodeID(b)); !ok {
					missing++
				}
			}
		}
	}
	if missing > 0 {
		return []string{fmt.Sprintf("%d of %d ordered pairs have no route after warm-up", missing, w.spec.n*(w.spec.n-1))}
	}
	return nil
}
