package core

import (
	"sort"
	"time"

	"allpairs/internal/grid"
	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/par"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// QuorumConfig tunes the quorum router. Zero values take the paper's
// defaults.
type QuorumConfig struct {
	// Interval is the routing interval r (default 15 s — half the probing
	// interval, compensating for the algorithm's extra round, §5).
	Interval time.Duration
	// Staleness is the maximum age of client rows a rendezvous uses when
	// computing recommendations (default 3r, §6.2.2).
	Staleness time.Duration
	// RouteTTL is how long a received recommendation stays authoritative
	// before BestHop falls back to neighbor link-state (default Staleness).
	RouteTTL time.Duration
	// DegradedHold is how long past RouteTTL an expired entry may still be
	// served as a last resort when no fallback exists, with a cost penalty
	// growing linearly with age (stale-row damping). This is the graceful
	// degradation used while the membership view is stale — a coordinator
	// failover or partition stalls view/recommendation flow, and blanking
	// routes would turn a control-plane hiccup into a data-plane outage.
	// Zero (the default) disables degraded mode; negative values also
	// disable it (the explicit off-switch for callers that fill defaults).
	DegradedHold time.Duration
	// RemoteSilence is how long a rendezvous may go without recommending a
	// route to a destination before the node declares a remote rendezvous
	// failure for that destination (default 2.5r; the paper bounds detection
	// by one routing interval plus propagation).
	RemoteSilence time.Duration
	// DeadRecheck is how long a destination declared dead is left alone
	// before failover may be attempted again (default 2r).
	DeadRecheck time.Duration
	// DisableFailover turns off §4.1's rapid rendezvous failover, for the
	// ablation study.
	DisableFailover bool
	// Asymmetric runs the footnote 2 variant: round-1 rows carry both
	// directed costs (5 bytes per entry) and recommendations are computed
	// per direction, so a→b and b→a may use different hops. Requires the
	// host to supply SelfAsymRow.
	Asymmetric bool
	// ReliableLinkState enables the §6.2.2 option: rendezvous servers
	// acknowledge round-1 rows and unacknowledged rows are retransmitted
	// once, trading a little bandwidth for loss tolerance. The option must
	// be enabled overlay-wide.
	ReliableLinkState bool
	// RetransmitTimeout is the ack wait before the single retransmission
	// (default 2 s).
	RetransmitTimeout time.Duration
	// DisableIncremental forces from-scratch round-2 computation every tick
	// instead of the generation-validated pair cache. Both produce
	// byte-identical messages (pinned by the golden churn test); the switch
	// exists for that test and for debugging.
	DisableIncremental bool
	// Workers caps the fork/join fan-out of full round-2 passes
	// (0 = GOMAXPROCS, 1 = serial). Shards stage results per source and are
	// merged in slot order, so the worker count never changes the bytes sent.
	Workers int
}

func (c *QuorumConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.Staleness <= 0 {
		c.Staleness = 3 * c.Interval
	}
	if c.RouteTTL <= 0 {
		c.RouteTTL = c.Staleness
	}
	if c.RemoteSilence <= 0 {
		c.RemoteSilence = c.Interval*5/2 + time.Second
	}
	if c.DeadRecheck <= 0 {
		c.DeadRecheck = 2 * c.Interval
	}
	if c.RetransmitTimeout <= 0 {
		c.RetransmitTimeout = 2 * time.Second
	}
}

// QuorumStats exposes the router's failure-handling counters.
type QuorumStats struct {
	// FailoverAttempts counts failover rendezvous recruitments.
	FailoverAttempts uint64
	// DoubleFailures is the number of destinations whose two default
	// rendezvous were both unusable at the last tick (Figure 11's metric).
	DoubleFailures int
	// DeadDestinations is the number of destinations currently presumed
	// dead (no client row shows them alive).
	DeadDestinations int
	// RecommendationsSent counts round-2 messages sent.
	RecommendationsSent uint64
	// LinkStatesSent counts round-1 messages sent.
	LinkStatesSent uint64
	// Retransmits counts reliable-mode row retransmissions.
	Retransmits uint64
	// PairsComputed counts client pairs evaluated by the one-hop kernel in
	// round 2; PairsCached counts pairs served from the generation-validated
	// cache instead. Their ratio is the incremental path's hit rate.
	PairsComputed uint64
	PairsCached   uint64
	// ViewExtends counts view installs taken as stable extensions (per-slot
	// state preserved in place); ViewRemaps counts re-installs that could
	// not be and went cold (the name predates that: it is the ledger's
	// core.view_remaps row). The initial install counts as neither.
	ViewExtends uint64
	ViewRemaps  uint64
}

// failoverState tracks §4.1 recovery for one destination.
type failoverState struct {
	server         int          // recruited failover rendezvous (-1 when none)
	recruited      time.Time    // when the current server was recruited
	tried          map[int]bool // candidates used this episode
	suspendedUntil time.Time    // dead-destination backoff
}

// Quorum is the two-round grid-quorum router (§3) with the failure handling
// of §4.
type Quorum struct {
	env  transport.Env
	cfg  QuorumConfig
	view *membership.ViewInfo
	g    *grid.Grid
	// dense caches the unmasked grid for the current slot count; successive
	// views over the same slot space Remask it instead of rebuilding, so a
	// stable extension's grid cost is proportional to the tombstone blast
	// radius, not to n·√n.
	dense *grid.Grid
	self  int
	seq   uint32

	table    *lsdb.Table     // rows received from rendezvous clients
	atable   *lsdb.AsymTable // directional rows (asymmetric mode)
	routes   []RouteEntry    // per destination slot
	servers  []int           // default rendezvous servers (grid row + column)
	defaults [][]int         // per destination: the common rendezvous set for (self, dst)

	// lastRecAbout[k][dst] is when server k last recommended a route to dst;
	// used for remote rendezvous failure detection. Lazily allocated per
	// server.
	lastRecAbout map[int][]time.Time
	failovers    map[int]*failoverState
	pendingAcks  map[int]uint32 // server slot → row seq awaiting ack (reliable mode)
	started      time.Time
	stats        QuorumStats

	// SelfRow returns the node's current measured link-state row (owned by
	// the prober; read synchronously). Required.
	SelfRow func() []wire.LinkEntry
	// SelfAsymRow returns the directional row; required in asymmetric mode.
	SelfAsymRow func() []wire.AsymEntry
	// LinkAlive reports the prober's liveness belief for a slot. Required.
	LinkAlive func(slot int) bool
	// OnRouteUpdate, if non-nil, observes every route table write (used for
	// freshness accounting).
	OnRouteUpdate func(dst int, e RouteEntry)

	// scratch buffers reused across ticks.
	clientsBuf []int
	recsBuf    [][]wire.RecEntry
	costsBuf   []wire.Cost
	hopBuf     []lsdb.HopCost
	sortBuf    []int // sorted-map-iteration scratch (activeServers, retransmit)

	// Incremental round-2 state. A pair's best hop depends only on the two
	// endpoint rows (the kernel reads intermediate costs out of exactly those
	// rows), so a cached value revalidates by comparing the endpoints' row
	// generations — lookup-only maps, never iterated. Self pairs additionally
	// depend on the live self row, revalidated by content compare. A cold
	// SetView drops everything with the table. See sendRecommendations.
	pairCache     map[uint32]pairVal
	selfPairCache map[int]selfPairVal
	lastGen       []uint32    // per-slot generation at the previous tick (dirty-fraction gate)
	prevSelf      []wire.Cost // unpacked self row at the previous tick
	missPosBuf    []int
	missDstBuf    []int
	missOutBuf    []lsdb.HopCost
	pairOutBuf    []lsdb.HopCost // sharded full-pass staging, merged in slot order
	asymInBuf     []wire.Cost
}

// pairVal is one cached client-pair result with the endpoint row generations
// it was computed from.
type pairVal struct {
	hop        int32
	cost       wire.Cost
	genA, genB uint32
}

// selfPairVal is one cached (self, client) result; valid while the self row
// is unchanged and the client's generation matches.
type selfPairVal struct {
	hop  int32
	cost wire.Cost
	gen  uint32
}

// pairKey packs an ordered slot pair (a < b; slots fit u16 by NodeID width).
func pairKey(a, b int) uint32 { return uint32(a)<<16 | uint32(b) }

// NewQuorum creates a quorum router for the node at slot self of view.
func NewQuorum(env transport.Env, cfg QuorumConfig, view *membership.ViewInfo, self int) (*Quorum, error) {
	cfg.fill()
	q := &Quorum{env: env, cfg: cfg}
	if err := q.SetView(view, self); err != nil {
		return nil, err
	}
	return q, nil
}

// SetView installs a new membership view, with exactly two outcomes. The
// grid spans the view's slot space (tombstones masked out), so a stable
// extension (membership.StableExtension — the only kind of change a
// coordinator reign produces) is applied in place: tables grow, slots whose
// occupant departed are retired individually, and everything about
// unaffected members (stored rows, generation counters, cached pair results,
// route entries) is left bit-for-bit untouched. Any other install goes cold,
// as the first one does: empty tables, routes, caches and silence tracking,
// refilled by the next routing intervals. Per-view episode state (pending
// reliable-mode acks, the start-of-view clock) resets either way; the
// sequence number and cumulative stats survive both.
func (q *Quorum) SetView(view *membership.ViewInfo, self int) error {
	if q.dense == nil || q.dense.N() != view.Slots() {
		dense, err := grid.New(view.Slots())
		if err != nil {
			return err
		}
		q.dense = dense
	}
	g, err := q.dense.Remask(view.OccupiedMask())
	if err != nil {
		return err
	}
	retired, _, stable := membership.StableExtension(q.view, q.self, view, self)
	switch {
	case stable:
		q.stats.ViewExtends++
	case q.view != nil:
		q.stats.ViewRemaps++
	}
	n := view.Slots()
	q.view = view
	q.g = g
	q.self = self
	if stable {
		q.table.Grow(n)
		if q.cfg.Asymmetric {
			q.atable.Grow(n)
		}
		for len(q.routes) < n {
			q.routes = append(q.routes, RouteEntry{})
		}
		for len(q.lastGen) < n {
			q.lastGen = append(q.lastGen, 0)
		}
		for len(q.prevSelf) < n && len(q.prevSelf) > 0 {
			q.prevSelf = append(q.prevSelf, wire.InfCost)
		}
		// Cached pair values involving retired slots self-invalidate: retiring
		// bumps those slots' generations, so the next revalidation misses.
		// Everything else stays warm — the point of stable slots.
		for _, s := range retired {
			q.table.RetireSlot(s)
			if q.cfg.Asymmetric {
				q.atable.RetireSlot(s)
			}
			delete(q.lastRecAbout, s)
			delete(q.failovers, s)
			delete(q.selfPairCache, s)
			//lint:orderinvariant each failover episode is scrubbed independently of visit order
			for _, fo := range q.failovers {
				if fo.server == s {
					fo.server = -1
				}
			}
		}
		retireRoutes(q.routes, retired)
		//lint:orderinvariant each rendezvous's silence array is grown and patched independently of visit order
		for k, about := range q.lastRecAbout {
			for len(about) < n {
				about = append(about, time.Time{})
			}
			for _, s := range retired {
				about[s] = time.Time{}
			}
			q.lastRecAbout[k] = about
		}
	} else {
		q.table = lsdb.NewTable(n)
		if q.cfg.Asymmetric {
			q.atable = lsdb.NewAsymTable(n)
		}
		q.routes = make([]RouteEntry, n)
		q.lastRecAbout = make(map[int][]time.Time)
		q.pairCache = make(map[uint32]pairVal)
		q.selfPairCache = make(map[int]selfPairVal)
		q.lastGen = make([]uint32, n)
		q.prevSelf = q.prevSelf[:0]
		q.failovers = make(map[int]*failoverState)
	}
	q.servers = g.Servers(self)
	q.defaults = make([][]int, n)
	for dst := 0; dst < n; dst++ {
		if dst != self && view.Occupied(dst) {
			q.defaults[dst] = g.Common(self, dst)
		}
	}
	q.pendingAcks = make(map[int]uint32)
	q.started = q.env.Now()
	return nil
}

// retireRoutes scrubs a route table of the slots a stable view extension
// retired: entries toward a retired destination or through a retired hop are
// dropped (the path no longer exists); a retired recommending rendezvous only
// clears the provenance.
func retireRoutes(routes []RouteEntry, retired []int) {
	if len(retired) == 0 {
		return
	}
	gone := make([]bool, len(routes))
	for _, s := range retired {
		gone[s] = true
	}
	for dst := range routes {
		e := &routes[dst]
		switch {
		case e.Source == SourceNone:
		case gone[dst] || (e.Hop >= 0 && e.Hop < len(gone) && gone[e.Hop]):
			*e = RouteEntry{}
		case e.From >= 0 && e.From < len(gone) && gone[e.From]:
			e.From = -1
		}
	}
}

// Interval implements Router.
func (q *Quorum) Interval() time.Duration { return q.cfg.Interval }

// Stats returns a copy of the router's counters.
func (q *Quorum) Stats() QuorumStats { return q.stats }

// Grid exposes the quorum layout (read-only).
func (q *Quorum) Grid() *grid.Grid { return q.g }

// Table exposes the received-rows database (read-only, for §4.2 consumers
// and tests).
func (q *Quorum) Table() *lsdb.Table { return q.table }

// Tick implements Router: one routing interval of the two-round protocol
// plus the failure-detection pass.
func (q *Quorum) Tick() {
	q.sendLinkState()
	q.sendRecommendations()
	q.detectFailures()
}

// activeServers appends the default servers with live links plus any
// recruited failover servers. Failover states live in a map, so they are
// visited in sorted destination order: map iteration here would make the
// round-1 send order — and with it the whole simulated packet schedule —
// differ between identically-seeded runs the moment a failover activates.
func (q *Quorum) activeServers(dst []int) []int {
	for _, s := range q.servers {
		if q.LinkAlive(s) {
			dst = append(dst, s)
		}
	}
	if len(q.failovers) > 0 {
		q.sortBuf = q.sortBuf[:0]
		for d := range q.failovers {
			q.sortBuf = append(q.sortBuf, d)
		}
		sort.Ints(q.sortBuf)
		for _, d := range q.sortBuf {
			fo := q.failovers[d]
			if fo.server < 0 || !q.LinkAlive(fo.server) {
				continue
			}
			found := false
			for _, s := range dst {
				if s == fo.server {
					found = true
					break
				}
			}
			if !found {
				dst = append(dst, fo.server)
			}
		}
	}
	return dst
}

// sendLinkState is round 1: the node's measured row goes to every active
// rendezvous server. In reliable mode each server owes an ack; rows still
// unacknowledged after RetransmitTimeout are resent once.
func (q *Quorum) sendLinkState() {
	q.seq++
	msg := q.buildLinkState()
	q.clientsBuf = q.activeServers(q.clientsBuf[:0])
	for _, s := range q.clientsBuf {
		q.env.Send(q.view.IDAt(s), msg)
		q.stats.LinkStatesSent++
		if q.cfg.ReliableLinkState {
			q.pendingAcks[s] = q.seq
		}
	}
	if q.cfg.ReliableLinkState && len(q.pendingAcks) > 0 {
		seq := q.seq
		view := q.view
		q.env.After(q.cfg.RetransmitTimeout, func() { q.retransmit(seq, view.VersionNum(), msg) })
	}
}

// retransmit resends the round-1 row to servers that never acknowledged it,
// in sorted slot order for a deterministic packet schedule.
func (q *Quorum) retransmit(seq uint32, viewVersion uint32, msg []byte) {
	if q.view.VersionNum() != viewVersion || seq != q.seq {
		return // view changed or a newer row has superseded this one
	}
	q.sortBuf = q.sortBuf[:0]
	for s, pending := range q.pendingAcks {
		if pending == seq {
			q.sortBuf = append(q.sortBuf, s)
		}
	}
	sort.Ints(q.sortBuf)
	for _, s := range q.sortBuf {
		delete(q.pendingAcks, s) // single retransmission
		if q.LinkAlive(s) {
			q.env.Send(q.view.IDAt(s), msg)
			q.stats.LinkStatesSent++
			q.stats.Retransmits++
		}
	}
}

// HandleLinkStateAck clears a pending reliable-delivery ack.
func (q *Quorum) HandleLinkStateAck(h wire.Header, body []byte) {
	seq, err := wire.ParseLinkStateAck(body)
	if err != nil {
		return
	}
	slot, ok := q.view.SlotOf(h.Src)
	if !ok {
		return
	}
	if q.pendingAcks[slot] == seq {
		delete(q.pendingAcks, slot)
	}
}

// buildLinkState encodes the current measurements at the current sequence
// number, in the configured row format.
func (q *Quorum) buildLinkState() []byte {
	if q.cfg.Asymmetric {
		return wire.AppendLinkStateAsym(nil, q.env.LocalID(), wire.LinkStateAsym{
			ViewVersion: q.view.VersionNum(),
			Seq:         q.seq,
			Entries:     q.SelfAsymRow(),
		})
	}
	return wire.AppendLinkState(nil, q.env.LocalID(), wire.LinkState{
		ViewVersion: q.view.VersionNum(),
		Seq:         q.seq,
		Entries:     q.SelfRow(),
	})
}

// shardMinClients is the smallest fresh-client count worth forking the full
// round-2 pair pass across workers.
const shardMinClients = 32

// sendRecommendations is round 2: acting as a rendezvous server, compute the
// best one-hop route for every pair of clients with fresh rows and send each
// client one message covering all its pairs. The node also serves itself:
// routes between it and each client are computed and installed locally.
//
// The steady-state path is incremental: a pair's value depends only on its
// two endpoint rows, so results cached under the endpoints' row generations
// stay valid until either row's contents change — and rows re-announced with
// identical costs every interval do not change. When more than
// 1/incrementalMaxDirtyDenom of the fresh clients went dirty since the last
// tick (cold start, churn burst), the pass falls back to the from-scratch
// pair sweep, sharded across workers by source. Either way the entries
// appended to each client's message — and their order — are exactly those of
// the original unconditional sweep.
func (q *Quorum) sendRecommendations() {
	if q.cfg.Asymmetric {
		q.sendRecommendationsAsym()
		return
	}
	now := q.env.Now()
	clients := q.table.FreshSlots(q.clientsBuf[:0], now, q.cfg.Staleness)
	q.clientsBuf = clients
	if len(clients) == 0 {
		return
	}
	k := len(clients)

	if cap(q.recsBuf) < k {
		q.recsBuf = make([][]wire.RecEntry, k)
	}
	recs := q.recsBuf[:k]
	for i := range recs {
		recs[i] = recs[i][:0]
	}

	mat := q.table.Matrix()
	if cap(q.hopBuf) < k {
		q.hopBuf = make([]lsdb.HopCost, k)
	}

	useCache := false
	if !q.cfg.DisableIncremental {
		changed := 0
		for _, c := range clients {
			if q.table.Gen(c) != q.lastGen[c] {
				changed++
			}
		}
		useCache = changed*incrementalMaxDirtyDenom <= k
	}
	if useCache {
		q.pairsCached(mat, clients, recs)
	} else {
		q.pairsFull(mat, clients, recs)
	}
	for _, c := range clients {
		q.lastGen[c] = q.table.Gen(c)
	}

	// Pairs (self, client): install locally and tell the client its route to
	// us. The live self row is unpacked once for the whole batch; when its
	// costs are unchanged since the last tick, cached results revalidate
	// against each client's generation.
	q.costsBuf = lsdb.UnpackCosts(q.costsBuf[:0], q.SelfRow())
	out := q.hopBuf[:k]
	if useCache && costsEqual(q.costsBuf, q.prevSelf) {
		miss := q.missPosBuf[:0]
		missDsts := q.missDstBuf[:0]
		for i, c := range clients {
			if pv, ok := q.selfPairCache[c]; ok && pv.gen == q.table.Gen(c) {
				out[i] = lsdb.HopCost{Hop: int(pv.hop), Cost: pv.cost}
				q.stats.PairsCached++
				continue
			}
			miss = append(miss, i)
			missDsts = append(missDsts, c)
		}
		if len(missDsts) > 0 {
			if cap(q.missOutBuf) < len(missDsts) {
				q.missOutBuf = make([]lsdb.HopCost, len(missDsts))
			}
			mOut := q.missOutBuf[:len(missDsts)]
			mat.BestOneHopAllRow(q.costsBuf, q.self, missDsts, mOut)
			q.stats.PairsComputed += uint64(len(missDsts))
			for z, i := range miss {
				out[i] = mOut[z]
				c := missDsts[z]
				q.selfPairCache[c] = selfPairVal{hop: int32(mOut[z].Hop), cost: mOut[z].Cost, gen: q.table.Gen(c)}
			}
		}
		q.missPosBuf, q.missDstBuf = miss, missDsts
	} else {
		mat.BestOneHopAllRow(q.costsBuf, q.self, clients, out)
		q.stats.PairsComputed += uint64(k)
		for i, c := range clients {
			q.selfPairCache[c] = selfPairVal{hop: int32(out[i].Hop), cost: out[i].Cost, gen: q.table.Gen(c)}
		}
	}
	q.prevSelf = append(q.prevSelf[:0], q.costsBuf...)
	for i, c := range clients {
		hc := out[i]
		q.install(c, RouteEntry{Hop: hc.Hop, Cost: hc.Cost, When: now, From: q.self, Source: SourceSelf})
		hopID := wire.NilNode
		if hc.Hop >= 0 {
			hopID = q.view.IDAt(hc.Hop)
		}
		recs[i] = append(recs[i], wire.RecEntry{Dst: q.env.LocalID(), Hop: hopID, Cost: hc.Cost})
	}

	for i, c := range clients {
		msg := wire.AppendRecommendation(nil, q.env.LocalID(), wire.Recommendation{
			ViewVersion: q.view.VersionNum(),
			Entries:     recs[i],
		})
		q.env.Send(q.view.IDAt(c), msg)
		q.stats.RecommendationsSent++
	}
}

// appendPairRecs appends one unordered pair sweep's results for source i to
// both endpoints' pending messages, in exactly the order the original
// unconditional sweep used (source order outer, destination order inner), so
// the incremental and full paths emit byte-identical messages.
func (q *Quorum) appendPairRecs(i int, clients []int, out []lsdb.HopCost, recs [][]wire.RecEntry) {
	for k, hc := range out {
		j := i + 1 + k
		hopID := wire.NilNode
		if hc.Hop >= 0 {
			hopID = q.view.IDAt(hc.Hop)
		}
		recs[i] = append(recs[i], wire.RecEntry{Dst: q.view.IDAt(clients[j]), Hop: hopID, Cost: hc.Cost})
		recs[j] = append(recs[j], wire.RecEntry{Dst: q.view.IDAt(clients[i]), Hop: hopID, Cost: hc.Cost})
	}
}

// pairsCached runs the pair sweep through the generation-validated cache:
// hits are copied out, misses are batched per source through the same kernel
// the full pass uses and then cached.
func (q *Quorum) pairsCached(mat *lsdb.CostMatrix, clients []int, recs [][]wire.RecEntry) {
	for i := 0; i < len(clients); i++ {
		a := clients[i]
		genA := q.table.Gen(a)
		dsts := clients[i+1:]
		out := q.hopBuf[:len(dsts)]
		miss := q.missPosBuf[:0]
		missDsts := q.missDstBuf[:0]
		for k, b := range dsts {
			if pv, ok := q.pairCache[pairKey(a, b)]; ok && pv.genA == genA && pv.genB == q.table.Gen(b) {
				out[k] = lsdb.HopCost{Hop: int(pv.hop), Cost: pv.cost}
				q.stats.PairsCached++
				continue
			}
			miss = append(miss, k)
			missDsts = append(missDsts, b)
		}
		if len(missDsts) > 0 {
			if cap(q.missOutBuf) < len(missDsts) {
				q.missOutBuf = make([]lsdb.HopCost, len(missDsts))
			}
			mOut := q.missOutBuf[:len(missDsts)]
			mat.BestOneHopAll(a, missDsts, mOut)
			q.stats.PairsComputed += uint64(len(missDsts))
			for z, k := range miss {
				hc := mOut[z]
				out[k] = hc
				b := missDsts[z]
				q.pairCache[pairKey(a, b)] = pairVal{hop: int32(hc.Hop), cost: hc.Cost, genA: genA, genB: q.table.Gen(b)}
			}
		}
		q.missPosBuf, q.missDstBuf = miss, missDsts
		q.appendPairRecs(i, clients, out, recs)
	}
}

// pairsFull runs the from-scratch pair sweep, sharded across workers by
// source when the client set is large enough. Shards stage into disjoint
// ranges of one flat buffer and only read the table, so the merge — in
// source order, on one goroutine — emits the same bytes regardless of the
// worker count. Results refresh the cache for the next incremental tick.
func (q *Quorum) pairsFull(mat *lsdb.CostMatrix, clients []int, recs [][]wire.RecEntry) {
	k := len(clients)
	q.stats.PairsComputed += uint64(k * (k - 1) / 2)
	workers := q.cfg.Workers
	if k >= shardMinClients && workers != 1 {
		total := k * (k - 1) / 2
		if cap(q.pairOutBuf) < total {
			q.pairOutBuf = make([]lsdb.HopCost, total)
		}
		stage := q.pairOutBuf[:total]
		// offset of source i's staged range: pairs contributed by sources < i.
		off := func(i int) int { return i*(k-1) - i*(i-1)/2 }
		par.Spans(k-1, workers, func(lo, hi int) {
			var keyBuf []uint64 // worker-local: the matrix's shared key buffer is single-threaded
			for i := lo; i < hi; i++ {
				dsts := clients[i+1:]
				keyBuf = mat.BestOneHopAllInto(keyBuf, clients[i], dsts, stage[off(i):off(i)+len(dsts)])
			}
		})
		for i := 0; i < k; i++ {
			a := clients[i]
			genA := q.table.Gen(a)
			dsts := clients[i+1:]
			out := stage[off(i) : off(i)+len(dsts)]
			for z, b := range dsts {
				q.pairCache[pairKey(a, b)] = pairVal{hop: int32(out[z].Hop), cost: out[z].Cost, genA: genA, genB: q.table.Gen(b)}
			}
			q.appendPairRecs(i, clients, out, recs)
		}
		return
	}
	for i := 0; i < k; i++ {
		a := clients[i]
		genA := q.table.Gen(a)
		dsts := clients[i+1:]
		out := q.hopBuf[:len(dsts)]
		mat.BestOneHopAll(a, dsts, out)
		for z, b := range dsts {
			q.pairCache[pairKey(a, b)] = pairVal{hop: int32(out[z].Hop), cost: out[z].Cost, genA: genA, genB: q.table.Gen(b)}
		}
		q.appendPairRecs(i, clients, out, recs)
	}
}

// costsEqual reports whether two unpacked cost rows are identical.
func costsEqual(a, b []wire.Cost) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// install writes a route table entry and fires the update hook.
func (q *Quorum) install(dst int, e RouteEntry) {
	q.routes[dst] = e
	if q.OnRouteUpdate != nil {
		q.OnRouteUpdate(dst, e)
	}
}

// HandleLinkState implements Router: stores a client's row (making the
// sender a rendezvous client of this node, including failover clients who
// recruited us). Both row formats are accepted; each feeds its own table.
func (q *Quorum) HandleLinkState(h wire.Header, body []byte) {
	slot, ok := q.view.SlotOf(h.Src)
	if !ok || slot == q.self {
		return
	}
	if h.Type == wire.TLinkStateAsym {
		if q.atable == nil {
			return // not in asymmetric mode
		}
		ls, err := wire.ParseLinkStateAsym(body)
		if err != nil || ls.ViewVersion != q.view.VersionNum() {
			return
		}
		q.atable.Put(slot, lsdb.AsymRow{Seq: ls.Seq, When: q.env.Now(), Entries: ls.Entries})
		q.maybeAck(h.Src, ls.Seq)
		return
	}
	if q.cfg.Asymmetric {
		return // symmetric rows carry no directional data; reject in this mode
	}
	ls, err := wire.ParseLinkState(body)
	if err != nil || ls.ViewVersion != q.view.VersionNum() {
		return
	}
	q.table.Put(slot, lsdb.Row{Seq: ls.Seq, When: q.env.Now(), Entries: ls.Entries})
	q.maybeAck(h.Src, ls.Seq)
}

// maybeAck acknowledges a received row in reliable mode.
func (q *Quorum) maybeAck(src wire.NodeID, seq uint32) {
	if q.cfg.ReliableLinkState {
		q.env.Send(src, wire.AppendLinkStateAck(nil, q.env.LocalID(), seq))
	}
}

// HandleRecommendation implements Router: installs round-2 best-hop
// recommendations. The latest recommendation for a destination wins, per the
// paper's footnote 11.
func (q *Quorum) HandleRecommendation(h wire.Header, body []byte) {
	rec, err := wire.ParseRecommendation(body)
	if err != nil || rec.ViewVersion != q.view.VersionNum() {
		return
	}
	from, ok := q.view.SlotOf(h.Src)
	if !ok || from == q.self {
		return
	}
	now := q.env.Now()
	about := q.lastRecAbout[from]
	if about == nil {
		about = make([]time.Time, q.view.Slots())
		q.lastRecAbout[from] = about
	}
	for _, e := range rec.Entries {
		dst, ok := q.view.SlotOf(e.Dst)
		if !ok || dst == q.self {
			continue
		}
		about[dst] = now
		hop := -1
		if e.Hop != wire.NilNode {
			if hs, ok := q.view.SlotOf(e.Hop); ok {
				hop = hs
			}
		}
		if hop < 0 && e.Cost != wire.InfCost {
			continue // malformed entry: usable cost but no hop
		}
		q.install(dst, RouteEntry{Hop: hop, Cost: e.Cost, When: now, From: from, Source: SourceRendezvous})
	}
}

// BestHop implements Router. Resolution order (§4.2): a fresh recommendation
// if one exists; otherwise the best one-hop computable from the neighbors'
// rows this node holds as a rendezvous server; otherwise failure.
func (q *Quorum) BestHop(dst int) (RouteEntry, bool) {
	if dst == q.self || dst < 0 || dst >= len(q.routes) {
		return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
	}
	now := q.env.Now()
	e := q.routes[dst]
	if e.Source != SourceNone && e.Hop >= 0 && now.Sub(e.When) <= q.cfg.RouteTTL {
		return e, true
	}
	var hop int
	var cost wire.Cost
	if q.cfg.Asymmetric {
		hop, cost = lsdb.BestOneHopViaAsym(q.SelfAsymRow(), q.atable, dst, now, q.cfg.Staleness)
	} else {
		hop, cost = lsdb.BestOneHopVia(q.SelfRow(), q.table, dst, now, q.cfg.Staleness)
	}
	if hop >= 0 && cost != wire.InfCost {
		return RouteEntry{Hop: hop, Cost: cost, When: now, From: -1, Source: SourceFallback}, true
	}
	if se, ok := q.staleHop(dst, e, now); ok {
		return se, true
	}
	return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
}

// staleHop serves an expired entry under degraded-mode damping: within
// DegradedHold past the TTL, and only while the prober still believes the
// first hop alive, the last-known-good route is returned with its cost
// inflated proportionally to its age. The inflation keeps genuinely fresh
// information preferred everywhere a choice exists, so degraded entries only
// ever win when the alternative is no route at all.
//
// If the prober has lost the last-known-good first hop itself during the
// outage, the fallback goes second-order instead of blanking: the aged client
// rows are re-evaluated under the degraded age bound
// (Staleness+DegradedHold), and the best surviving alternative is served with
// the same damping. The dead hop self-excludes because the live self row
// reports its first leg unreachable.
func (q *Quorum) staleHop(dst int, e RouteEntry, now time.Time) (RouteEntry, bool) {
	if q.cfg.DegradedHold <= 0 || e.Source == SourceNone || e.Hop < 0 || e.Cost == wire.InfCost {
		return RouteEntry{}, false
	}
	age := now.Sub(e.When)
	if age > q.cfg.RouteTTL+q.cfg.DegradedHold {
		return RouteEntry{}, false
	}
	if q.LinkAlive != nil && !q.LinkAlive(e.Hop) {
		var hop int
		var cost wire.Cost
		if q.cfg.Asymmetric {
			hop, cost = lsdb.BestOneHopViaAsym(q.SelfAsymRow(), q.atable, dst, now, q.cfg.Staleness+q.cfg.DegradedHold)
		} else {
			hop, cost = lsdb.BestOneHopVia(q.SelfRow(), q.table, dst, now, q.cfg.Staleness+q.cfg.DegradedHold)
		}
		if hop < 0 || cost == wire.InfCost || !q.LinkAlive(hop) {
			return RouteEntry{}, false
		}
		e.Hop, e.Cost = hop, cost
	}
	over := age - q.cfg.RouteTTL
	if over < 0 {
		over = 0
	}
	penalty := wire.Cost(uint64(e.Cost) * uint64(over) / uint64(q.cfg.DegradedHold))
	e.Cost = e.Cost.Add(penalty)
	e.Source = SourceStale
	return e, true
}

// Routes implements Router.
func (q *Quorum) Routes() []RouteEntry {
	out := make([]RouteEntry, len(q.routes))
	copy(out, q.routes)
	return out
}

// defaultRendezvousLive reports whether rendezvous k is currently usable for
// reaching information about destination dst: the link to k is alive and k
// has recommended a route to dst recently enough. k == dst means the
// destination itself serves as the rendezvous (same row or column), in which
// case link liveness alone decides.
func (q *Quorum) defaultRendezvousLive(k, dst int, now time.Time) bool {
	if !q.LinkAlive(k) {
		return false // proximal rendezvous failure
	}
	if k == dst {
		return true
	}
	var last time.Time
	if about := q.lastRecAbout[k]; about != nil {
		last = about[dst]
	}
	if last.IsZero() {
		last = q.started // startup grace
	}
	return now.Sub(last) <= q.cfg.RemoteSilence // else remote rendezvous failure
}

// destinationSeemsAlive scans the client rows for evidence that dst is up —
// the paper's guard against the whole overlay failing over toward a dead
// node (§4.1).
func (q *Quorum) destinationSeemsAlive(dst int, now time.Time) bool {
	if q.LinkAlive(dst) {
		return true
	}
	for s := 0; s < q.view.Slots(); s++ {
		if s == dst {
			continue
		}
		if q.cfg.Asymmetric {
			if r := q.atable.Fresh(s, now, q.cfg.Staleness); r != nil && r.OutCost(dst) != wire.InfCost {
				return true
			}
			continue
		}
		if r := q.table.Fresh(s, now, q.cfg.Staleness); r != nil && r.Cost(dst) != wire.InfCost {
			return true
		}
	}
	return false
}

// detectFailures runs §4.1: per destination, check the default rendezvous
// pair; on a double rendezvous failure recruit a random failover server from
// the destination's row and column; abandon failover for destinations that
// appear dead; revert when a default recovers.
func (q *Quorum) detectFailures() {
	now := q.env.Now()
	doubles := 0
	dead := 0
	for dst := 0; dst < q.view.Slots(); dst++ {
		if dst == q.self || !q.view.Occupied(dst) {
			continue
		}
		defaults := q.defaults[dst]
		anyLive := false
		for _, k := range defaults {
			if k == q.self {
				continue // we always hold our own row; it carries no info about dst's links beyond the direct one
			}
			if q.defaultRendezvousLive(k, dst, now) {
				anyLive = true
				break
			}
		}
		if anyLive {
			delete(q.failovers, dst) // revert to the default rendezvous
			continue
		}
		doubles++
		if q.cfg.DisableFailover {
			continue
		}
		fo := q.failovers[dst]
		if fo == nil {
			fo = &failoverState{server: -1, tried: make(map[int]bool)}
			q.failovers[dst] = fo
		}
		if now.Before(fo.suspendedUntil) {
			dead++
			continue
		}
		// Keep the current failover while it remains usable. A freshly
		// recruited server gets a grace period to produce its first
		// recommendation before silence counts against it.
		if fo.server >= 0 && q.LinkAlive(fo.server) {
			if now.Sub(fo.recruited) <= q.cfg.RemoteSilence || q.defaultRendezvousLive(fo.server, dst, now) {
				continue
			}
		}
		// Dead-destination check after the initial failover attempt.
		if len(fo.tried) > 0 && !q.destinationSeemsAlive(dst, now) {
			fo.server = -1
			fo.suspendedUntil = now.Add(q.cfg.DeadRecheck)
			dead++
			continue
		}
		q.recruitFailover(dst, fo)
	}
	q.stats.DoubleFailures = doubles
	q.stats.DeadDestinations = dead
}

// recruitFailover picks a random reachable candidate from the destination's
// row and column (§4.1's 2√n-candidate set), records it, and sends it our
// link state immediately so recovery completes within two routing intervals.
func (q *Quorum) recruitFailover(dst int, fo *failoverState) {
	cands := q.g.FailoverCandidates(dst)
	var usable []int
	for _, c := range cands {
		if c == q.self || fo.tried[c] || !q.LinkAlive(c) {
			continue
		}
		usable = append(usable, c)
	}
	if len(usable) == 0 {
		// Exhausted the candidate set: restart the episode (the paper's
		// "failover process restarts").
		fo.tried = make(map[int]bool)
		fo.server = -1
		return
	}
	f := usable[q.env.Rand().Intn(len(usable))]
	fo.server = f
	fo.recruited = q.env.Now()
	fo.tried[f] = true
	q.stats.FailoverAttempts++

	// Push our row to the new rendezvous right away; it will answer with
	// recommendations covering dst at its next tick. The push reuses the
	// current sequence number rather than bumping it: advancing q.seq here
	// would trip the pending retransmit closure's seq != q.seq guard and
	// silently cancel every outstanding round-1 retransmission in reliable
	// mode. Receivers accept an equal-sequence row with a newer timestamp,
	// so the fresher measurements still land.
	q.env.Send(q.view.IDAt(f), q.buildLinkState())
	q.stats.LinkStatesSent++
}

// FailoverServer returns the active failover rendezvous for dst, or -1.
func (q *Quorum) FailoverServer(dst int) int {
	if fo := q.failovers[dst]; fo != nil {
		return fo.server
	}
	return -1
}

// sendRecommendationsAsym is round 2 in asymmetric mode: best hops are
// computed per direction, since out- and in-costs differ (footnote 2). The
// sweep runs on the AsymTable's directional matrix pair — each source's
// out-row is packed into keys once and streamed across the later clients'
// contiguous in-rows (and, for the reverse direction, each later client's
// out-row against the source's in-row) — retiring the per-pair scalar
// BestOneHopAsym fallback this mode used to take.
func (q *Quorum) sendRecommendationsAsym() {
	now := q.env.Now()
	clients := q.atable.FreshSlots(q.clientsBuf[:0], now, q.cfg.Staleness)
	q.clientsBuf = clients
	if len(clients) == 0 {
		return
	}
	k := len(clients)
	if cap(q.recsBuf) < k {
		q.recsBuf = make([][]wire.RecEntry, k)
	}
	recs := q.recsBuf[:k]
	for i := range recs {
		recs[i] = recs[i][:0]
	}
	if cap(q.hopBuf) < 2*k {
		q.hopBuf = make([]lsdb.HopCost, 2*k)
	}

	hopID := func(hop int) wire.NodeID {
		if hop < 0 {
			return wire.NilNode
		}
		return q.view.IDAt(hop)
	}

	for i := 0; i < k; i++ {
		dsts := clients[i+1:]
		fwd := q.hopBuf[:len(dsts)]
		rev := q.hopBuf[k : k+len(dsts)]
		q.atable.BestOneHopAsymAll(clients[i], dsts, fwd)
		q.atable.BestOneHopAsymToRow(dsts, q.atable.InRow(clients[i]), rev)
		for z := range dsts {
			j := i + 1 + z
			recs[i] = append(recs[i], wire.RecEntry{Dst: q.view.IDAt(clients[j]), Hop: hopID(fwd[z].Hop), Cost: fwd[z].Cost})
			recs[j] = append(recs[j], wire.RecEntry{Dst: q.view.IDAt(clients[i]), Hop: hopID(rev[z].Hop), Cost: rev[z].Cost})
		}
	}

	// Pairs (self, client), both directions, with the live directional row
	// unpacked once per direction.
	selfRow := q.SelfAsymRow()
	q.costsBuf = lsdb.UnpackOutCosts(q.costsBuf[:0], selfRow)
	q.asymInBuf = lsdb.UnpackInCosts(q.asymInBuf[:0], selfRow)
	fwd := q.hopBuf[:k]
	rev := q.hopBuf[k : 2*k]
	q.atable.BestOneHopAsymRowAll(q.costsBuf, q.self, clients, fwd)
	q.atable.BestOneHopAsymToRow(clients, q.asymInBuf, rev)
	for i, c := range clients {
		q.install(c, RouteEntry{Hop: fwd[i].Hop, Cost: fwd[i].Cost, When: now, From: q.self, Source: SourceSelf})
		recs[i] = append(recs[i], wire.RecEntry{Dst: q.env.LocalID(), Hop: hopID(rev[i].Hop), Cost: rev[i].Cost})
	}
	for i, c := range clients {
		msg := wire.AppendRecommendation(nil, q.env.LocalID(), wire.Recommendation{
			ViewVersion: q.view.VersionNum(),
			Entries:     recs[i],
		})
		q.env.Send(q.view.IDAt(c), msg)
		q.stats.RecommendationsSent++
	}
}
