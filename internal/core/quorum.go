package core

import (
	"slices"
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
	// computing recommendations (default 3r, §6.2.2), and how long a received
	// recommendation stays authoritative before BestHop falls back to
	// neighbor link-state.
	Staleness time.Duration
	// DegradedHold is how long past Staleness an expired entry may still be
	// served as a last resort when no fallback exists, with a cost penalty
	// growing linearly with age (stale-row damping). This is the graceful
	// degradation used while the membership view is stale — a coordinator
	// failover or partition stalls view/recommendation flow, and blanking
	// routes would turn a control-plane hiccup into a data-plane outage.
	// Zero (the default) disables degraded mode; negative values also
	// disable it (the explicit off-switch for callers that fill defaults).
	DegradedHold time.Duration
	// DisableFailover turns off §4.1's rapid rendezvous failover, for the
	// ablation study.
	DisableFailover bool
	// Asymmetric runs the footnote 2 variant: round-1 rows carry both
	// directed costs (5 bytes per entry), the link-state table keeps an
	// in-cost matrix beside the out-cost one, and the same round 2 evaluates
	// each pair once per direction, so a→b and b→a may use different hops.
	// Requires the host to supply SelfAsymRow.
	Asymmetric bool
	// ReliableLinkState enables the §6.2.2 option: rendezvous servers
	// acknowledge round-1 rows and unacknowledged rows are retransmitted
	// once, trading a little bandwidth for loss tolerance. The option must
	// be enabled overlay-wide.
	ReliableLinkState bool
	// Workers caps the fork/join fan-out of the round-2 pair pass
	// (0 = GOMAXPROCS, 1 = serial). Each shard writes its pairs' entries at
	// fixed positions of the clients' messages, so the worker count never
	// changes the bytes sent.
	Workers int
}

func (c *QuorumConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.Staleness <= 0 {
		c.Staleness = 3 * c.Interval
	}
}

// retransmitTimeout is the reliable mode's ack wait before the single
// retransmission of a round-1 row.
const retransmitTimeout = 2 * time.Second

// remoteSilence is how long a rendezvous may go without recommending a route
// to a destination before the node declares a remote rendezvous failure for
// that destination: 2.5r plus a second (the paper bounds detection by one
// routing interval plus propagation).
func (c *QuorumConfig) remoteSilence() time.Duration { return c.Interval*5/2 + time.Second }

// deadRecheck is how long a destination declared dead is left alone before
// failover may be attempted again: 2r.
func (c *QuorumConfig) deadRecheck() time.Duration { return 2 * c.Interval }

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
	// PairsComputed counts directed client pairs evaluated by the one-hop
	// kernel in round 2. PairsCached is always zero: round 2 evaluates every
	// pair every interval (§3), and the field remains only because
	// benchmark/ reads it (the ledger's core.quorum.pairs_cached_share row).
	PairsComputed uint64
	PairsCached   uint64
	// ViewExtends counts view installs taken as stable extensions (per-slot
	// state preserved in place); ViewRemaps counts re-installs that could
	// not be and went cold (the name predates that: it is the ledger's
	// core.view_remaps row). The initial install counts as neither.
	ViewExtends uint64
	ViewRemaps  uint64
}

// silence holds §4.1's clocks by rendezvous and position: for the i-th server
// k of this node, slot[run[i]:run[i+1]] are the destinations whose rows k
// holds — k's clients less this node, and k itself — ascending, the order k's
// recommendations list its clients in (k itself comes last there), and
// heard[run[i]:run[i+1]] is, per destination, when (Unix ns) k last
// recommended a route to it, or when the pairing began: the view install that
// made k a default rendezvous of the destination. Every array is pointer-free,
// ten bytes a pairing.
type silence struct {
	servers []int // this node's servers, ascending
	run     []int32
	slot    []uint16
	heard   []int64
}

// server returns the destinations the i-th server holds and their clocks.
func (t *silence) server(i int) (slots []uint16, heard []int64) {
	lo, hi := t.run[i], t.run[i+1]
	return t.slot[lo:hi], t.heard[lo:hi]
}

// failoverState tracks §4.1 recovery for one destination.
type failoverState struct {
	server         int          // recruited failover rendezvous (-1 when none)
	heard          int64        // as silence's clocks, for server
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
	self int
	seq  uint32

	servers []int // g.Servers(self): the grid derives a set per call, round 1 reads this one every tick

	table *lsdb.Table // rows received from rendezvous clients (directional in asymmetric mode)
	routeTable

	// rv's clocks pair dst with its default rendezvous: the common set for
	// (self, dst) less this node, which always holds its own row. Only a view
	// install can reshape them.
	rv          silence
	failovers   []*failoverState // per destination slot; nil outside a failover episode
	pendingAcks []uint32         // per server slot: the row seq awaiting its ack, 0 when none; nil unless reliable
	stats       QuorumStats

	// SelfRow returns the node's current measured link-state row (owned by
	// the prober; read synchronously). Required.
	SelfRow func() []wire.LinkEntry
	// SelfAsymRow returns the directional row; required in asymmetric mode.
	SelfAsymRow func() []wire.AsymEntry
	// LinkAlive reports the prober's liveness belief for a slot. Required.
	LinkAlive func(slot int) bool
	// LinkResolved, if non-nil, reports whether any probe on the link to a slot
	// has resolved. A default rendezvous behind an unresolved link is unknown,
	// not dead: it still gets round 1's row and is no proximal failure (§4.1
	// acts on detected failures). Nil counts every link as resolved.
	LinkResolved func(slot int) bool

	// scratch buffers reused across ticks.
	live       []bool // per destination: some default rendezvous is live
	clientsBuf []int
	costsBuf   []wire.Cost // unpacked live self row (out-costs, then in-costs when directional)
	hopBuf     []lsdb.HopCost
	srcBuf     []wire.Cost // masked source row of the self-row kernel calls
}

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
// unaffected members (stored rows, route entries, silence clocks, failover
// episodes) is left bit-for-bit untouched. Any other install goes cold, as
// the first one does: empty tables and routes, no failover episode, every
// silence clock started now. Pending reliable-mode acks reset either way; the
// sequence number and cumulative stats survive both.
func (q *Quorum) SetView(view *membership.ViewInfo, self int) error {
	g, err := grid.NewMasked(view.Slots(), view.OccupiedMask())
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
	q.view, q.g, q.self, q.servers = view, g, self, g.Servers(self)
	if stable {
		q.table.Grow(n)
		q.routes = extend(q.routes, n)
		q.failovers = extend(q.failovers, n)
		for _, s := range retired {
			q.table.RetireSlot(s)
			q.failovers[s] = nil
		}
		// A retired slot is no episode's server and no longer "tried": whoever
		// is admitted into it is a candidate like any other.
		for _, fo := range q.failovers {
			if fo == nil {
				continue
			}
			for _, s := range retired {
				if fo.server == s {
					fo.server = -1
				}
				delete(fo.tried, s)
			}
		}
		retireRoutes(q.routes, retired)
	} else {
		if q.cfg.Asymmetric {
			q.table = lsdb.NewDirectionalTable(n)
		} else {
			q.table = lsdb.NewTable(n)
		}
		q.routes = make([]route, n)
		q.failovers = make([]*failoverState, n)
		q.rv = silence{}
	}
	q.table.SetTombstones(view.Tombstones())
	q.pairRendezvous(retired)
	q.live = make([]bool, n)
	if q.cfg.ReliableLinkState {
		q.pendingAcks = make([]uint32, n)
	}
	return nil
}

// extend returns s lengthened to n entries, the new ones zero. A per-slot
// table lives as long as the view, so the storage is exactly n long: append
// would leave spare capacity behind every stable extension.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(make([]T, 0, n), s...)[:n]
}

// pairRendezvous rebuilds the silence clocks for the view just installed. A
// pairing the previous table held keeps its clock unless the install retired
// either end of it; every other — a new or reused slot, a newly appointed
// deputy, everything after a cold install — starts now: grace runs from when
// a duty began, never from the last view change.
//
// k is a rendezvous of (self, dst) exactly when k is one of this node's servers
// and holds dst's row — dst is k or one of k's clients (the relation is
// symmetric) — so the clocks are laid out by walking the 2√n servers, ≈ 4n
// steps, not by intersecting two server sets per destination.
func (q *Quorum) pairRendezvous(retired []int) {
	now := q.env.Now().UnixNano()
	next := silence{servers: q.servers, run: make([]int32, len(q.servers)+1)}
	held := make([][]int, len(q.servers)) // per server, whose rows it holds, ascending
	for i, k := range q.servers {
		h := q.g.Clients(k) // ascending, without k
		at, _ := slices.BinarySearch(h, k)
		h = slices.Insert(h, at, k)
		if at, ok := slices.BinarySearch(h, q.self); ok {
			h = slices.Delete(h, at, at+1)
		}
		held[i] = h
		next.run[i+1] = next.run[i] + int32(len(h))
	}
	next.slot = make([]uint16, next.run[len(held)])
	next.heard = make([]int64, len(next.slot))
	for i, k := range q.servers {
		// k's previous run ascends like its new one: one merge pass carries
		// the clocks over.
		var oldSlots []uint16
		var oldHeard []int64
		if j, ok := slices.BinarySearch(q.rv.servers, k); ok && !slices.Contains(retired, k) {
			oldSlots, oldHeard = q.rv.server(j)
		}
		slots, heard := next.server(i)
		at := 0
		for j, dst := range held[i] {
			slots[j], heard[j] = uint16(dst), now
			for at < len(oldSlots) && int(oldSlots[at]) < dst {
				at++
			}
			if at < len(oldSlots) && int(oldSlots[at]) == dst && !slices.Contains(retired, dst) {
				heard[j] = oldHeard[at]
			}
		}
	}
	q.rv = next
}

// retireRoutes scrubs a route table of the slots a stable view extension
// retired: entries toward a retired destination or through a retired hop are
// dropped (the path no longer exists); a retired recommending rendezvous only
// clears the provenance.
func retireRoutes(routes []route, retired []int) {
	if len(retired) == 0 {
		return
	}
	for dst := range routes {
		r := &routes[dst]
		switch {
		case r.source == SourceNone:
		case slices.Contains(retired, dst) || slices.Contains(retired, int(r.hop)):
			*r = route{}
		case slices.Contains(retired, int(r.from)):
			r.from = -1
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
	q.table.Expire(q.env.Now(), q.cfg.Staleness+max(q.cfg.DegradedHold, 0))
	q.sendLinkState()
	q.sendRecommendations()
	q.detectFailures()
}

// usable reports whether the link to rendezvous k may be relied on: alive, or
// not yet resolved by any probe. Only a default server's link can be
// unresolved here — a failover is recruited over a live link.
func (q *Quorum) usable(k int) bool {
	return q.LinkAlive(k) || (q.LinkResolved != nil && !q.LinkResolved(k))
}

// activeServers appends the default servers with usable links plus any
// recruited failover servers with live ones, in destination order.
func (q *Quorum) activeServers(dst []int) []int {
	for _, s := range q.servers {
		if q.usable(s) {
			dst = append(dst, s)
		}
	}
	for _, fo := range q.failovers {
		if fo != nil && fo.server >= 0 && q.LinkAlive(fo.server) && !slices.Contains(dst, fo.server) {
			dst = append(dst, fo.server)
		}
	}
	return dst
}

// sendLinkState is round 1: the node's measured row goes to every active
// rendezvous server. In reliable mode each server owes an ack; rows still
// unacknowledged after retransmitTimeout are resent once.
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
	if q.cfg.ReliableLinkState && len(q.clientsBuf) > 0 {
		seq := q.seq
		view := q.view
		q.env.After(retransmitTimeout, func() { q.retransmit(seq, view.VersionNum(), msg) })
	}
}

// retransmit resends the round-1 row to servers that never acknowledged it,
// in slot order.
func (q *Quorum) retransmit(seq uint32, viewVersion uint32, msg []byte) {
	if q.view.VersionNum() != viewVersion || seq != q.seq {
		return // view changed or a newer row has superseded this one
	}
	for s, pending := range q.pendingAcks {
		if pending != seq {
			continue
		}
		q.pendingAcks[s] = 0 // single retransmission
		if q.LinkAlive(s) {
			q.env.Send(q.view.IDAt(s), msg)
			q.stats.LinkStatesSent++
			q.stats.Retransmits++
		}
	}
}

// HandleLinkStateAck clears a pending reliable-delivery ack. Outside reliable
// mode nothing is pending and the ack is dropped unread.
//
//lint:allocfree
func (q *Quorum) HandleLinkStateAck(h wire.Header, body []byte) {
	if !q.cfg.ReliableLinkState {
		return
	}
	seq, err := wire.ParseLinkStateAck(body)
	if err != nil {
		return
	}
	slot, ok := q.view.SlotOf(h.Src)
	if !ok {
		return
	}
	if q.pendingAcks[slot] == seq {
		q.pendingAcks[slot] = 0
	}
}

// buildLinkState encodes the current measurements at the current sequence
// number, in the configured row format, packed by the view's occupancy.
func (q *Quorum) buildLinkState() []byte {
	if q.cfg.Asymmetric {
		return wire.PackLinkState(wire.AppendLinkStateAsym(nil, q.env.LocalID(), wire.LinkStateAsym{
			ViewVersion: q.view.VersionNum(),
			Seq:         q.seq,
			Entries:     q.SelfAsymRow(),
		}), q.view.Tombstones())
	}
	return wire.PackLinkState(wire.AppendLinkState(nil, q.env.LocalID(), wire.LinkState{
		ViewVersion: q.view.VersionNum(),
		Seq:         q.seq,
		Entries:     q.SelfRow(),
	}), q.view.Tombstones())
}

// selfCosts unpacks the live self row, in the configured row format, into
// costsBuf: the node's out-costs self→h and its in-costs h→self, which are
// one slice when rows carry one cost per link.
func (q *Quorum) selfCosts() (out, in []wire.Cost) {
	if q.cfg.Asymmetric {
		row := q.SelfAsymRow()
		q.costsBuf = lsdb.UnpackInCosts(lsdb.UnpackOutCosts(q.costsBuf[:0], row), row)
		return q.costsBuf[:len(row):len(row)], q.costsBuf[len(row):]
	}
	q.costsBuf = lsdb.UnpackCosts(q.costsBuf[:0], q.SelfRow())
	return q.costsBuf, q.costsBuf
}

// shardMinClients is the smallest fresh-client count worth forking the
// round-2 pair pass across workers; below it the fork/join overhead dominates.
const shardMinClients = 32

// sendRecommendations is round 2: acting as a rendezvous server, compute the
// best one-hop route for every pair of clients with fresh rows and send each
// client one message covering all its pairs. The node also serves itself:
// routes between it and each client are computed and installed locally.
//
// Every pair is evaluated every interval (§3), per direction — a→b from a's
// out-costs and b's in-costs, b→a the other way round — except that on a
// symmetric table the two are one computation and the reverse result is the
// forward slice.
func (q *Quorum) sendRecommendations() {
	now := q.env.Now()
	clients := q.table.FreshSlots(q.clientsBuf[:0], now, q.cfg.Staleness)
	q.clientsBuf = clients
	if len(clients) == 0 {
		return
	}
	k := len(clients)

	// One message per client, written in place: an entry per other client, then
	// this node. The network keeps a payload until delivery: none is reused.
	src, version := q.env.LocalID(), q.view.VersionNum()
	msgs := make([][]byte, k)
	for i := range msgs {
		msgs[i] = wire.NewRecommendation(src, version, k)
	}
	q.clientPairs(clients, msgs)

	// Pairs (self, client): install the route to the client locally and tell
	// the client its route to us, which completes its message.
	fwd, rev := q.sweep(clients)
	nowNs := now.UnixNano()
	for i, c := range clients {
		q.install(c, route{when: nowNs, hop: int32(fwd[i].Hop), from: int32(q.self), cost: fwd[i].Cost, source: SourceSelf})
		back := turned(rev[i], q.self, c)
		wire.PutRecEntry(msgs[i], k-1, wire.RecEntry{Dst: src, Hop: q.hopID(back.Hop), Cost: back.Cost})
		q.env.Send(q.view.IDAt(c), msgs[i])
		q.stats.RecommendationsSent++
	}
}

// hopID renders a kernel's hop slot as the node ID a recommendation carries.
func (q *Quorum) hopID(hop int) wire.NodeID {
	if hop < 0 {
		return wire.NilNode
	}
	return q.view.IDAt(hop)
}

// clientPairs evaluates every pair of clients and writes the results into both
// endpoints' pending messages: msgs[j] lists j's routes in client order, so
// the route to clients[m] is entry m, or m-1 past j itself. Sources are
// split into spans that only read the table, stage kernel output in
// span-local buffers and write disjoint entries of msgs, so the bytes sent do
// not depend on the worker count.
func (q *Quorum) clientPairs(clients []int, msgs [][]byte) {
	k := len(clients)
	workers := q.cfg.Workers
	if k < shardMinClients {
		workers = 1
	}
	table, directional := q.table, q.table.Directional()
	par.Spans(k-1, workers, func(lo, hi int) {
		var srcBuf []wire.Cost
		longest := k - 1 - lo // the span's first source has the most later clients
		fwd := make([]lsdb.HopCost, longest)
		rev := fwd
		if directional {
			rev = make([]lsdb.HopCost, longest)
		}
		for i := lo; i < hi; i++ {
			a, others := clients[i], clients[i+1:]
			fwd, rev := fwd[:len(others)], rev[:len(others)]
			srcBuf = table.BestOneHopAllRow(srcBuf, table.OutRow(a), a, others, fwd)
			if directional {
				srcBuf = table.BestOneHopToRow(srcBuf, others, table.InRow(a), rev)
			}
			for z, b := range others {
				j := i + 1 + z
				back := turned(rev[z], a, b)
				wire.PutRecEntry(msgs[i], j-1, wire.RecEntry{Dst: q.view.IDAt(b), Hop: q.hopID(fwd[z].Hop), Cost: fwd[z].Cost})
				wire.PutRecEntry(msgs[j], i, wire.RecEntry{Dst: q.view.IDAt(a), Hop: q.hopID(back.Hop), Cost: back.Cost})
			}
		}
	})
	pairs := k * (k - 1)
	if !directional {
		pairs /= 2
	}
	q.stats.PairsComputed += uint64(pairs)
}

// turned reads a symmetric table's a→b result from b's end: the same cost
// and intermediary, except that the kernel names the direct path by its
// destination, which from b is a. A directional b→a result never names its
// own source b, so turning one changes nothing.
func turned(hc lsdb.HopCost, a, b int) lsdb.HopCost {
	if hc.Hop == b {
		hc.Hop = a
	}
	return hc
}

// sweep evaluates the routes between this node — whose live row no table
// stores; it is unpacked once for the whole batch — and every client: fwd[i]
// is self→clients[i], rev[i] is clients[i]→self. On a symmetric table rev is
// fwd. The results alias hopBuf and are valid until the next sweep.
func (q *Quorum) sweep(clients []int) (fwd, rev []lsdb.HopCost) {
	rowOut, rowIn := q.selfCosts()
	k := len(clients)
	if cap(q.hopBuf) < 2*k {
		q.hopBuf = make([]lsdb.HopCost, 2*k)
	}
	fwd, rev = q.hopBuf[:k], q.hopBuf[k:2*k]
	q.srcBuf = q.table.BestOneHopAllRow(q.srcBuf, rowOut, q.self, clients, fwd)
	q.stats.PairsComputed += uint64(k)
	if !q.table.Directional() {
		return fwd, fwd
	}
	q.srcBuf = q.table.BestOneHopToRow(q.srcBuf, clients, rowIn, rev)
	q.stats.PairsComputed += uint64(k)
	return fwd, rev
}

// HandleLinkState implements Router: stores a client's row (making the
// sender a rendezvous client of this node, including failover clients who
// recruited us), scattered from the wire straight into the table. Only the
// configured row format is accepted: a symmetric row carries no directional
// data, and a directional one has no place in a symmetric table. Nothing of
// the body is read before the sender is known to be another member.
//
//lint:allocfree
func (q *Quorum) HandleLinkState(h wire.Header, body []byte) {
	slot, ok := q.view.SlotOf(h.Src)
	if !ok || slot == q.self || (h.Type == wire.TLinkStateAsym) != q.cfg.Asymmetric {
		return
	}
	version, seq, entries, err := wire.LinkStateBody(h.Type, body)
	if err != nil || version != q.view.VersionNum() || len(entries) != q.table.RowBytes() {
		return
	}
	q.table.PutWire(slot, seq, q.env.Now(), entries)
	q.maybeAck(h.Src, seq)
}

// maybeAck acknowledges a received row in reliable mode.
func (q *Quorum) maybeAck(src wire.NodeID, seq uint32) {
	if q.cfg.ReliableLinkState {
		q.env.Send(src, wire.AppendLinkStateAck(nil, q.env.LocalID(), seq))
	}
}

// HandleRecommendation implements Router: installs round-2 best-hop
// recommendations. The latest recommendation for a destination wins, per the
// paper's footnote 11, whoever sent it. The body is walked in place.
//
//lint:allocfree
func (q *Quorum) HandleRecommendation(h wire.Header, body []byte) {
	version, k, err := wire.RecommendationHeader(body)
	if err != nil || version != q.view.VersionNum() {
		return
	}
	from, ok := q.view.SlotOf(h.Src)
	if !ok || from == q.self {
		return
	}
	now := q.env.Now().UnixNano()
	// A default rendezvous's entries list its clients in slot order, then
	// itself: they are walked against the run of clocks it shares with this
	// node, one merge pass, seeking afresh only where the order turns back.
	var slots []uint16
	var heard []int64
	if r, isServer := slices.BinarySearch(q.servers, from); isServer {
		slots, heard = q.rv.server(r)
	}
	at := 0
	for i := 0; i < k; i++ {
		e := wire.RecommendationEntry(body, i)
		dst, ok := q.view.SlotOf(e.Dst)
		if !ok || dst == q.self {
			continue
		}
		// Only a rendezvous this node relies on for dst — a default, the
		// recruited failover, or (a silent default recruited again) both —
		// was heard from; anyone else's word moves no clock.
		if at > 0 && int(slots[at-1]) >= dst {
			at, _ = slices.BinarySearch(slots, uint16(dst))
		}
		for at < len(slots) && int(slots[at]) < dst {
			at++
		}
		if at < len(slots) && int(slots[at]) == dst {
			heard[at] = now
			at++
		}
		if fo := q.failovers[dst]; fo != nil && fo.server == from {
			fo.heard = now
		}
		hop, ok := q.view.SlotOf(e.Hop)
		if !ok { // wire.NilNode, "no usable path", is nobody's ID either
			hop = -1
		}
		if hop == q.self || (hop < 0 && e.Cost != wire.InfCost) {
			continue // malformed entry: a route through its own source, or a usable cost but no hop
		}
		q.install(dst, route{when: now, hop: int32(hop), from: int32(from), cost: e.Cost, source: SourceRendezvous})
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
	r := q.routes[dst]
	if r.source != SourceNone && r.hop >= 0 && time.Duration(now.UnixNano()-r.when) <= q.cfg.Staleness {
		return r.entry(), true
	}
	selfOut, _ := q.selfCosts()
	hop, cost := q.table.BestOneHopVia(selfOut, dst, now, q.cfg.Staleness)
	if hop >= 0 && cost != wire.InfCost {
		return RouteEntry{Hop: hop, Cost: cost, When: now, From: -1, Source: SourceFallback}, true
	}
	via := func() (int, wire.Cost) {
		return q.table.BestOneHopVia(selfOut, dst, now, q.cfg.Staleness+q.cfg.DegradedHold)
	}
	if se, ok := staleHop(r.entry(), now, q.cfg.Staleness, q.cfg.DegradedHold, q.LinkAlive, via); ok {
		return se, true
	}
	return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
}

// rendezvousLive reports whether rendezvous k, last heard about dst at heard,
// is currently usable for reaching information about dst: the link to k is
// usable (else a proximal rendezvous failure) and k has recommended a route to
// dst recently enough (else a remote one). k == dst means the destination
// itself serves as the rendezvous (same row or column), in which case the link
// alone decides.
func (q *Quorum) rendezvousLive(k, dst int, heard, now int64) bool {
	return q.usable(k) && (k == dst || time.Duration(now-heard) <= q.cfg.remoteSilence())
}

// destinationSeemsAlive scans the client rows for evidence that dst is up —
// the paper's guard against the whole overlay failing over toward a dead
// node (§4.1).
func (q *Quorum) destinationSeemsAlive(dst int, now time.Time) bool {
	if q.LinkAlive(dst) {
		return true
	}
	for s := 0; s < q.view.Slots(); s++ {
		if s != dst && q.table.FreshAt(s, now, q.cfg.Staleness) && q.table.OutRow(s)[dst] != wire.InfCost {
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
	nowNs := now.UnixNano()
	// A destination is covered when any of its default rendezvous is live:
	// OR each usable server's verdicts over the run of clocks it holds.
	clear(q.live)
	for i, k := range q.servers {
		if !q.usable(k) {
			continue
		}
		slots, heard := q.rv.server(i)
		for j, dst := range slots {
			if int(dst) == k || time.Duration(nowNs-heard[j]) <= q.cfg.remoteSilence() {
				q.live[dst] = true
			}
		}
	}
	doubles := 0
	dead := 0
	for dst := 0; dst < q.view.Slots(); dst++ {
		if dst == q.self || !q.view.Occupied(dst) {
			continue
		}
		if q.live[dst] {
			q.failovers[dst] = nil // revert to the default rendezvous
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
		// Keep the current failover while it remains usable: its clock started
		// at recruitment, so a fresh recruit has one remoteSilence to produce
		// its first recommendation.
		if fo.server >= 0 && q.rendezvousLive(fo.server, dst, fo.heard, nowNs) {
			continue
		}
		// Dead-destination check after the initial failover attempt.
		if len(fo.tried) > 0 && !q.destinationSeemsAlive(dst, now) {
			fo.server = -1
			fo.suspendedUntil = now.Add(q.cfg.deadRecheck())
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
	fo.server, fo.heard = f, q.env.Now().UnixNano()
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
	if dst >= 0 && dst < len(q.failovers) && q.failovers[dst] != nil {
		return q.failovers[dst].server
	}
	return -1
}
