package core

import (
	"slices"
	"time"

	"allpairs/internal/grid"
	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
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
	// Workers has no effect: round 2 runs on the router's own goroutine. The
	// field is a vestige kept because benchmark/ sets it (ROADMAP item 1).
	Workers int
	// disableFailover turns off §4.1's failover, leaving §4.2's fallback alone.
	disableFailover bool
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

// QuorumStats exposes the router's failure-handling counters.
type QuorumStats struct {
	// FailoverAttempts counts failover rendezvous recruitments.
	FailoverAttempts uint64
	// DoubleFailures is the number of destinations whose two default
	// rendezvous were both unusable at the last tick (Figure 11's metric).
	DoubleFailures int
	// DeadDestinations is the number of destinations whose guard failed at
	// the last tick: double failures that neither this node's probe nor any
	// fresh client row shows alive, so no failover was recruited for them.
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
// holds — k's clients less this node, and k itself — ascending: the run whose
// positions k's run-form recommendations name (messages). heard[run[i]:
// run[i+1]] is, per destination, when (Unix ns) k last recommended a route to
// it, or when the pairing began: the view install that made k a default
// rendezvous of the destination. said[run[i]:run[i+1]] is, per destination,
// the hop and cost k's last run-form message to name it named it with, or
// unsaid for a pairing none has named. Those its message at seq[i] named are
// the base of k's next delta; seq[i] is 0 while there is none. A stable
// install carries the clocks and said entries of every pairing it keeps
// (pairRendezvous), and seq when onto the next version (SetView). Every
// array is pointer-free, fourteen bytes a pairing.
type silence struct {
	servers []int // this node's servers, ascending
	run     []int32
	slot    []uint16
	heard   []int64
	said    []saidEntry
	seq     []uint32
}

// saidEntry is a named entry of a run-form recommendation: hop and cost.
type saidEntry struct {
	hop  wire.NodeID
	cost wire.Cost
}

// unsaid is the said entry of a pairing no message has named: no hop at a
// finite cost, which no rendezvous recommends and take refuses. A seq carried
// across an install is older than the pairings the install began, and their
// sender, whose base has no such pair, sends those entries whatever it holds.
var unsaid = saidEntry{hop: wire.NilNode}

// server returns the destinations the i-th server holds and their clocks.
func (t *silence) server(i int) (slots []uint16, heard []int64) {
	lo, hi := t.run[i], t.run[i+1]
	return t.slot[lo:hi], t.heard[lo:hi]
}

// failoverState tracks §4.1 recovery for one destination: an episode.
type failoverState struct {
	dst    int          // the destination
	server int          // recruited failover rendezvous (-1 when none)
	heard  int64        // as silence's clocks, for server
	tried  map[int]bool // candidates used this episode
}

// Quorum is the two-round grid-quorum router (§3) with the failure handling
// of §4: the row core (its table holds its rendezvous clients' rows,
// directional in asymmetric mode; its LinkAlive is §4.1's liveness belief
// too) plus the grid, both rounds and §4.1.
type Quorum struct {
	rowCore
	cfg QuorumConfig
	g   *grid.Grid

	servers []int // g.Servers(self): the grid derives a set per call, round 1 reads this one every tick

	// rv's clocks pair dst with its default rendezvous: the common set for
	// (self, dst) less this node, which always holds its own row. Only a view
	// install can reshape them.
	rv          silence
	failovers   []failoverState // the open episodes, by ascending destination
	pendingAcks []uint32        // per server slot: the row seq awaiting its ack, 0 when none; nil unless reliable
	base        recBase         // what round 2 last sent its default clients
	refusal     []byte          // this node's refusal of a recommendation delta, at the view's version
	stats       QuorumStats

	// LinkResolved, if non-nil, reports whether any probe on the link to a slot
	// has resolved. A default rendezvous behind an unresolved link is unknown,
	// not dead: it still gets round 1's row and is no proximal failure (§4.1
	// acts on detected failures). Nil counts every link as resolved.
	LinkResolved func(slot int) bool

	// scratch buffers reused across ticks.
	live       []bool // per destination: some default rendezvous is live
	clientsBuf []int  // round 2's clients, the fresh ones, ascending
	rowTo      []int  // the servers round 1 sends rows to (activeServers)
	rode       []int  // those whose row rode behind a recommendation this tick
	hopBuf     []lsdb.HopCost
	srcBuf     []wire.Cost     // masked source row of round 2's kernel calls
	order      []uint16        // round 2's layout (layout): per client, its place
	runPos     []uint16        // per place in the run, its position in the full run
	runSlot    []uint16        // per place in the run, its slot
	runBits    []byte          // a bitmap over the full run of the positions in the run
	selfAt     uint16          // this node's place
	stage      []wire.RecEntry // the tick's entries about failover clients and theirs (staged), none past it
}

// NewQuorum creates a quorum router for the node at slot self of view.
func NewQuorum(env transport.Env, cfg QuorumConfig, view *membership.ViewInfo, self int) (*Quorum, error) {
	cfg.fill()
	q := &Quorum{rowCore: rowCore{env: env, staleness: cfg.Staleness, hold: cfg.DegradedHold}, cfg: cfg}
	if err := q.SetView(view, self); err != nil {
		return nil, err
	}
	return q, nil
}

// SetView installs a new membership view (rowCore.installView). The grid
// spans the view's slot space, tombstones masked out, so a stable extension
// leaves the silence clocks and failover episodes of unaffected members
// bit-for-bit untouched; a cold install opens no episode and starts every
// clock now. Pending acks reset either way. Both ends' recommendation bases
// carry across a stable extension onto the next version (recBase.carry,
// pairRendezvous) and reset on any other install. A view the grid cannot
// span is refused before anything changes.
func (q *Quorum) SetView(view *membership.ViewInfo, self int) error {
	g, err := grid.NewMasked(view.Slots(), view.OccupiedMask())
	if err != nil {
		return err
	}
	fresh := lsdb.NewTable
	if q.cfg.Asymmetric {
		fresh = lsdb.NewDirectionalTable
	}
	retired, stable, next := q.installView(view, self, fresh)
	old := q.servers
	q.g, q.servers = g, g.Servers(self)
	if stable {
		q.failovers = slices.DeleteFunc(q.failovers, func(fo failoverState) bool { return slices.Contains(retired, fo.dst) })
		// A retired slot is no episode's server and no longer "tried": whoever
		// is admitted into it is a candidate like any other.
		for i := range q.failovers {
			fo := &q.failovers[i]
			for _, s := range retired {
				if fo.server == s {
					fo.server = -1
				}
				delete(fo.tried, s)
			}
		}
	} else {
		q.failovers = nil
		q.rv = silence{}
	}
	q.pairRendezvous(retired)
	if next {
		q.base.carry(old, q.servers, self, retired)
	} else {
		clear(q.rv.seq)
		q.base.reset(len(q.servers)+1, q.cfg.Asymmetric)
	}
	q.refusal = wire.AppendRecommendation(nil, q.env.LocalID(), wire.Recommendation{ViewVersion: view.VersionNum()})
	q.live = make([]bool, view.Slots())
	if q.cfg.ReliableLinkState {
		q.pendingAcks = make([]uint32, view.Slots())
	}
	return nil
}

// pairRendezvous rebuilds the silence clocks for the view just installed. A
// pairing the previous table held keeps its clock unless the install retired
// either end of it; every other — a new or reused slot, a newly appointed
// deputy, everything after a cold install — starts now: grace runs from when
// a duty began, never from the last view change. The same merge carries the
// deltas' base: a kept pairing's said entry and a kept server's seq.
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
	next.said, next.seq = make([]saidEntry, len(next.slot)), make([]uint32, len(q.servers))
	for i, k := range q.servers {
		// k's previous run ascends like its new one: one merge pass carries
		// the clocks over, and the base.
		var oldSlots []uint16
		var oldHeard []int64
		var oldSaid []saidEntry
		if j, ok := slices.BinarySearch(q.rv.servers, k); ok && !slices.Contains(retired, k) {
			oldSlots, oldHeard = q.rv.server(j)
			oldSaid, next.seq[i] = q.rv.said[q.rv.run[j]:q.rv.run[j+1]], q.rv.seq[j]
		}
		slots, heard := next.server(i)
		said := next.said[next.run[i]:next.run[i+1]]
		at := 0
		for j, dst := range held[i] {
			slots[j], heard[j], said[j] = uint16(dst), now, unsaid
			for at < len(oldSlots) && int(oldSlots[at]) < dst {
				at++
			}
			if at < len(oldSlots) && int(oldSlots[at]) == dst && !slices.Contains(retired, dst) {
				heard[j], said[j] = oldHeard[at], oldSaid[at]
			}
		}
	}
	q.rv = next
}

// Interval implements Router.
func (q *Quorum) Interval() time.Duration { return q.cfg.Interval }

// Stats returns a copy of the router's counters.
func (q *Quorum) Stats() QuorumStats {
	st := q.stats
	st.ViewExtends, st.ViewRemaps = q.viewExtends, q.viewRemaps
	return st
}

// Grid exposes the quorum layout (read-only).
func (q *Quorum) Grid() *grid.Grid { return q.g }

// Tick implements Router: one routing interval of the two-round protocol
// plus the failure-detection pass.
func (q *Quorum) Tick() {
	q.expire()
	q.sendRounds(q.linkState())
	q.detectFailures()
}

// usable reports whether the link to rendezvous k may be relied on: alive, or
// not yet resolved by any probe. Only a default server's link can be
// unresolved here — a failover is recruited over a live link.
func (q *Quorum) usable(k int) bool {
	return q.LinkAlive(k) || (q.LinkResolved != nil && !q.LinkResolved(k))
}

// activeServers appends the servers round 1 sends rows to (sendsRowsTo), each
// once: the default servers ascending, then the failover servers in their
// destinations' order.
func (q *Quorum) activeServers(dst []int) []int {
	for _, s := range q.servers {
		if q.sendsRowsTo(s) {
			dst = append(dst, s)
		}
	}
	for _, fo := range q.failovers {
		if fo.server >= 0 && !slices.Contains(dst, fo.server) && q.sendsRowsTo(fo.server) {
			dst = append(dst, fo.server)
		}
	}
	return dst
}

// linkState is round 1: the node's measured row, in full or as a delta, for
// every active rendezvous server (rowTo), which sendRounds sends it. In
// reliable mode each server owes an ack; rows still unacknowledged after
// retransmitTimeout are resent once, alone.
func (q *Quorum) linkState() []byte {
	msg := q.announce()
	q.rowTo = q.activeServers(q.rowTo[:0])
	if d := q.deltaFor(q.rowTo); d != nil {
		msg = d
	}
	if q.cfg.ReliableLinkState && len(q.rowTo) > 0 {
		for _, s := range q.rowTo {
			q.pendingAcks[s] = q.seq
		}
		seq := q.seq
		view := q.view
		q.env.After(retransmitTimeout, func() { q.retransmit(seq, view.VersionNum(), msg) })
	}
	return msg
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

// handleLinkStateAck answers a refusal with the current row, as a delta from
// the base the refuser names or in full (rowCore.answer), when the refuser is
// one of the rendezvous servers round 1 sends rows to (sendsRowsTo); an ack
// clears a pending reliable-delivery ack, and never draws an answer. Outside
// reliable mode nothing is pending.
//
//lint:allocfree
func (q *Quorum) handleLinkStateAck(h wire.Header, body []byte) {
	seq, refusal, err := wire.ParseLinkStateAck(body)
	if err != nil {
		return
	}
	slot, ok := q.view.SlotOf(h.Src)
	switch {
	case !ok || slot == q.self:
	case refusal:
		if q.sendsRowsTo(slot) {
			q.answer(h.Src, slot, seq)
		}
	case q.cfg.ReliableLinkState && q.pendingAcks[slot] == seq:
		q.pendingAcks[slot] = 0
	}
}

// sendsRowsTo reports whether round 1 sends rows to slot: a default server
// behind a usable link, or a recruited failover server behind a live one.
//
//lint:allocfree
func (q *Quorum) sendsRowsTo(slot int) bool {
	if slices.Contains(q.servers, slot) {
		return q.usable(slot)
	}
	for _, fo := range q.failovers {
		if fo.server == slot {
			return q.LinkAlive(slot)
		}
	}
	return false
}

// sendRounds is both rounds' one send pass: round 2's message to each client
// with a fresh row here (recommend), then round 1's row to every server in
// rowTo.
//
// A server of this node is one of its default clients, and the other way
// round (the grid relation is symmetric). When round 1 sends such a client
// the row and round 2 the run form or its delta, the row rides behind the
// recommendation in one datagram (wire.PutRide), but for a pair too large
// for one. Every other row goes alone, after the recommendations: to a
// failover server, or to a default server whose row this node holds none of
// fresh.
func (q *Quorum) sendRounds(row []byte) {
	now := q.env.Now()
	clients := q.table.FreshSlots(q.clientsBuf[:0], now, q.cfg.Staleness)
	q.clientsBuf = clients
	q.base.deltas, q.base.answered = q.base.deltas[:0], q.base.answered[:0]
	q.rode = q.rode[:0]
	if len(clients) > 0 {
		q.recommend(clients, row)
	}
	for _, s := range q.rowTo {
		if !slices.Contains(q.rode, s) {
			q.env.Send(q.view.IDAt(s), row)
			q.stats.LinkStatesSent++
		}
	}
}

// recommend is round 2: acting as a rendezvous server, compute the best
// one-hop route for every pair of clients, the fresh ones, and send each
// client one message covering all its pairs, round 1's row riding behind it
// where it may (ride). The node also serves itself: routes between it and
// each client are computed and installed locally.
//
// Every pair is evaluated every interval (§3), per direction — a→b from a's
// out-costs and b's in-costs, b→a the other way round — except that on a
// symmetric table the two are one computation and the reverse result is the
// forward slice. The kernel passes leave every pair of the run in the base
// and stage the rest; then each message is written once (recommendation), a
// default client's as a delta when it pays (recForm).
func (q *Quorum) recommend(clients []int, row []byte) {
	now := q.env.Now()
	q.layout(clients)
	q.clientPairs(clients)

	// Pairs (self, client): install the route to the client locally; the
	// client's route to us completes its message.
	fwd, rev := q.sweep(clients)
	src, nowNs := q.env.LocalID(), now.UnixNano()
	self := int(q.runPos[q.selfAt])
	for i, c := range clients {
		q.install(c, route{when: nowNs, hop: uint16(fwd[i].Hop), from: uint16(q.self), cost: fwd[i].Cost, source: SourceSelf})
		if o := q.order[i]; int(o) < len(q.runPos) {
			q.base.note(self, int(q.runPos[o]), fwd[i], rev[i], q.seq)
		} else {
			back := turned(rev[i], q.self, c)
			*q.staged(o, q.selfAt) = wire.RecEntry{Dst: src, Hop: q.hopID(back.Hop), Cost: back.Cost}
		}
	}
	// Every size is known now: the datagrams are allocated together, afresh,
	// for the network keeps a payload until delivery.
	refused, total := q.refusals(), 0
	for i, c := range clients {
		n := q.recSize(q.order[i], q.recForm(refused(c), q.order[i]))
		total += n + q.ride(i, n, row)
	}
	mem := make([]byte, total)
	for i, c := range clients {
		form := q.recForm(refused(c), q.order[i])
		n := q.recSize(q.order[i], form)
		ride := q.ride(i, n, row)
		msg := q.recommendation(mem[:n:n], q.order[i], form)
		if ride > 0 {
			wire.PutRide(mem[n:n+ride], row)
			msg = mem[: n+ride : n+ride]
			q.rode = append(q.rode, c)
			q.stats.LinkStatesSent++
		}
		mem = mem[n+ride:]
		if form == formDelta {
			q.base.deltas = append(q.base.deltas, uint16(c))
		}
		q.env.Send(q.view.IDAt(c), msg)
		q.stats.RecommendationsSent++
	}
	for _, p := range q.runPos {
		q.base.at[p] = q.seq
	}
	q.stage = nil
}

// ride returns how many bytes round 1's row adds riding behind the n-byte
// message to clients[i]: wire.RideSize(row) when that is a default client,
// sent the run form or its delta, that round 1 sends the row to (rowTo), and
// the two fit one datagram, else 0.
//
//lint:allocfree
func (q *Quorum) ride(i, n int, row []byte) int {
	if int(q.order[i]) >= len(q.runPos) || !slices.Contains(q.rowTo, q.clientsBuf[i]) || n+wire.RideSize(row) > wire.MaxDatagram {
		return 0
	}
	return wire.RideSize(row)
}

// layout lays out round 2's messages to clients. Every message lists this
// node and the clients but its addressee in one order: this node and the
// default clients ascending, the run, then the failover clients ascending.
// clients[i] has place order[i] in it, this node selfAt.
//
// The run, less the addressee, is a default client's run for this node —
// this node's grid clients and itself, ascending, less the client — or as
// much of it as has fresh rows here. runPos[o] is the o-th member's position
// in the full run, the run less nobody, and the default client is sent the
// run form, whose bitmap names those positions (wire.NewRecommendationRun). A
// failover client holds no run for this node and is sent the explicit form.
// runBits marks the run's positions in the full run: every default client's
// bitmap is it less the client's own bit (wire.PutRecRun). The tick's changed
// marks (recBase.note) start clear, and the stage is
// allocated for its failover clients, if any: it lives for the tick, for a
// node that once served many failover clients should not keep room for them.
func (q *Quorum) layout(clients []int) {
	k := len(clients)
	q.order = slices.Grow(q.order[:0], k)[:k]
	q.runPos, q.runSlot = q.runPos[:0], q.runSlot[:0]
	add := func(slot, pos int) uint16 {
		q.runPos, q.runSlot = append(q.runPos, uint16(pos)), append(q.runSlot, uint16(slot))
		return uint16(len(q.runPos) - 1)
	}
	below, _ := slices.BinarySearch(q.servers, q.self) // this node's run position
	placed := false
	for i, c := range clients {
		s, ok := slices.BinarySearch(q.servers, c)
		switch {
		case !ok:
			q.order[i] = noSlot // placed after the run
			continue
		case q.self < c:
			s++ // this node comes first in the run
			if !placed {
				q.selfAt, placed = add(q.self, below), true
			}
		}
		q.order[i] = add(c, s)
	}
	if !placed {
		q.selfAt = add(q.self, below)
	}
	failover := uint16(len(q.runPos))
	for i, o := range q.order {
		if o == noSlot {
			q.order[i], failover = failover, failover+1
		}
	}
	q.runBits = cleared(q.runBits, marksLen(len(q.servers)+2)) // a bit per position of the full run
	for _, p := range q.runPos {
		mark(q.runBits, int(p))
	}
	clear(q.base.changed)
	q.stage = make([]wire.RecEntry, (k+1-len(q.runPos))*(k+1+len(q.runPos)))
}

// staged returns where round 2 stages the entry of the member at place to
// about the one at place of, one of them a failover client: per failover
// client, every place's entry about it, then its entries about the run.
//
//lint:allocfree
func (q *Quorum) staged(to, of uint16) *wire.RecEntry {
	run, block := len(q.runPos), len(q.order)+1+len(q.runPos)
	if f := int(of) - run; f >= 0 {
		return &q.stage[f*block+int(to)]
	}
	return &q.stage[(int(to)-run)*block+len(q.order)+1+int(of)]
}

// place returns where the member at place of in round 2's common order sits in
// the message to the member at place to, which leaves its addressee out. The
// same holds of positions in a run.
func place(to, of uint16) int {
	if to < of {
		return int(of) - 1
	}
	return int(of)
}

// hopID renders a kernel's hop slot as the node ID a recommendation carries.
func (q *Quorum) hopID(hop int) wire.NodeID {
	if hop < 0 {
		return wire.NilNode
	}
	return q.view.IDAt(hop)
}

// clientPairs evaluates every pair of clients: a pair in the run goes into
// the base, any other into the stage, both ends' entries. The kernels' output
// goes through the buffers sweep keeps.
//
//lint:allocfree
func (q *Quorum) clientPairs(clients []int) {
	k := len(clients)
	table, directional := q.table, q.table.Directional()
	fwd, rev := q.hops(k)
	order, run := q.order[:k], uint16(len(q.runPos))
	for i := range k - 1 {
		a, others := clients[i], clients[i+1:]
		fwd, rev := fwd[:len(others)], rev[:len(others)]
		q.srcBuf = table.BestOneHopAllRow(q.srcBuf, table.OutRow(a), a, others, fwd)
		if directional {
			q.srcBuf = table.BestOneHopToRow(q.srcBuf, others, table.InRow(a), rev)
		}
		for z, b := range others {
			j := i + 1 + z
			if order[i] < run && order[j] < run {
				q.base.note(int(q.runPos[order[i]]), int(q.runPos[order[j]]), fwd[z], rev[z], q.seq)
				continue
			}
			back := turned(rev[z], a, b)
			*q.staged(order[i], order[j]) = wire.RecEntry{Dst: q.view.IDAt(b), Hop: q.hopID(fwd[z].Hop), Cost: fwd[z].Cost}
			*q.staged(order[j], order[i]) = wire.RecEntry{Dst: q.view.IDAt(a), Hop: q.hopID(back.Hop), Cost: back.Cost}
		}
	}
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
// fwd. The results alias hopBuf and are valid until the next kernel call.
func (q *Quorum) sweep(clients []int) (fwd, rev []lsdb.HopCost) {
	rowOut, rowIn := q.selfCosts()
	fwd, rev = q.hops(len(clients))
	q.srcBuf = q.table.BestOneHopAllRow(q.srcBuf, rowOut, q.self, clients, fwd)
	q.stats.PairsComputed += uint64(len(clients))
	if q.table.Directional() {
		q.srcBuf = q.table.BestOneHopToRow(q.srcBuf, clients, rowIn, rev)
		q.stats.PairsComputed += uint64(len(clients))
	}
	return fwd, rev
}

// hops returns round 2's kernel output for k clients: hopBuf, k entries long
// (2k on a directional table), split into the two directions; on a symmetric
// table rev is fwd.
//
//lint:allocfree
func (q *Quorum) hops(k int) (fwd, rev []lsdb.HopCost) {
	size := k
	if q.table.Directional() {
		size = 2 * k
	}
	if cap(q.hopBuf) < size {
		//lint:allowalloc grows with the client count
		q.hopBuf = make([]lsdb.HopCost, size)
	}
	return q.hopBuf[:k], q.hopBuf[size-k : size]
}

// HandleLinkState implements Router: a client's row is ingested
// (rowCore.ingest), or its delta patched in (rowCore.patch), which makes the
// sender a rendezvous client of this node, failover clients who recruited us
// included (ack). An ack goes to handleLinkStateAck and reports no version.
//
//lint:allocfree
func (q *Quorum) HandleLinkState(h wire.Header, body []byte) (uint32, bool) {
	switch h.Type {
	case wire.TLinkStateAck:
		q.handleLinkStateAck(h, body)
		return 0, false
	case wire.TLinkStateDelta:
		d, err := wire.LinkStateDeltaBody(body)
		if err == nil {
			q.ack(h.Src, d.Seq, q.patch(h.Src, &d))
		}
		return d.ViewVersion, err == nil
	}
	version, seq, entries, err := wire.LinkStateBody(h.Type, body)
	if err == nil {
		q.ack(h.Src, seq, q.ingest(h.Src, h.Type, version, seq, entries))
	}
	return version, err == nil
}

// ack acknowledges in reliable mode src's row or delta at seq, if kept.
func (q *Quorum) ack(src wire.NodeID, seq uint32, kept bool) {
	if kept && q.cfg.ReliableLinkState {
		q.env.Send(src, wire.AppendLinkStateAck(nil, q.env.LocalID(), seq))
	}
}

// HandleRecommendation is HandleRide for a recommendation body alone.
func (q *Quorum) HandleRecommendation(h wire.Header, body []byte) (uint32, bool) {
	rec, err := wire.RecommendationBody(body)
	if err != nil {
		return 0, false
	}
	return q.HandleRide(h, rec, wire.Ride{})
}

// HandleRide implements Router: the row that rode behind the recommendation,
// if any, is taken first, as HandleLinkState takes a lone one; then the
// recommendation installs its round-2 best-hop recommendations. The latest
// recommendation for a destination wins, per the paper's footnote 11,
// whoever sent it. The body is read in place.
//
// Only the run form moves §4.1's clocks. It is walked bit by bit against the
// run of clocks this node shares with its sender, which must be a default
// rendezvous: the bitmap must span that run and its explicit entries name
// members outside it, ascending. Anything else refuses the whole message. An
// explicit entry, in either form, installs its route and moves no clock.
//
// A run-form message older than the one said holds is ignored whole. A delta
// is rebuilt from what its sender said at its seq−1, which said holds (or at
// its seq, for a duplicate), and is then taken as the message in full.
// Without that base — said holds none, or the delta skips a seq — it moves
// the clocks its bitmap marks, installs its explicit entries and draws a
// refusal; its run entries, changed or not, wait for the answer. An
// explicit-form message of no entries is a client's refusal (answerRefusal).
//
//lint:allocfree
func (q *Quorum) HandleRide(h wire.Header, rec wire.RecBody, ride wire.Ride) (uint32, bool) {
	if r := &ride.Row; ride.Type == wire.TLinkStateDelta {
		q.ack(h.Src, r.Seq, q.patch(h.Src, r))
	} else if ride.Type != 0 {
		q.ack(h.Src, r.Seq, q.ingest(h.Src, ride.Type, r.ViewVersion, r.Seq, r.Entries()))
	}
	if rec.ViewVersion != q.view.VersionNum() {
		return rec.ViewVersion, true
	}
	from, ok := q.view.SlotOf(h.Src)
	if !ok || from == q.self {
		return rec.ViewVersion, true
	}
	if !rec.ByRun && rec.Entries == 0 {
		q.answerRefusal(h.Src, from)
		return rec.ViewVersion, true
	}
	now := q.env.Now().UnixNano()
	if rec.ByRun {
		r, isServer := slices.BinarySearch(q.servers, from)
		if !isServer {
			return rec.ViewVersion, true
		}
		slots, heard := q.rv.server(r)
		held := q.rv.seq[r]
		if rec.Run != len(slots) || !q.outsideRun(&rec, slots) || rec.Seq < held {
			return rec.ViewVersion, true
		}
		refused := rec.Delta && (held == 0 || rec.Seq > held+1)
		if refused {
			q.env.Send(h.Src, q.refusal)
		} else {
			q.rv.seq[r] = rec.Seq
		}
		said := q.rv.said[q.rv.run[r]:q.rv.run[r+1]]
		e, next := 0, rec.Position(0, -1)
		for p := rec.NextRun(0); p < rec.Run; p = rec.NextRun(p + 1) {
			heard[p] = now
			if refused {
				continue // waits for the answer
			}
			if p == next { // named in the run form, changed in the delta form
				entry := rec.Entry(e)
				said[p] = saidEntry{entry.Hop, entry.Cost}
				e++
				next = rec.Position(e, p)
			}
			q.take(from, int(slots[p]), wire.RecEntry{Hop: said[p].hop, Cost: said[p].cost}, now)
		}
	}
	for e := rec.Carried; e < rec.Entries; e++ {
		entry := rec.Entry(e)
		if dst, ok := q.view.SlotOf(entry.Dst); ok && dst != q.self {
			q.take(from, dst, entry, now)
		}
	}
	return rec.ViewVersion, true
}

// outsideRun reports whether a run-form message's explicit entries name
// members other than this node, outside run, in ascending slot order — so no
// destination twice: they are the sender's failover clients.
//
//lint:allocfree
func (q *Quorum) outsideRun(rec *wire.RecBody, run []uint16) bool {
	last := -1
	for e := rec.Carried; e < rec.Entries; e++ {
		dst, ok := q.view.SlotOf(rec.Entry(e).Dst)
		if !ok || dst == q.self || dst <= last {
			return false
		}
		if _, in := slices.BinarySearch(run, uint16(dst)); in {
			return false
		}
		last = dst
	}
	return true
}

// take installs rendezvous from's recommended route to dst, after hearing
// from from if it is dst's recruited failover.
//
//lint:allocfree
func (q *Quorum) take(from, dst int, e wire.RecEntry, now int64) {
	if i, ok := q.episode(dst); ok && q.failovers[i].server == from {
		q.failovers[i].heard = now
	}
	hop, ok := q.view.SlotOf(e.Hop)
	if !ok { // wire.NilNode, "no usable path", is nobody's ID either
		hop = -1
	}
	if hop == q.self || (hop < 0 && e.Cost != wire.InfCost) {
		return // malformed entry: a route through its own source, or a usable cost but no hop
	}
	q.install(dst, route{when: now, hop: uint16(hop), from: uint16(from), cost: e.Cost, source: SourceRendezvous})
}

// silent reports a remote rendezvous failure: rendezvous k, last heard about
// dst at heard, has gone remoteSilence without recommending a route to it.
// k == dst means the destination itself serves as the rendezvous (same row or
// column) and is never silent: the link alone decides. A rendezvous is live
// when its link is usable (else a proximal failure) and it is not silent.
func (q *Quorum) silent(k, dst int, heard, now int64) bool {
	return k != dst && time.Duration(now-heard) > q.cfg.remoteSilence()
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
			if !q.silent(k, int(dst), heard[j], nowNs) {
				q.live[dst] = true
			}
		}
	}
	doubles := 0
	dead := 0
	at := 0 // the episodes are walked along with dst
	for dst := 0; dst < q.view.Slots(); dst++ {
		if dst == q.self || !q.view.Occupied(dst) {
			continue
		}
		for at < len(q.failovers) && q.failovers[at].dst < dst {
			at++
		}
		open := at < len(q.failovers) && q.failovers[at].dst == dst
		if q.live[dst] {
			if open {
				q.failovers = slices.Delete(q.failovers, at, at+1) // revert to the default rendezvous
			}
			continue
		}
		doubles++
		if q.cfg.disableFailover {
			continue
		}
		if !open {
			q.failovers = slices.Insert(q.failovers, at, failoverState{dst: dst, server: -1, tried: make(map[int]bool)})
		}
		fo := &q.failovers[at]
		// Keep the current failover while it remains usable: its clock started
		// at recruitment, so a fresh recruit has one remoteSilence to produce
		// its first recommendation.
		if fo.server >= 0 && q.usable(fo.server) && !q.silent(fo.server, dst, fo.heard, nowNs) {
			continue
		}
		// The dead-destination guard runs before every recruitment, the
		// episode's first included: a member that crashed keeps its seat
		// until its lease ends, and chasing it would push a row and draw
		// recommendations about a node nobody can reach.
		if !q.destinationSeemsAlive(dst, now) {
			fo.server = -1
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

	// Push our row to the new rendezvous right away, in full, for it holds
	// none to patch; it will answer with recommendations covering dst at its
	// next tick. The push is the row round 1 announced this tick, at its
	// sequence number: advancing q.seq here would trip the pending retransmit
	// closure's seq != q.seq guard and silently cancel every outstanding
	// round-1 retransmission in reliable mode, and a sequence number names
	// one row, which the next delta relies on.
	if q.announced {
		q.env.Send(q.view.IDAt(f), q.row)
		q.stats.LinkStatesSent++
	}
}

// episode returns the index of dst's failover episode in failovers, or where
// one would go, and whether dst has one. It is a plain binary search, which
// inlines, where slices.BinarySearchFunc does not: every recommendation entry
// asks, almost always of an empty list.
func (q *Quorum) episode(dst int) (int, bool) {
	i, j := 0, len(q.failovers)
	for i < j {
		if h := (i + j) / 2; q.failovers[h].dst < dst {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(q.failovers) && q.failovers[i].dst == dst
}

// HeldRecommendation returns the base this node holds for deltas from its
// default rendezvous at slot k: the seq of k's run-form message it holds, 0
// for none, and per destination of k's run some message named, ascending, its
// slot and the hop and cost said of it. The entries of destinations that
// message did not name are older.
//
//lint:testonly TestHeldRowsAreAnnouncedRows (emul) holds them to what k computed at the seq
func (q *Quorum) HeldRecommendation(k int) (seq uint32, dsts []uint16, said []wire.RecEntry) {
	r, ok := slices.BinarySearch(q.servers, k)
	if !ok {
		return 0, nil, nil
	}
	slots, _ := q.rv.server(r)
	for i, e := range q.rv.said[q.rv.run[r]:q.rv.run[r+1]] {
		if e != unsaid {
			dsts, said = append(dsts, slots[i]), append(said, wire.RecEntry{Hop: e.hop, Cost: e.cost})
		}
	}
	return q.rv.seq[r], dsts, said
}

// FailoverServer returns the active failover rendezvous for dst, or -1.
//
//lint:testonly TestDeadFromStartRendezvousFailsOver (emul) waits on the recruit for one destination
func (q *Quorum) FailoverServer(dst int) int {
	if i, ok := q.episode(dst); ok {
		return q.failovers[i].server
	}
	return -1
}
