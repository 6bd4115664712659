package core

import (
	"slices"
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// rowCore is the link-state half Quorum and FullMesh embed, so that the
// paper's comparison is like for like: both take, age out, announce and fall
// back on rows (§4.2), and install views, by these rules. The row format is
// the table's: a directional one (footnote 2) takes TLinkStateAsym rows and
// announces SelfAsymRow, a symmetric one TLinkState rows and SelfRow.
//
// The quorum sends a row after its first as a delta (wire.TLinkStateDelta):
// the entries whose cost changed since the delta's base. A delta names its
// base; the receiver takes it iff it holds that base (lsdb.Table.PutDelta).
// An interval's delta is against the row before it, and names no base. A
// stable view install onto the next version keeps that row, rebased into the
// new view's packing; any other drops it, and the next row goes in full
// (installView). A receiver that lacks the base refuses the delta
// (wire.AppendLinkStateRefusal), naming the sender's row it holds when that
// row can base a delta, and the sender answers at once with its row as a
// delta from that base, or in full when it can build none (answer). Each
// member's change stamp, the seq at which its cost last changed, writes both
// (delta). One encoding an interval serves every recipient, with no
// per-receiver state and no periodic full row. The full mesh, the paper's RON
// baseline, sends every row in full.
//
// The quorum, whose rendezvous pass reads each client row many times a tick,
// puts a row into the table as it arrives. The full mesh parks it (park): the
// checked row waits in a list sized to the view's slots, and apply puts the
// list into the table, in arrival order and with arrival times, before
// anything reads the table (expire, BestHop, installView, Table) or when the
// list is full. Every reader sees the table eager ingest would have built,
// and the tick's full-table pass reads rows just written, not gone cold.
type rowCore struct {
	env  transport.Env
	view *membership.ViewInfo
	self int
	seq  uint32

	// staleness bounds the age of a row read and of a route served; hold is
	// degraded mode's grace past it (≤ 0 disables degraded mode).
	staleness, hold time.Duration

	table *lsdb.Table // rows received from peers
	routeTable

	// row is the full row announced at seq, as it went or would go on the
	// wire, while announced; after a stable install onto the next version it
	// is that row's entries alone, rebased into the new view's packing, until
	// the next announce; nil when there is neither. stamps holds, per member
	// of row, the seq (mod 256) at which its cost last changed, and floor is
	// the first seq since an install that kept no base: row seq is a delta
	// against any row from floor on within 255 seqs (delta).
	row       []byte
	announced bool
	stamps    []byte
	floor     uint32
	answered  answers // slots whose refusal was answered since the last announce

	park   bool        // hold rows until the table is read
	parked []parkedRow // rows ingest took and apply has not, in arrival order

	costsBuf []wire.Cost // unpacked live self row (out-costs, then in-costs when directional)

	viewExtends, viewRemaps uint64 // installs taken as stable extensions; re-installs gone cold

	// SelfRow returns the node's current announced link-state row (owned by
	// the prober; read synchronously). Required.
	SelfRow func() []wire.LinkEntry
	// SelfAsymRow returns the directional row; required when the table is
	// directional.
	SelfAsymRow func() []wire.AsymEntry
	// LinkAlive reports the prober's liveness belief for a slot, the one
	// both routers read (BestHop's staleHop, and the quorum's §4.1).
	// Required.
	LinkAlive func(slot int) bool
}

// installView installs a view, with two outcomes. A stable extension
// (membership.StableExtension, the only change a coordinator reign makes)
// grows the table and routes in place and retires exactly the departed slots;
// any other install goes cold like the first: a fresh(n) table, no routes.
// seq and the counters survive both. The router's own state follows retired,
// and next reports a stable extension onto the next version.
//
// A stable extension onto the next version keeps the row last announced and
// its stamps, rebased into the new view's packing, as the next delta's base.
// One that skipped a version keeps no base, and the rows the table holds base
// no delta (lsdb.Table.DropBases): in the views skipped a member may have
// left and come back to its slot (a promotion restores one), which a node
// that installed them reads as retired and started and one that did not as
// never gone. Both ends of a delta thus reach its view by the same installs.
func (c *rowCore) installView(view *membership.ViewInfo, self int, fresh func(n int) *lsdb.Table) (retired []int, stable, next bool) {
	c.apply() // the parked rows are the old view's: they unpack by its slots
	var started []int
	retired, started, stable = membership.StableExtension(c.view, c.self, view, self)
	next = stable && view.VersionNum() == c.view.VersionNum()+1
	if next && c.row != nil {
		// A started member's entry reads dead, as every held row of this
		// sender reads InfCost toward it, whatever its seq: its stamp is the
		// oldest, 255 seqs back.
		_, size := c.form()
		dead := make([]byte, size)
		dead[size-1] = wire.StatusDead // the status byte ends both entry forms
		c.row = rebase(c.row[len(c.row)-c.table.RowBytes():], dead, c.view, view, started)
		c.stamps = rebase(c.stamps, []byte{byte(c.seq + 1)}, c.view, view, started)
	} else {
		c.row, c.stamps = nil, nil
	}
	switch {
	case stable:
		c.viewExtends++
	case c.view != nil:
		c.viewRemaps++
	}
	n := view.Slots()
	c.view, c.self = view, self
	if stable {
		c.table.Grow(n)
		c.routes = extend(c.routes, n)
		for _, s := range retired {
			c.table.RetireSlot(s)
		}
		retireRoutes(c.routes, retired)
		if !next {
			c.table.DropBases()
		}
	} else {
		c.table = fresh(n)
		c.routes = make([]route, n)
	}
	c.table.SetTombstones(view.Tombstones())
	c.announced, c.answered = false, c.answered[:0]
	if c.park && cap(c.parked) != n {
		c.parked = make([]parkedRow, 0, n)
	}
	return retired, stable, next
}

// rebase translates entries, one of len(fill) bytes per member of the view
// old — a row or its stamps — into the packing of next, a stable extension of
// old that started the members at started (ascending): a member of both views
// keeps its entry, one the extension started, in an appended or a reused
// slot, gets fill, and a tombstone drops out. A receiver holding the row
// rebuilds the same costs, for its held row reads InfCost toward every
// started slot (lsdb.Table.Grow, RetireSlot), and a row's started entry
// reads dead.
func rebase(entries, fill []byte, old, next *membership.ViewInfo, started []int) []byte {
	size := len(fill)
	out := make([]byte, 0, next.N()*size)
	i := 0 // entries' index of slot s, while s is in old's slot space
	for s := range next.Slots() {
		switch {
		case len(started) > 0 && started[0] == s:
			started = started[1:]
			out = append(out, fill...)
		case next.Occupied(s):
			out = append(out, entries[i*size:][:size]...)
		}
		if s < old.Slots() && old.Occupied(s) {
			i++
		}
	}
	return out
}

// parkedRow is a checked row waiting for apply. Its entry bytes alias the
// delivered payload, which the Env never writes again (transport.Handler).
type parkedRow struct {
	entries []byte
	when    int64 // arrival, Unix ns
	seq     uint32
	slot    uint16
}

// apply puts the parked rows into the table as ingest would have on arrival,
// and empties the list, letting go of the payloads.
//
//lint:allocfree
func (c *rowCore) apply() {
	for _, p := range c.parked {
		c.table.PutWire(int(p.slot), p.seq, time.Unix(0, p.when), p.entries)
	}
	clear(c.parked)
	c.parked = c.parked[:0]
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
			r.from = noSlot
		}
	}
}

// expire drops every row too old to be read: past staleness, plus the
// degraded hold while degraded mode may still fall back on it (readable).
func (c *rowCore) expire() {
	c.apply()
	c.table.Expire(c.env.Now(), c.readable())
}

// readable is the age past which no reader reads a row.
func (c *rowCore) readable() time.Duration { return c.staleness + max(c.hold, 0) }

// announce starts row seq+1, the node's measured row in the table's format
// packed by the view's occupancy, stamps it, and returns it in full.
func (c *rowCore) announce() []byte {
	c.seq++
	c.answered = c.answered[:0]
	var msg []byte
	if c.table.Directional() {
		msg = wire.AppendLinkStateAsym(nil, c.env.LocalID(), wire.LinkStateAsym{
			ViewVersion: c.view.VersionNum(),
			Seq:         c.seq,
			Entries:     c.SelfAsymRow(),
		})
	} else {
		msg = wire.AppendLinkState(nil, c.env.LocalID(), wire.LinkState{
			ViewVersion: c.view.VersionNum(),
			Seq:         c.seq,
			Entries:     c.SelfRow(),
		})
	}
	msg = wire.PackLinkState(msg, c.view.Tombstones())
	c.stamp(msg)
	c.row, c.announced = msg, true
	return msg
}

// stamp records the members' change stamps for next, row seq, against row,
// the one before it or the base an install kept. With no row before it, seq
// is the floor and stamps every member. An entry changed when its cost did
// (costChanged): the loss byte of a link alive at the same latency goes only
// in full rows and with an entry whose cost changed, since no receiver reads
// it — lsdb keeps costs. If a receiver ever reads loss (a loss-aware metric),
// this rule must compare it too.
//
// A stamp is a byte, so an entry unchanged for 255 seqs stays at that age,
// its stamp stepping with seq: it never reads as changed since a base within
// reach, and a base further back gets the full row.
func (c *rowCore) stamp(next []byte) {
	form, size := c.form()
	rowLen := c.table.RowBytes()
	now, at := next[len(next)-rowLen:], byte(c.seq)
	if c.row == nil {
		c.floor = c.seq
		c.stamps = slices.Repeat([]byte{at}, rowLen/size)
		return
	}
	was := c.row[len(c.row)-rowLen:]
	for i := range c.stamps {
		switch {
		case costChanged(form, was, now, i):
			c.stamps[i] = at
		case c.stamps[i] == at: // 256 seqs unchanged
			c.stamps[i] = at + 1
		}
	}
}

// delta returns row seq, which announce built, as a delta against row since:
// the members whose stamp is after since. It returns nil when it can build
// none: since is not below seq, is below the floor, or lies more than 255
// seqs back, past what a stamp tells apart. It is the one writer of both the
// interval's delta (deltaFor) and a refusal's answer (answer).
func (c *rowCore) delta(since uint32) []byte {
	if since < c.floor || since >= c.seq || c.seq-since > 255 {
		return nil
	}
	form, size := c.form()
	now := c.row[len(c.row)-c.table.RowBytes():]
	at, back := byte(c.seq), byte(c.seq-since) // a member changed since when its stamp is less than back seqs old
	k := 0
	for _, st := range c.stamps {
		if at-st < back {
			k++
		}
	}
	msg := wire.NewLinkStateDelta(c.env.LocalID(), c.view.VersionNum(), c.seq, since, form, len(c.stamps), k)
	k = 0
	for i, st := range c.stamps {
		if at-st < back {
			wire.PutDeltaEntry(msg, i, k, now[i*size:][:size])
			k++
		}
	}
	return msg
}

// deltaFor returns the interval's delta, row seq against row seq−1, for the
// members at slots to, or nil when there is none or it is expected to cost
// more bytes than the row in full. Each recipient saves the row's size less
// the delta's, and one that lacks row seq−1 refuses the delta, drawing the
// refusal and, priced at the row in full, the answer (pays).
func (c *rowCore) deltaFor(to []int) []byte {
	d := c.delta(c.seq - 1)
	if d == nil {
		return nil
	}
	refused, odds := 0.0, c.refusals()
	for _, s := range to {
		refused += odds(s)
	}
	if !pays(refused, len(to)*(len(c.row)-len(d)), wire.LinkStateAckSize, len(c.row)) {
		return nil
	}
	return d
}

// costChanged reports whether entry i of two rows of row type form carries
// a different cost: dead against alive, or another latency (either
// direction's, in the directional form).
func costChanged(form wire.MsgType, was, now []byte, i int) bool {
	if form == wire.TLinkStateAsym {
		a, b := wire.AsymEntryAt(was, i), wire.AsymEntryAt(now, i)
		return a.OutCost() != b.OutCost() || a.InCost() != b.InCost()
	}
	return wire.LinkEntryAt(was, i).Cost() != wire.LinkEntryAt(now, i).Cost()
}

// refusals returns, for the member at a slot, the odds that it lacks a
// delta's base and refuses it, from the loss p the self row, read once here,
// reads toward it, a dead link's as 1. In the steady state a recipient lacks
// the base when its delta was lost, or was refused and the refusal or the
// answer was lost: q = p + (1−p)·q·(1 − (1−p)²), so
// q = p / (1 − (1−p)(1 − (1−p)²)). The loss byte is a probe's round trip,
// more than a datagram's: read as p it errs toward full messages, which
// keeps route ages on heavily lossy links.
func (c *rowCore) refusals() func(slot int) float64 {
	odds := func(status byte) float64 {
		p := 1.0
		if wire.StatusAlive(status) {
			p = float64(status) / 100
		}
		a := 1 - p
		return p / (1 - a*(1-a*a))
	}
	if c.table.Directional() {
		row := c.SelfAsymRow()
		return func(s int) float64 { return odds(row[s].Status) }
	}
	row := c.SelfRow()
	return func(s int) float64 { return odds(row[s].Status) }
}

// pays reports whether a delta that saves saved bytes against sending in
// full is expected to save more than the refusals it draws cost, at refused
// of them expected (refusals), each a refusal of refusal bytes and an answer
// of answer bytes.
func pays(refused float64, saved, refusal, answer int) bool {
	return refused*float64(refusal+answer+2*wire.PerPacketOverhead) < float64(saved)
}

// form returns the table's row type and the size of its entries.
func (c *rowCore) form() (wire.MsgType, int) {
	if c.table.Directional() {
		return wire.TLinkStateAsym, wire.AsymEntryLen
	}
	return wire.TLinkState, wire.LinkEntryLen
}

// answer answers a refusal from the member src at slot, which holds row held
// as a base (0 for none), once between announces: with row seq as a delta
// from held, or in full when no delta from held can be built or it would be
// no shorter.
func (c *rowCore) answer(src wire.NodeID, slot int, held uint32) {
	if !c.announced || !c.answered.first(slot) {
		return
	}
	if d := c.delta(held); d != nil && len(d) < len(c.row) {
		c.env.Send(src, d)
		return
	}
	c.env.Send(src, c.row)
}

// selfCosts unpacks the live self row, in the table's row format, into
// costsBuf: the node's out-costs self→h and its in-costs h→self, which are
// one slice when rows carry one cost per link.
func (c *rowCore) selfCosts() (out, in []wire.Cost) {
	if c.table.Directional() {
		row := c.SelfAsymRow()
		c.costsBuf = lsdb.UnpackInCosts(lsdb.UnpackOutCosts(c.costsBuf[:0], row), row)
		return c.costsBuf[:len(row):len(row)], c.costsBuf[len(row):]
	}
	c.costsBuf = lsdb.UnpackCosts(c.costsBuf[:0], c.SelfRow())
	return c.costsBuf, c.costsBuf
}

// Shape implements Router: what the table fixes of every row it takes.
func (c *rowCore) Shape() wire.RowShape {
	form, size := c.form()
	return wire.RowShape{Version: c.view.VersionNum(), Form: form, Members: c.table.RowBytes() / size}
}

// ingest scatters a well-formed row of type t from src — another member's,
// in the table's format, built against this view, an entry per member —
// into the table, or parks it, and reports whether it did.
//
//lint:allocfree
func (c *rowCore) ingest(src wire.NodeID, t wire.MsgType, version, seq uint32, entries []byte) bool {
	slot, ok := c.view.SlotOf(src)
	if form, _ := c.form(); !ok || slot == c.self || t != form || version != c.view.VersionNum() || len(entries) != c.table.RowBytes() {
		return false
	}
	if !c.park {
		c.table.PutWire(slot, seq, c.env.Now(), entries)
		return true
	}
	if len(c.parked) == cap(c.parked) {
		c.apply()
	}
	c.parked = c.parked[:len(c.parked)+1]
	c.parked[len(c.parked)-1] = parkedRow{entries: entries, when: c.env.Now().UnixNano(), seq: seq, slot: uint16(slot)}
	return true
}

// patch is ingest for a well-formed delta, which only the quorum sends: the
// table takes it (lsdb.Table.PutDelta) when it holds the delta's base, and
// refuses it when it does not, naming to the sender the row of the sender's
// it holds as a base, if any (lsdb.Table.Base). A row is named only while
// expire keeps it a round trip longer, the reliable mode's ack wait
// (retransmitTimeout): an answer from a base released meanwhile would draw a
// second refusal, answered only after the sender's next announce. It reports
// what ingest does.
//
//lint:allocfree
func (c *rowCore) patch(src wire.NodeID, d *wire.DeltaBody) bool {
	slot, ok := c.view.SlotOf(src)
	if form, _ := c.form(); !ok || slot == c.self || d.ViewVersion != c.view.VersionNum() || d.Form != form || d.Members*d.EntryLen() != c.table.RowBytes() {
		return false
	}
	if c.table.PutDelta(slot, c.env.Now(), d) == lsdb.Refused {
		held := c.table.Base(slot, c.env.Now(), c.readable()-retransmitTimeout)
		c.env.Send(src, wire.AppendLinkStateRefusal(nil, c.env.LocalID(), held))
		return false
	}
	return true
}

// BestHop implements Router for both routers (§4.2): the installed route
// while fresh, else the best one-hop over the self row and the fresh rows
// held, else the damped last-known-good entry (staleHop) whose first hop
// LinkAlive vouches for.
func (c *rowCore) BestHop(dst int) (RouteEntry, bool) {
	if dst == c.self || dst < 0 || dst >= len(c.routes) {
		return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
	}
	now := c.env.Now()
	r := c.routes[dst]
	if r.source != SourceNone && r.hop != noSlot && time.Duration(now.UnixNano()-r.when) <= c.staleness {
		return r.entry(), true
	}
	c.apply()
	selfOut, _ := c.selfCosts()
	hop, cost := c.table.BestOneHopVia(selfOut, dst, now, c.staleness)
	if hop >= 0 && cost != wire.InfCost {
		return RouteEntry{Hop: hop, Cost: cost, When: now, From: -1, Source: SourceFallback}, true
	}
	via := func() (int, wire.Cost) {
		return c.table.BestOneHopVia(selfOut, dst, now, c.staleness+c.hold)
	}
	if se, ok := staleHop(r.entry(), now, c.staleness, c.hold, c.LinkAlive, via); ok {
		return se, true
	}
	return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
}

// Table exposes the received-rows database (read-only), parked rows applied.
func (c *rowCore) Table() *lsdb.Table {
	c.apply()
	return c.table
}
