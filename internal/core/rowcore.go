package core

import (
	"bytes"
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
// The quorum sends a row after the view's first as a delta
// (wire.TLinkStateDelta) against the row before it: the entries that changed.
// A receiver holding that row rebuilds the new one exactly; one that does not
// refuses the delta with a link-state ack of seq 0, which no row carries, and
// the sender answers at once with its row in full. One encoding an interval
// serves every recipient, with no per-receiver state and no periodic full
// row. The full mesh, the paper's RON baseline, sends every row in full.
//
// The quorum, whose rendezvous pass reads each client row many times a tick,
// puts a row into the table as it arrives. The full mesh parks it (park): the
// checked row waits in a list sized to the view's slots, and apply puts the
// list into the table, in arrival order and with arrival times, before
// anything reads the table (expire, bestHop, installView, Table) or when the
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
	// wire, and prev the one at seq−1; nil while the view has none.
	row, prev []byte
	answered  []uint16 // slots whose refusal was answered since the last announce

	park   bool        // hold rows until the table is read
	parked []parkedRow // rows ingest took and apply has not, in arrival order

	costsBuf []wire.Cost // unpacked live self row (out-costs, then in-costs when directional)

	viewExtends, viewRemaps uint64 // installs taken as stable extensions; re-installs gone cold

	// SelfRow returns the node's current measured link-state row (owned by
	// the prober; read synchronously). Required.
	SelfRow func() []wire.LinkEntry
	// SelfAsymRow returns the directional row; required when the table is
	// directional.
	SelfAsymRow func() []wire.AsymEntry
}

// installView installs a view, with two outcomes. A stable extension
// (membership.StableExtension, the only change a coordinator reign makes)
// grows the table and routes in place and retires exactly the departed slots;
// any other install goes cold like the first: a fresh(n) table, no routes.
// seq and the counters survive both. The router's own state follows retired.
func (c *rowCore) installView(view *membership.ViewInfo, self int, fresh func(n int) *lsdb.Table) (retired []int, stable bool) {
	c.apply() // the parked rows are the old view's: they unpack by its slots
	retired, _, stable = membership.StableExtension(c.view, c.self, view, self)
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
	} else {
		c.table = fresh(n)
		c.routes = make([]route, n)
	}
	c.table.SetTombstones(view.Tombstones())
	c.row, c.prev, c.answered = nil, nil, c.answered[:0]
	if c.park && cap(c.parked) != n {
		c.parked = make([]parkedRow, 0, n)
	}
	return retired, stable
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
// degraded hold while degraded mode may still fall back on it.
func (c *rowCore) expire() {
	c.apply()
	c.table.Expire(c.env.Now(), c.staleness+max(c.hold, 0))
}

// announce starts row seq+1, the node's measured row in the table's format
// packed by the view's occupancy, and returns it in full.
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
	c.prev, c.row = c.row, wire.PackLinkState(msg, c.view.Tombstones())
	return c.row
}

// delta returns row seq, which announce built, as a delta against row seq−1
// for the members at slots to, or nil when the view has no row before it or
// the delta is expected to cost more bytes than the row in full. Each
// recipient saves the row's size less the delta's; one lacks row seq−1 and
// refuses the delta, drawing the ack and the row in full, about as often as
// the sender's probes to it go unanswered, the loss its self-row entry reads.
func (c *rowCore) delta(to []int) []byte {
	if c.prev == nil {
		return nil
	}
	form, size := c.form()
	rowLen := c.table.RowBytes()
	was, now := c.prev[len(c.prev)-rowLen:], c.row[len(c.row)-rowLen:]
	k := 0
	for i := 0; i < rowLen; i += size {
		if !bytes.Equal(was[i:i+size], now[i:i+size]) {
			k++
		}
	}
	members := rowLen / size
	saved := 100 * len(to) * (len(c.row) - wire.LinkStateDeltaSize(members, k, size))
	if c.lossPct(to)*(wire.LinkStateAckSize+len(c.row)+2*wire.PerPacketOverhead) >= saved {
		return nil
	}
	msg := wire.NewLinkStateDelta(c.env.LocalID(), c.view.VersionNum(), c.seq, form, members, k)
	k = 0
	for i := 0; i < rowLen; i += size {
		if !bytes.Equal(was[i:i+size], now[i:i+size]) {
			wire.PutDeltaEntry(msg, i/size, k, now[i:i+size])
			k++
		}
	}
	return msg
}

// lossPct sums the loss in percent the self row reads toward the slots to, a
// dead link's as 100.
func (c *rowCore) lossPct(to []int) (sum int) {
	pct := func(status byte) int {
		if status == wire.StatusDead {
			return 100
		}
		return int(status)
	}
	if c.table.Directional() {
		row := c.SelfAsymRow()
		for _, s := range to {
			sum += pct(row[s].Status)
		}
		return sum
	}
	row := c.SelfRow()
	for _, s := range to {
		sum += pct(row[s].Status)
	}
	return sum
}

// form returns the table's row type and the size of its entries.
func (c *rowCore) form() (wire.MsgType, int) {
	if c.table.Directional() {
		return wire.TLinkStateAsym, wire.AsymEntryLen
	}
	return wire.TLinkState, wire.LinkEntryLen
}

// answer answers a refusal from the member src at slot with row seq in full,
// once between announces.
func (c *rowCore) answer(src wire.NodeID, slot int) {
	if c.row == nil || slices.Contains(c.answered, uint16(slot)) {
		return
	}
	c.answered = append(c.answered, uint16(slot))
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

// ingest scatters a well-formed row — another member's, in the table's
// format, built against this view, an entry per member — from the wire into
// the table, or parks it, reading no body byte before the sender is known. It
// reports the seq of every well-formed row, whether the table keeps it or
// holds a newer one.
//
//lint:allocfree
func (c *rowCore) ingest(h wire.Header, body []byte) (seq uint32, ok bool) {
	slot, ok := c.view.SlotOf(h.Src)
	if form, _ := c.form(); !ok || slot == c.self || h.Type != form {
		return 0, false
	}
	version, seq, entries, err := wire.LinkStateBody(h.Type, body)
	if err != nil || version != c.view.VersionNum() || len(entries) != c.table.RowBytes() {
		return 0, false
	}
	if !c.park {
		c.table.PutWire(slot, seq, c.env.Now(), entries)
		return seq, true
	}
	if len(c.parked) == cap(c.parked) {
		c.apply()
	}
	c.parked = c.parked[:len(c.parked)+1]
	c.parked[len(c.parked)-1] = parkedRow{entries: entries, when: c.env.Now().UnixNano(), seq: seq, slot: uint16(slot)}
	return seq, true
}

// patch is ingest for a delta, which only the quorum sends: the table takes
// it (lsdb.Table.PutDelta) when it holds the row before it, and refuses it,
// with a link-state ack of seq 0 to the sender, when it does not. It reports
// the seq of every well-formed delta the table takes or holds a newer row
// than.
//
//lint:allocfree
func (c *rowCore) patch(h wire.Header, body []byte) (seq uint32, ok bool) {
	slot, ok := c.view.SlotOf(h.Src)
	if !ok || slot == c.self {
		return 0, false
	}
	d, err := wire.LinkStateDeltaBody(body)
	if form, _ := c.form(); err != nil || d.ViewVersion != c.view.VersionNum() || d.Form != form || d.Members*d.EntryLen() != c.table.RowBytes() {
		return 0, false
	}
	if c.table.PutDelta(slot, c.env.Now(), &d) == lsdb.Refused {
		c.env.Send(h.Src, wire.AppendLinkStateAck(nil, c.env.LocalID(), 0))
		return 0, false
	}
	return d.Seq, true
}

// bestHop is both routers' BestHop (§4.2): the installed route while fresh,
// else the best one-hop over the self row and the fresh rows held, else the
// damped last-known-good entry (staleHop) whose first hop alive vouches for.
func (c *rowCore) bestHop(dst int, alive func(slot int) bool) (RouteEntry, bool) {
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
	if se, ok := staleHop(r.entry(), now, c.staleness, c.hold, alive, via); ok {
		return se, true
	}
	return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
}

// Table exposes the received-rows database (read-only), parked rows applied.
func (c *rowCore) Table() *lsdb.Table {
	c.apply()
	return c.table
}
