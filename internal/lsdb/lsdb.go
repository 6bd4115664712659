// Package lsdb implements the link-state database: the partial n×n matrix of
// estimated latency and liveness each node maintains (§5, "Table Exchange"),
// and the best-one-hop computation a rendezvous server runs over the rows of
// its clients.
//
// There is one table type. A row's costs are unpacked into flat cost rows
// when the owner puts the row (on arrival, or at the next read of the table
// for an owner that parks rows until then) and nothing else of the
// announcement is kept: one matrix serves both directions when rows carry one
// cost per link (the paper's bidirectional assumption), and a second matrix
// holds the in-direction when rows carry directed costs (footnote 2). Every
// kernel reads source costs from the out-direction and destination costs from
// the in-direction, so the two modes are one algorithm. The ingest step is
// part of this package: PutWire unpacks a row's wire entries straight into its
// cost row, eight 3-byte entries at a time (kernel.go's unpack primitive).
//
// Rows are indexed by grid slot (the node's position in the membership
// view), not by node ID. Slots are stable for a member's lifetime, so a table
// follows a chain of stable view extensions in place (Grow, RetireSlot) and
// is replaced by an empty one only when an install cannot be one. A row is
// bound to one view version: Put takes it slot-indexed, PutWire member-packed.
//
// Rows are held while readable: every reader bounds a row's age, so the owner
// calls Expire with the largest bound once per routing interval.
package lsdb

import (
	"time"

	"allpairs/internal/wire"
)

// Row is one node's announced link-state vector: its measured latency and
// liveness to every slot in the view.
type Row struct {
	Seq     uint32           // sender's sequence number, monotone per view
	When    time.Time        // local time the row was received/refreshed
	Entries []wire.LinkEntry // indexed by grid slot
}

// Table stores the most recent link-state row received from each slot as
// unpacked cost rows plus a slotMeta per slot. out row s holds
// the costs s→h announced by slot s and in row s the costs h→s; for a
// symmetric table (NewTable) they are the same matrix, for a directional one
// (NewDirectionalTable) two. The zero value is unusable.
type Table struct {
	n       int
	out, in *CostMatrix
	meta    []slotMeta

	tombstones []int // the view's unoccupied slots, ascending, which PutWire's rows skip

	// best and hop are BestOneHopViaAll's running minimum and intermediary per
	// destination, allocated by its first pass at the table's size (a quorum
	// table never runs one).
	best []wire.Cost
	hop  []uint16
}

// slotMeta is what the table remembers of the row a slot last announced: 16
// pointer-free bytes, so accepting a message touches one cache line of the
// table and the collector scans none of it.
type slotMeta struct {
	when    int64 // Unix ns the row was received or refreshed
	seq     uint32
	have    bool // the slot has announced a row
	held    bool // its costs are stored: a delta can patch them (PutDelta)
	unbased bool // DropBases came after the row: no delta can patch it
}

// NewTable returns an empty symmetric table for an n-slot view.
func NewTable(n int) *Table {
	m := newCostMatrix(n)
	return newTable(n, m, m)
}

func newTable(n int, out, in *CostMatrix) *Table {
	return &Table{
		n:    n,
		out:  out,
		in:   in,
		meta: make([]slotMeta, n),
	}
}

// Directional reports whether rows carry a cost per direction.
func (t *Table) Directional() bool { return t.in != t.out }

// Matrix exposes the out-direction cost matrix — the whole link state of a
// symmetric table (read-only).
func (t *Table) Matrix() *CostMatrix { return t.out }

// OutRow returns slot's unpacked costs slot→h (length n, all InfCost if no
// row is stored). The slice aliases the table and must not be modified.
func (t *Table) OutRow(slot int) []wire.Cost { return t.out.Row(slot) }

// InRow returns slot's unpacked costs h→slot: the same row as OutRow on a
// symmetric table.
func (t *Table) InRow(slot int) []wire.Cost { return t.in.Row(slot) }

// Have reports whether slot has announced a row (Expire may have dropped its costs).
//
//lint:testonly TestStrangerLinkStateTouchesNothing (core) and TestJoinAtScaleIsStableExtension (emul) read row metadata
func (t *Table) Have(slot int) bool { return slot >= 0 && slot < t.n && t.meta[slot].have }

// Seq returns the sequence number of slot's stored row (0 if none).
//
//lint:testonly TestStrangerLinkStateTouchesNothing (core) and TestJoinAtScaleIsStableExtension (emul) read row metadata
func (t *Table) Seq(slot int) uint32 { return t.meta[slot].seq }

// When returns the receive time of slot's stored row (zero if none).
//
//lint:testonly TestStrangerLinkStateTouchesNothing (core) and TestJoinAtScaleIsStableExtension (emul) read row metadata
func (t *Table) When(slot int) time.Time {
	if m := t.meta[slot]; m.have {
		return time.Unix(0, m.when).UTC()
	}
	return time.Time{}
}

// FreshAt reports whether slot has a row received within maxAge of now. The
// paper's rendezvous servers use measurements at most 3 routing intervals old
// (§6.2.2).
func (t *Table) FreshAt(slot int, now time.Time, maxAge time.Duration) bool {
	return t.freshAt(slot, now.UnixNano(), maxAge)
}

// freshAt is FreshAt for a caller that reads the clock once for many slots.
func (t *Table) freshAt(slot int, now int64, maxAge time.Duration) bool {
	m := &t.meta[slot]
	return m.have && time.Duration(now-m.when) <= maxAge
}

// accept decides whether a rowLen-entry announcement (seq, when) for slot may
// replace what the table holds, and if so records it as the slot's stored row,
// for the caller to unpack the costs: lower sequence numbers are rejected, as
// are equal-sequence rows whose When is older than the stored one, so a
// delayed duplicate can never roll back a refreshed timestamp.
//
//lint:allocfree
func (t *Table) accept(slot, rowLen int, seq uint32, when time.Time) bool {
	if slot < 0 || slot >= t.n || rowLen != t.n {
		return false
	}
	m, ns := &t.meta[slot], when.UnixNano()
	if m.have && (seq < m.seq || (seq == m.seq && ns < m.when)) {
		return false
	}
	*m = slotMeta{when: ns, seq: seq, have: true, held: true}
	return true
}

// Put stores a symmetric row for slot if it is not older than what the table
// already holds (see accept) and reports whether it was stored. The entries
// are unpacked and not retained. A directional table rejects it: the row has
// no in-costs to give.
func (t *Table) Put(slot int, row Row) bool {
	if t.Directional() || !t.accept(slot, len(row.Entries), row.Seq, row.When) {
		return false
	}
	out := t.out.rowFor(slot)
	for i, e := range row.Entries {
		out[i] = e.Cost()
	}
	return true
}

// SetTombstones installs the unoccupied slots, ascending, of the view the owner
// just installed, after any Grow. The table keeps the slice and never writes it.
func (t *Table) SetTombstones(tombstones []int) { t.tombstones = tombstones }

// RowBytes returns the size of a row's entries on the wire, one per member, in
// the table's row format.
func (t *Table) RowBytes() int {
	if t.Directional() {
		return (t.n - len(t.tombstones)) * wire.AsymEntryLen
	}
	return (t.n - len(t.tombstones)) * wire.LinkEntryLen
}

// PutWire is Put, on a directional table as well, for a member-packed row
// still in wire form: entries are the entry bytes wire.LinkStateBody returned,
// RowBytes of them, and are scattered straight into the slot-indexed stored
// row, tombstones reading InfCost, so refreshing a row allocates nothing.
//
//lint:allocfree
func (t *Table) PutWire(slot int, seq uint32, when time.Time, entries []byte) bool {
	if len(entries) != t.RowBytes() || !t.accept(slot, t.n, seq, when) {
		return false
	}
	if t.Directional() {
		asymLinkCosts(t.out.rowFor(slot), t.in.rowFor(slot), entries, t.tombstones)
	} else {
		linkCosts(t.out.rowFor(slot), entries, t.tombstones)
	}
	return true
}

// Take is what PutDelta made of a delta.
type Take uint8

// Take outcomes.
const (
	// Taken: stored, the slot's row now d.Seq.
	Taken Take = iota
	// Stale: at or below the stored sequence number, a duplicate, and dropped.
	Stale
	// Refused: the row it patches, d.Base, is not held — never received,
	// released by Expire, or overtaken by a lost row or by another — or not a
	// base (DropBases), so it cannot be rebuilt.
	Refused
)

// PutDelta stores slot's delta d, received at when, whose form and member
// count the caller has checked against the table's. A delta names its base;
// the table takes it iff it holds that base: when the stored row is d.Base
// (d.Seq−1 for a delta that names none) and can base a delta (Base), the
// changed entries are scattered over its costs, which then read as row d.Seq
// exactly, tombstones skipped.
//
//lint:allocfree
func (t *Table) PutDelta(slot int, when time.Time, d *wire.DeltaBody) Take {
	m := &t.meta[slot]
	switch {
	case m.have && d.Seq <= m.seq:
		return Stale
	case !m.held || m.unbased || m.seq != d.Base:
		return Refused
	}
	*m = slotMeta{when: when.UnixNano(), seq: d.Seq, have: true, held: true}
	out, in, entries := t.out.rowFor(slot), t.in.rowFor(slot), d.Entries()
	prefetch(out) // the changed entries are spread over the row: fetch its lines at once
	k, p := 0, -1 // tombstones below the member's slot; the member
	for e := range d.Changed {
		p = d.Member(e, p)
		for k < len(t.tombstones) && t.tombstones[k] <= p+k {
			k++
		}
		if t.Directional() {
			a := wire.AsymEntryAt(entries, e)
			out[p+k], in[p+k] = a.OutCost(), a.InCost()
		} else {
			out[p+k] = wire.LinkEntryAt(entries, e).Cost()
		}
	}
	return Taken
}

// Base returns the seq of slot's stored row when a delta can patch it —
// held, not unbased, and received within maxAge of now — for a refusal to
// name, and 0 when none can.
//
//lint:allocfree
func (t *Table) Base(slot int, now time.Time, maxAge time.Duration) uint32 {
	if m := t.meta[slot]; m.held && !m.unbased && t.freshAt(slot, now.UnixNano(), maxAge) {
		return m.seq
	}
	return 0
}

// linkCosts unpacks the entry bytes wire.LinkStateBody returned into row, one
// entry per slot in order but for the tombstones (ascending slots), which read
// InfCost.
//
//lint:allocfree
func linkCosts(row []wire.Cost, entries []byte, tombstones []int) {
	entryCosts(row[:len(row)-len(tombstones)], entries)
	openTombstones(row, tombstones)
}

// asymLinkCosts is linkCosts for TLinkStateAsym entries, unpacked into the two
// directions' rows; len(in) == len(out).
//
//lint:allocfree
func asymLinkCosts(out, in []wire.Cost, entries []byte, tombstones []int) {
	in, members := in[:len(out)], out[:len(out)-len(tombstones)]
	for i := range members {
		e := wire.AsymEntryAt(entries, i)
		members[i], in[i] = e.OutCost(), e.InCost()
	}
	openTombstones(out, tombstones)
	openTombstones(in, tombstones)
}

// openTombstones moves the members' costs, unpacked to the front of row in
// slot order, out to their slots, and sets each tombstone's to InfCost.
//
//lint:allocfree
func openTombstones(row []wire.Cost, tombstones []int) {
	end := len(row)
	for k := len(tombstones) - 1; k >= 0; k-- {
		t := tombstones[k]
		copy(row[t+1:end], row[t-k:end-k-1])
		row[t], end = wire.InfCost, t
	}
}

// FreshSlots appends to dst the slots with rows fresher than maxAge and
// returns the result. Pass a reused buffer to avoid allocation.
func (t *Table) FreshSlots(dst []int, now time.Time, maxAge time.Duration) []int {
	for s := 0; s < t.n; s++ {
		if t.FreshAt(s, now, maxAge) {
			dst = append(dst, s)
		}
	}
	return dst
}

// Expire releases the cost storage of every row older than maxAge, which must
// be at least the largest age any reader passes to FreshAt or a kernel: such a
// row reads as absent and is fresh for nobody, so nothing can tell. Its have,
// seq and when stay — they refuse a delayed lower-sequence duplicate, which
// would otherwise be stored as new and stamped fresh — but a delta finds no
// row to patch (PutDelta). Everyone who ever
// recruited a node as a failover rendezvous (§4.1) sent it a row; without this
// rule it holds them for good and §3's 2√n rows per node drift toward n.
func (t *Table) Expire(now time.Time, maxAge time.Duration) {
	ns := now.UnixNano()
	for s, m := range t.meta {
		if m.held && time.Duration(ns-m.when) > maxAge {
			t.out.release(s)
			t.in.release(s)
			t.meta[s].held = false
		}
	}
}

// Stored returns the number of rows holding cost storage.
//
//lint:testonly TestQuorumHoldsOnlyReadableRows (emul) counts held rows
func (t *Table) Stored() int { return len(t.out.held) }

// Grow extends the table to newN slots in place, for stable view extensions
// that append slots. Every stored row keeps its costs and metadata, and the
// new slots read as absent until their occupants announce. SetTombstones must
// follow. A row from a member still on the old view is refused by its view
// version, which the owner checks before PutWire, not by its length.
func (t *Table) Grow(newN int) {
	if newN <= t.n {
		return
	}
	t.out.grow(newN)
	if t.Directional() {
		t.in.grow(newN)
	}
	// Per-slot tables live as long as the view: each is sized exactly, where
	// appending would leave spare capacity behind every stable extension.
	t.meta = append(make([]slotMeta, 0, newN), t.meta...)[:newN]
	t.best, t.hop = nil, nil // scratch: the next pass sizes it anew
	t.n = newN
}

// DropBases makes every stored row no delta's base until its sender's next
// full row, for a view install the senders may have reached by other
// installs, which rebase a delta's base otherwise. The costs stay readable.
func (t *Table) DropBases() {
	for s := range t.meta {
		t.meta[s].unbased = true
	}
}

// RetireSlot erases a departed member from the table without disturbing
// anyone else: the slot's stored row is dropped and every other stored row's
// cost toward it is forced to InfCost. The slot itself becomes an ordinary
// empty slot, ready for its next occupant to announce into.
func (t *Table) RetireSlot(slot int) {
	if slot < 0 || slot >= t.n {
		return
	}
	t.meta[slot] = slotMeta{}
	t.out.retire(slot)
	if t.Directional() {
		t.in.retire(slot)
	}
}

// SelfRow builds the canonical self-measurement row for slot self with the
// given entries, forcing the self-entry to zero latency and alive, the
// invariant the one-hop kernels rely on to surface direct paths.
func SelfRow(self int, entries []wire.LinkEntry) []wire.LinkEntry {
	if self >= 0 && self < len(entries) {
		entries[self] = wire.LinkEntry{Latency: 0, Status: wire.MakeStatus(true, 0)}
	}
	return entries
}
