// Package lsdb implements the link-state database: the partial n×n matrix of
// estimated latency and liveness each node maintains (§5, "Table Exchange"),
// and the best-one-hop computation a rendezvous server runs over the rows of
// its clients.
//
// Rows are indexed by grid slot (the node's position in the membership
// view), not by node ID. Slots are stable for a member's lifetime, so a table
// follows a chain of stable view extensions in place (Grow, RetireSlot) and
// is replaced by an empty one only when an install cannot be one.
package lsdb

import (
	"time"

	"allpairs/internal/wire"
)

// Row is one node's link-state vector: its measured latency and liveness to
// every slot in the view.
type Row struct {
	Seq     uint32           // sender's sequence number, monotone per view
	When    time.Time        // local time the row was received/refreshed
	Entries []wire.LinkEntry // indexed by grid slot
}

// Cost returns the link cost from the row's origin to slot.
func (r *Row) Cost(slot int) wire.Cost {
	if r == nil || slot < 0 || slot >= len(r.Entries) {
		return wire.InfCost
	}
	return r.Entries[slot].Cost()
}

// Table stores the most recent link-state row received from each slot,
// alongside the flat CostMatrix the batch kernels scan — every Put unpacks
// the row's cost bits into the matrix once, so route evaluation never touches
// LinkEntry again. The zero value is unusable; create tables with NewTable.
type Table struct {
	n    int
	rows []Row
	mat  *CostMatrix
}

// NewTable returns an empty table for an n-slot view.
func NewTable(n int) *Table {
	return &Table{n: n, rows: make([]Row, n), mat: NewCostMatrix(n)}
}

// N returns the number of slots in the view.
func (t *Table) N() int { return t.n }

// Matrix exposes the flat cost matrix maintained by Put (read-only).
func (t *Table) Matrix() *CostMatrix { return t.mat }

// Gen returns the content generation of slot's row: it advances exactly when
// the slot's unpacked costs may have changed (first store, a store with
// different costs, a Drop), and stays put across refresh-only Puts. Consumers
// snapshot generations to decide which rows an incremental recompute may
// skip. Grow and RetireSlot keep the counters running, so snapshots stay
// valid across stable view extensions; a consumer that replaces the table
// (a cold view install) must drop every snapshot with it.
func (t *Table) Gen(slot int) uint32 { return t.mat.gen[slot] }

// Put stores a row for slot if it is not older than what the table already
// holds: lower sequence numbers are rejected, as are equal-sequence rows
// whose When is older than the stored one, so a delayed duplicate can never
// roll back a refreshed timestamp. It reports whether the row was stored.
func (t *Table) Put(slot int, row Row) bool {
	if slot < 0 || slot >= t.n || len(row.Entries) != t.n {
		return false
	}
	if t.mat.have[slot] {
		// The matrix metadata is the authoritative copy of the stored row's
		// (seq, when); rows[] only keeps the raw entries.
		if row.Seq < t.mat.seq[slot] || (row.Seq == t.mat.seq[slot] && row.When.Before(t.mat.when[slot])) {
			return false
		}
	}
	t.rows[slot] = row
	t.mat.setRow(slot, row.Entries, row.Seq, row.When)
	return true
}

// Drop removes the row for slot, if any.
func (t *Table) Drop(slot int) {
	if slot >= 0 && slot < t.n {
		t.rows[slot] = Row{}
		t.mat.clearRow(slot)
	}
}

// Get returns the stored row for slot, or nil if none.
func (t *Table) Get(slot int) *Row {
	if slot < 0 || slot >= t.n || !t.mat.have[slot] {
		return nil
	}
	return &t.rows[slot]
}

// Fresh returns the stored row for slot if it was received within maxAge of
// now, or nil otherwise. The paper's rendezvous servers use measurements at
// most 3 routing intervals old (§6.2.2).
func (t *Table) Fresh(slot int, now time.Time, maxAge time.Duration) *Row {
	r := t.Get(slot)
	if r == nil || now.Sub(r.When) > maxAge {
		return nil
	}
	return r
}

// FreshSlots appends to dst the slots with rows fresher than maxAge and
// returns the result. Pass a reused buffer to avoid allocation.
func (t *Table) FreshSlots(dst []int, now time.Time, maxAge time.Duration) []int {
	for s := 0; s < t.n; s++ {
		if t.mat.FreshAt(s, now, maxAge) {
			dst = append(dst, s)
		}
	}
	return dst
}

// Grow extends the table to newN slots in place, for stable view extensions
// that append slots. Every stored row keeps its bytes, metadata, and
// generation counter (the whole point: consumers' generation snapshots stay
// valid), and the new slots read as absent until their occupants announce. Stored raw rows keep their original
// length — Row.Cost reads past-the-end slots as InfCost — and Put continues
// to reject announcements whose length disagrees with the current view, so
// members still on the old view are simply dropped until they catch up.
func (t *Table) Grow(newN int) {
	if newN <= t.n {
		return
	}
	t.rows = append(t.rows, make([]Row, newN-t.n)...)
	t.mat.grow(newN)
	t.n = newN
}

// RetireSlot erases a departed member from the table without disturbing
// anyone else: the slot's stored row is dropped and every other stored row's
// entry about it is forced dead (raw and matrix both). Generations advance
// for exactly the rows whose scannable contents change — the retired slot
// and rows that held a live cost toward it — so snapshots of unaffected rows
// stay valid. The slot itself becomes an ordinary empty slot, ready for a
// quarantine-expired reuse to announce into.
func (t *Table) RetireSlot(slot int) {
	if slot < 0 || slot >= t.n {
		return
	}
	t.rows[slot] = Row{}
	t.mat.clearRow(slot)
	for h := range t.rows {
		if h == slot || !t.mat.have[h] {
			continue
		}
		if e := t.rows[h].Entries; slot < len(e) {
			e[slot] = wire.LinkEntry{Status: wire.StatusDead}
		}
	}
	t.mat.clearColumn(slot)
}

// BestOneHop returns the optimal one-hop path from slot a (with link-state
// rowA) to slot b (with rowB): the hop h minimizing cost(a→h) + cost(h→b),
// where cost(h→b) is read from b's row under the paper's bidirectional-link
// assumption (§3). Taking h = b yields the direct path (a row's self-entry
// must be zero), so the result always considers the direct route; hop == b
// in the result means "go direct". A hop of -1 means no usable path exists.
func BestOneHop(a int, rowA []wire.LinkEntry, b int, rowB []wire.LinkEntry) (hop int, cost wire.Cost) {
	hop, cost = -1, wire.InfCost
	n := len(rowA)
	if len(rowB) < n {
		n = len(rowB)
	}
	for h := 0; h < n; h++ {
		if h == a {
			continue // "via self" is the direct path, surfaced as h == b
		}
		c := rowA[h].Cost().Add(rowB[h].Cost())
		if c < cost {
			cost = c
			hop = h
		}
	}
	return hop, cost
}

// BestOneHopVia computes the best one-hop path from the holder of rowA to
// dst using only intermediates whose rows are present and fresh in table —
// the redundant link-state fallback of §4.2, where a node whose rendezvous
// servers have failed evaluates routes through its 2√n−2 known neighbors.
// The direct path is considered via rowA itself. A hop of -1 means no usable
// path was found.
func BestOneHopVia(rowA []wire.LinkEntry, table *Table, dst int, now time.Time, maxAge time.Duration) (hop int, cost wire.Cost) {
	hop, cost = -1, wire.InfCost
	if dst < 0 || dst >= len(rowA) {
		return
	}
	if c := rowA[dst].Cost(); c < cost {
		hop, cost = dst, c
	}
	if dst >= table.n {
		// The destination is outside the table's view: no stored row has an
		// entry for it, so every intermediate leg is InfCost and only the
		// direct path can be usable (the pre-matrix code read these missing
		// entries as InfCost).
		return hop, cost
	}
	m := table.mat
	best := uint32(cost)
	for h := 0; h < table.n && h < len(rowA); h++ {
		if h == dst || !m.FreshAt(h, now, maxAge) {
			continue
		}
		// Intermediate costs come from the matrix (unpacked at ingest); only
		// the caller's own live row still needs per-entry unpacking.
		if s := uint32(rowA[h].Cost()) + uint32(m.rows[h][dst]); s < best {
			best, hop = s, h
		}
	}
	if hop < 0 {
		return -1, wire.InfCost
	}
	return hop, wire.Cost(best)
}

// SelfRow builds the canonical self-measurement row for slot self with the
// given entries, forcing the self-entry to zero latency and alive, the
// invariant BestOneHop relies on to surface direct paths.
func SelfRow(self int, entries []wire.LinkEntry) []wire.LinkEntry {
	if self >= 0 && self < len(entries) {
		entries[self] = wire.LinkEntry{Latency: 0, Status: wire.MakeStatus(true, 0)}
	}
	return entries
}
