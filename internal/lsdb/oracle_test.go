package lsdb

import (
	"time"

	"allpairs/internal/wire"
)

// The scalar reference implementations the kernels are checked against. They
// work on announced rows exactly as they arrive off the wire — per-entry
// status checks, Cost.Add saturation — and share no code with the unpacked
// matrices, so a test that feeds both the same rows compares two independent
// computations.

// bestOneHop returns the optimal one-hop path from slot a (with link-state
// rowA) to slot b (with rowB): the hop h minimizing cost(a→h) + cost(h→b),
// where cost(h→b) is read from b's row under the paper's bidirectional-link
// assumption (§3). Taking h = b yields the direct path (a row's self-entry
// must be zero), so the result always considers the direct route; hop == b
// in the result means "go direct". A hop of -1 means no usable path exists.
func bestOneHop(a int, rowA []wire.LinkEntry, b int, rowB []wire.LinkEntry) (hop int, cost wire.Cost) {
	hop, cost = -1, wire.InfCost
	for h := 0; h < min(len(rowA), len(rowB)); h++ {
		if h == a {
			continue // "via self" is the direct path, surfaced as h == b
		}
		if c := rowA[h].Cost().Add(rowB[h].Cost()); c < cost {
			hop, cost = h, c
		}
	}
	return hop, cost
}

// bestOneHopAsym is bestOneHop in the DIRECTED sense: the hop h ≠ a
// minimizing out_a(h) + in_b(h). Because costs are directional, the optimal
// hop for a→b may differ from b→a's.
func bestOneHopAsym(a int, rowA []wire.AsymEntry, b int, rowB []wire.AsymEntry) (hop int, cost wire.Cost) {
	hop, cost = -1, wire.InfCost
	for h := 0; h < min(len(rowA), len(rowB)); h++ {
		if h == a {
			continue
		}
		if c := rowA[h].OutCost().Add(rowB[h].InCost()); c < cost {
			hop, cost = h, c
		}
	}
	return hop, cost
}

// rawRows is what a test announced into a table, kept beside it: the table
// itself retains no wire entries, so the §4.2 oracle reads them from here.
// A nil Entries marks a slot with no stored row.
type rawRows []Row

// put stores row in both the table and the shadow copy.
func (r rawRows) put(tb *Table, slot int, row Row) {
	if tb.Put(slot, row) {
		r[slot] = row
	}
}

// bestOneHopVia is the scalar §4.2 fallback: the best route from the holder
// of rowA to dst using the direct link or one intermediate whose announced
// row is at most maxAge old at now. A hop of -1 means no usable path.
func (r rawRows) bestOneHopVia(rowA []wire.LinkEntry, dst int, now time.Time, maxAge time.Duration) (hop int, cost wire.Cost) {
	hop, cost = -1, wire.InfCost
	if dst < 0 || dst >= len(rowA) {
		return
	}
	if c := rowA[dst].Cost(); c < cost {
		hop, cost = dst, c
	}
	for h := 0; h < min(len(r), len(rowA)); h++ {
		if h == dst || r[h].Entries == nil || now.Sub(r[h].When) > maxAge || dst >= len(r[h].Entries) {
			continue
		}
		if c := rowA[h].Cost().Add(r[h].Entries[dst].Cost()); c < cost {
			hop, cost = h, c
		}
	}
	return hop, cost
}
