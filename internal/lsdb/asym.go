package lsdb

import (
	"time"

	"allpairs/internal/wire"
)

// AsymRow is one node's directional link-state vector (footnote 2 mode):
// for every slot, the one-way cost toward it and the one-way cost back.
type AsymRow struct {
	Seq     uint32
	When    time.Time
	Entries []wire.AsymEntry
}

// OutCost returns the directed cost origin→slot.
func (r *AsymRow) OutCost(slot int) wire.Cost {
	if r == nil || slot < 0 || slot >= len(r.Entries) {
		return wire.InfCost
	}
	return r.Entries[slot].OutCost()
}

// InCost returns the directed cost slot→origin.
func (r *AsymRow) InCost(slot int) wire.Cost {
	if r == nil || slot < 0 || slot >= len(r.Entries) {
		return wire.InfCost
	}
	return r.Entries[slot].InCost()
}

// AsymTable stores the most recent directional row from each slot, alongside
// a directional CostMatrix pair the batch kernels scan: outM row s holds the
// directed costs s→h announced by slot s, inM row s holds s's in-costs h→s.
// Splitting the two directions into their own contiguous matrices is what
// lets the footnote-2 mode run the same packed-key kernels as the symmetric
// path — out-rows feed the source keys, in-rows feed the destination scans —
// instead of falling back to the scalar BestOneHopAsym per pair.
type AsymTable struct {
	n    int
	rows []AsymRow
	have []bool
	outM *CostMatrix // row s: directed costs s→h
	inM  *CostMatrix // row s: directed costs h→s

	// unpack scratch reused across Puts so ingest stays allocation-free in
	// steady state.
	outBuf, inBuf []wire.Cost
}

// NewAsymTable returns an empty table for an n-slot view.
func NewAsymTable(n int) *AsymTable {
	return &AsymTable{
		n:    n,
		rows: make([]AsymRow, n),
		have: make([]bool, n),
		outM: NewCostMatrix(n),
		inM:  NewCostMatrix(n),
	}
}

// N returns the number of slots in the view.
func (t *AsymTable) N() int { return t.n }

// Put stores a row for slot unless it is older than the stored one: lower
// sequence numbers are rejected, as are equal-sequence rows whose When is
// older — the same delayed-duplicate rule as Table.Put, so neither row
// format can roll back a refreshed timestamp.
func (t *AsymTable) Put(slot int, row AsymRow) bool {
	if slot < 0 || slot >= t.n || len(row.Entries) != t.n {
		return false
	}
	if t.have[slot] {
		old := &t.rows[slot]
		if row.Seq < old.Seq || (row.Seq == old.Seq && row.When.Before(old.When)) {
			return false
		}
	}
	t.rows[slot] = row
	t.have[slot] = true
	t.index(slot, &row)
	return true
}

// index unpacks row's two directions into the matrices. Like Table.Put, the
// 2-byte cost bits are resolved exactly once at ingest so the kernels scan
// plain uint16 rows.
func (t *AsymTable) index(slot int, row *AsymRow) {
	t.outBuf = UnpackOutCosts(t.outBuf[:0], row.Entries)
	t.inBuf = UnpackInCosts(t.inBuf[:0], row.Entries)
	t.outM.setCosts(slot, t.outBuf, row.Seq, row.When)
	t.inM.setCosts(slot, t.inBuf, row.Seq, row.When)
}

// OutRow returns slot's unpacked directed costs slot→h (all InfCost if no
// row is stored). The slice aliases the table and must not be modified.
func (t *AsymTable) OutRow(slot int) []wire.Cost { return t.outM.Row(slot) }

// InRow returns slot's unpacked directed costs h→slot (the in-direction
// column of the conceptual cost matrix, stored contiguously).
func (t *AsymTable) InRow(slot int) []wire.Cost { return t.inM.Row(slot) }

// Gen returns a content generation for slot's directional rows, advancing
// whenever either direction's unpacked costs may have changed — the
// directional counterpart of Table.Gen, with the same snapshot contract.
func (t *AsymTable) Gen(slot int) uint32 {
	return t.outM.gen[slot] + t.inM.gen[slot]
}

// Grow extends the table to newN slots in place — the directional
// counterpart of Table.Grow, with the same generation-preservation
// guarantee for every pre-existing slot.
func (t *AsymTable) Grow(newN int) {
	if newN <= t.n {
		return
	}
	pad := newN - t.n
	t.rows = append(t.rows, make([]AsymRow, pad)...)
	t.have = append(t.have, make([]bool, pad)...)
	t.outM.grow(newN)
	t.inM.grow(newN)
	t.n = newN
}

// RetireSlot erases a departed member from both directions — the
// directional counterpart of Table.RetireSlot, advancing generations only
// for the rows whose contents change.
func (t *AsymTable) RetireSlot(slot int) {
	if slot < 0 || slot >= t.n {
		return
	}
	t.rows[slot] = AsymRow{}
	t.have[slot] = false
	t.outM.clearRow(slot)
	t.inM.clearRow(slot)
	for h := range t.rows {
		if h == slot || !t.have[h] {
			continue
		}
		if e := t.rows[h].Entries; slot < len(e) {
			e[slot] = wire.AsymEntry{Status: wire.StatusDead}
		}
	}
	t.outM.clearColumn(slot)
	t.inM.clearColumn(slot)
}

// Get returns the stored row for slot, or nil.
func (t *AsymTable) Get(slot int) *AsymRow {
	if slot < 0 || slot >= t.n || !t.have[slot] {
		return nil
	}
	return &t.rows[slot]
}

// Fresh returns the row if it is younger than maxAge, or nil.
func (t *AsymTable) Fresh(slot int, now time.Time, maxAge time.Duration) *AsymRow {
	r := t.Get(slot)
	if r == nil || now.Sub(r.When) > maxAge {
		return nil
	}
	return r
}

// FreshSlots appends to dst the slots with rows fresher than maxAge.
func (t *AsymTable) FreshSlots(dst []int, now time.Time, maxAge time.Duration) []int {
	for s := 0; s < t.n; s++ {
		if t.have[s] && now.Sub(t.rows[s].When) <= maxAge {
			dst = append(dst, s)
		}
	}
	return dst
}

// BestOneHopAsym returns the optimal one-hop path in the DIRECTED sense from
// slot a (whose row gives out-costs a→h) to slot b (whose row gives in-costs
// h→b): the hop h ≠ a minimizing out_a(h) + in_b(h). Because costs are
// directional, the optimal hop for a→b may differ from b→a's. Self-entries
// must be zero so h == b surfaces the direct path.
func BestOneHopAsym(a int, rowA []wire.AsymEntry, b int, rowB []wire.AsymEntry) (hop int, cost wire.Cost) {
	hop, cost = -1, wire.InfCost
	n := len(rowA)
	if len(rowB) < n {
		n = len(rowB)
	}
	for h := 0; h < n; h++ {
		if h == a {
			continue
		}
		c := rowA[h].OutCost().Add(rowB[h].InCost())
		if c < cost {
			cost = c
			hop = h
		}
	}
	return hop, cost
}

// BestOneHopViaAsym is the §4.2 fallback in directional mode: the best route
// from the holder of rowA to dst using only intermediates with fresh rows in
// the table (cost out_a(h) + out_h(dst)), or the direct out-cost.
func BestOneHopViaAsym(rowA []wire.AsymEntry, table *AsymTable, dst int, now time.Time, maxAge time.Duration) (hop int, cost wire.Cost) {
	hop, cost = -1, wire.InfCost
	if dst < 0 || dst >= len(rowA) {
		return
	}
	if c := rowA[dst].OutCost(); c < cost {
		hop, cost = dst, c
	}
	for h := 0; h < table.n && h < len(rowA); h++ {
		if h == dst {
			continue
		}
		r := table.Fresh(h, now, maxAge)
		if r == nil {
			continue
		}
		c := rowA[h].OutCost().Add(r.OutCost(dst))
		if c < cost {
			hop, cost = h, c
		}
	}
	return hop, cost
}

// SelfAsymRow forces the self-entry of a directional row to zero/alive.
func SelfAsymRow(self int, entries []wire.AsymEntry) []wire.AsymEntry {
	if self >= 0 && self < len(entries) {
		entries[self] = wire.AsymEntry{Status: wire.MakeStatus(true, 0)}
	}
	return entries
}

// UnpackOutCosts appends the out-direction costs of row to dst and returns
// the result — the directional counterpart of UnpackCosts, used to bring a
// live measured row into the flat form the kernels scan.
func UnpackOutCosts(dst []wire.Cost, row []wire.AsymEntry) []wire.Cost {
	for _, e := range row {
		dst = append(dst, e.OutCost())
	}
	return dst
}

// UnpackInCosts appends the in-direction costs of row to dst.
func UnpackInCosts(dst []wire.Cost, row []wire.AsymEntry) []wire.Cost {
	for _, e := range row {
		dst = append(dst, e.InCost())
	}
	return dst
}

// BestOneHopAsymAll batch-evaluates the directed one-hop optimum from slot a
// to every slot in dsts against the stored rows: per destination it equals
// the scalar BestOneHopAsym(a, rowA, b, rowB) — minimize out_a(h) + in_b(h)
// over h ≠ a with InfCost saturation and smallest-h tie-break — but a's
// out-row is packed into keys once and each destination scan streams b's
// contiguous in-row, exactly like the symmetric BestOneHopAll. out must have
// len(dsts) entries.
//
//lint:allocfree
func (t *AsymTable) BestOneHopAsymAll(a int, dsts []int, out []HopCost) {
	keys := t.outM.sourceKeys(t.outM.Row(a), a)
	for i, b := range dsts {
		hop, cost := bestOneHopKeys(keys, t.inM.Row(b))
		out[i] = HopCost{Hop: hop, Cost: cost}
	}
}

// BestOneHopAsymRowAll is BestOneHopAsymAll with the source's out-costs
// supplied unpacked — used when the source is the node's own live measurement
// row, which is not stored in its table. skip is the source's slot.
//
//lint:allocfree
func (t *AsymTable) BestOneHopAsymRowAll(rowOut []wire.Cost, skip int, dsts []int, out []HopCost) {
	keys := t.outM.sourceKeys(rowOut, skip)
	for i, b := range dsts {
		hop, cost := bestOneHopKeys(keys, t.inM.Row(b))
		out[i] = HopCost{Hop: hop, Cost: cost}
	}
}

// BestOneHopAsymToRow evaluates the reverse direction of the self pairs: the
// directed one-hop optimum from each slot in srcs to the holder of rowIn (the
// holder's live in-costs h→self, unpacked). The skip slot differs per source,
// so each source's stored out-row is packed in turn and scanned against the
// one shared in-row.
//
//lint:allocfree
func (t *AsymTable) BestOneHopAsymToRow(srcs []int, rowIn []wire.Cost, out []HopCost) {
	for i, a := range srcs {
		keys := t.outM.sourceKeys(t.outM.Row(a), a)
		hop, cost := bestOneHopKeys(keys, rowIn)
		out[i] = HopCost{Hop: hop, Cost: cost}
	}
}
