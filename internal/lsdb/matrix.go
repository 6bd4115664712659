package lsdb

import (
	"time"

	"allpairs/internal/wire"
)

// HopCost is one result of a batched one-hop kernel: the chosen intermediate
// (hop == dst means direct, -1 means no usable path) and the total path cost.
type HopCost struct {
	Hop  int
	Cost wire.Cost
}

// CostMatrix is one direction of a Table's unpacked link state: one
// contiguous n-entry []wire.Cost per stored row (row s holds the costs
// announced by slot s). Table.Put maintains it incrementally, so wire cost
// bits are unpacked exactly once at ingest; the batch kernels then scan plain
// uint16 rows with no per-element status branches, which is what lets
// rendezvous recommendation passes and full-table recomputes run
// cache-friendly at n ≥ 500. Freshness and sequence metadata belong to the
// row, not to a direction, and live on the Table.
//
// Row storage is allocated lazily on first store: a quorum node's table only
// ever holds ~2√n of the n possible rows, so lazy rows cut per-node table
// memory from O(n²) to O(n√n) — the difference between a 1000-node churn
// fleet fitting in memory or not. Slots with no stored announcement read as
// a shared all-InfCost row, so they can never win a minimization; freshness
// must still be checked via Table.FreshAt by staleness-sensitive consumers.
type CostMatrix struct {
	n    int
	rows [][]wire.Cost // per-slot unpacked rows; nil until first stored
	inf  []wire.Cost   // shared all-InfCost row for absent slots (never written)

	// keyBuf holds the packed source-row keys of the kernel that takes no
	// caller buffer (BestOneHopPairs). newCostMatrix sizes it for n-entry
	// rows up front so it stays allocation-free in the steady state. That
	// kernel is not safe for concurrent calls on the same matrix; sharded
	// passes hand each worker its own buffer instead.
	keyBuf []uint64
}

func newCostMatrix(n int) *CostMatrix {
	m := &CostMatrix{
		n:      n,
		rows:   make([][]wire.Cost, n),
		inf:    make([]wire.Cost, n),
		keyBuf: make([]uint64, n),
	}
	for i := range m.inf {
		m.inf[i] = wire.InfCost
	}
	return m
}

// N returns the number of slots in the view.
func (m *CostMatrix) N() int { return m.n }

// Row returns slot's unpacked cost row (length n, all InfCost if the slot has
// no stored announcement). The slice aliases the matrix and must not be
// modified.
func (m *CostMatrix) Row(slot int) []wire.Cost {
	if r := m.rows[slot]; r != nil {
		return r
	}
	return m.inf
}

// rowFor returns slot's writable row, allocating it on first store.
func (m *CostMatrix) rowFor(slot int) []wire.Cost {
	row := m.rows[slot]
	if row == nil {
		row = make([]wire.Cost, m.n)
		m.rows[slot] = row
	}
	return row
}

// setRow unpacks entries into slot's row.
func (m *CostMatrix) setRow(slot int, entries []wire.LinkEntry) {
	row := m.rowFor(slot)
	for i, e := range entries {
		row[i] = e.Cost()
	}
}

// grow extends the matrix to newN slots in place. Held rows are padded with
// InfCost — exactly what the absent tail already reads as — so every
// pre-existing slot's scannable contents are bit-identical to what they were
// before the grow. New slots start empty.
func (m *CostMatrix) grow(newN int) {
	pad := newN - m.n
	for s, row := range m.rows {
		if row == nil {
			continue
		}
		for i := 0; i < pad; i++ {
			row = append(row, wire.InfCost)
		}
		m.rows[s] = row
	}
	m.rows = append(m.rows, make([][]wire.Cost, pad)...)
	m.inf = make([]wire.Cost, newN)
	for i := range m.inf {
		m.inf[i] = wire.InfCost
	}
	if cap(m.keyBuf) < newN {
		m.keyBuf = make([]uint64, newN)
	}
	m.n = newN
}

// retire drops slot's row storage and marks the slot unreachable in every
// other held row (column slot reads InfCost everywhere).
func (m *CostMatrix) retire(slot int) {
	m.rows[slot] = nil
	for _, row := range m.rows {
		if row != nil {
			row[slot] = wire.InfCost
		}
	}
}

// UnpackCosts appends the unpacked costs of row to dst and returns the
// result. Pass a reused buffer (dst[:0]) to avoid allocation; consumers use
// it to bring a live measured row (which is not stored in any table) into the
// flat representation the kernels scan.
func UnpackCosts(dst []wire.Cost, row []wire.LinkEntry) []wire.Cost {
	for _, e := range row {
		dst = append(dst, e.Cost())
	}
	return dst
}

// BestOneHopRows is the scalar kernel over unpacked rows: the hop h (with
// h != skip) minimizing rowA[h] + rowB[h] with saturation at InfCost, ties
// broken toward the smallest h. Pass skip = -1 to consider every index (the
// multi-hop midpoint search). The scan length is min(len(rowA), len(rowB)).
//
//lint:allocfree
func BestOneHopRows(skip int, rowA, rowB []wire.Cost) (hop int, cost wire.Cost) {
	n := len(rowA)
	if len(rowB) < n {
		n = len(rowB)
	}
	rowA = rowA[:n]
	rowB = rowB[:n:n]
	hop = -1
	best := uint32(wire.InfCost)
	// Split around skip so the hot loops carry no per-element branch beyond
	// the running-minimum compare. A sum ≥ InfCost can never beat best
	// (best ≤ InfCost throughout), which reproduces Cost.Add's saturation.
	hi := n
	if skip >= 0 && skip < n {
		hi = skip
	}
	for h := 0; h < hi; h++ {
		if s := uint32(rowA[h]) + uint32(rowB[h]); s < best {
			best, hop = s, h
		}
	}
	if hi < n {
		for h := hi + 1; h < n; h++ {
			if s := uint32(rowA[h]) + uint32(rowB[h]); s < best {
				best, hop = s, h
			}
		}
	}
	if hop < 0 {
		return -1, wire.InfCost
	}
	return hop, wire.Cost(best)
}

// infKey is the packed-key rendering of "no usable hop": cost InfCost in the
// high bits, hop bits zero, so any candidate with a finite (< InfCost) total
// compares below it and no saturated total ever does.
const infKey = uint64(wire.InfCost) << 16

// sourceKeysInto packs rowA into the per-batch key representation:
// keys[h] = rowA[h]<<16 | h. A minimization over keys then yields the
// smallest total cost with ties broken toward the smallest h — exactly the
// scalar kernel's first-strict-minimum order — without tracking an index in
// the hot loop. The skip slot is forced to InfCost so it can never win. buf
// is grown if too small and the packed keys are returned (aliasing buf when
// it was large enough), so callers keep the result as their next buffer.
//
//lint:allocfree
func sourceKeysInto(buf []uint64, rowA []wire.Cost, skip int) []uint64 {
	if cap(buf) < len(rowA) {
		//lint:allowalloc grow-once when the caller's buffer is smaller than the row
		buf = make([]uint64, len(rowA))
	}
	keys := buf[:len(rowA)]
	for h, c := range rowA {
		keys[h] = uint64(c)<<16 | uint64(h)
	}
	if skip >= 0 && skip < len(keys) {
		keys[skip] = infKey | uint64(skip)
	}
	return keys
}

// bestOneHopKeys scans one destination row against precomputed source keys.
// Adding rowB[h]<<16 leaves the low 16 index bits intact (and cannot carry
// out of a uint64), so the running minimum needs no branch-carried index.
// Four independent lanes break the compare dependency chain; the final lane
// merge preserves the smallest-index tie-break because the index is part of
// the key.
//
//lint:allocfree
func bestOneHopKeys(keys []uint64, rowB []wire.Cost) (hop int, cost wire.Cost) {
	n := len(keys)
	if len(rowB) < n {
		n = len(rowB)
	}
	keys = keys[:n]
	rowB = rowB[:n:n]
	b0, b1, b2, b3 := infKey, infKey, infKey, infKey
	// The candidate index travels inside the key, so the loop can advance
	// both slices instead of tracking h — which also lets the compiler prove
	// every access in the unrolled body in-bounds (no checks, only CMOVs).
	for len(keys) >= 8 && len(rowB) >= 8 {
		if k := keys[0] + uint64(rowB[0])<<16; k < b0 {
			b0 = k
		}
		if k := keys[1] + uint64(rowB[1])<<16; k < b1 {
			b1 = k
		}
		if k := keys[2] + uint64(rowB[2])<<16; k < b2 {
			b2 = k
		}
		if k := keys[3] + uint64(rowB[3])<<16; k < b3 {
			b3 = k
		}
		if k := keys[4] + uint64(rowB[4])<<16; k < b0 {
			b0 = k
		}
		if k := keys[5] + uint64(rowB[5])<<16; k < b1 {
			b1 = k
		}
		if k := keys[6] + uint64(rowB[6])<<16; k < b2 {
			b2 = k
		}
		if k := keys[7] + uint64(rowB[7])<<16; k < b3 {
			b3 = k
		}
		keys, rowB = keys[8:], rowB[8:]
	}
	for len(keys) >= 4 && len(rowB) >= 4 {
		if k := keys[0] + uint64(rowB[0])<<16; k < b0 {
			b0 = k
		}
		if k := keys[1] + uint64(rowB[1])<<16; k < b1 {
			b1 = k
		}
		if k := keys[2] + uint64(rowB[2])<<16; k < b2 {
			b2 = k
		}
		if k := keys[3] + uint64(rowB[3])<<16; k < b3 {
			b3 = k
		}
		keys, rowB = keys[4:], rowB[4:]
	}
	for i, kk := range keys {
		if k := kk + uint64(rowB[i])<<16; k < b0 {
			b0 = k
		}
	}
	if b1 < b0 {
		b0 = b1
	}
	if b2 < b0 {
		b0 = b2
	}
	if b3 < b0 {
		b0 = b3
	}
	if b0 >= infKey {
		return -1, wire.InfCost
	}
	return int(b0 & 0xFFFF), wire.Cost(b0 >> 16)
}

// scan evaluates every destination row in dsts against packed source keys.
//
//lint:allocfree
func (m *CostMatrix) scan(keys []uint64, dsts []int, out []HopCost) {
	for i, b := range dsts {
		hop, cost := bestOneHopKeys(keys, m.Row(b))
		out[i] = HopCost{Hop: hop, Cost: cost}
	}
}

// BestOneHopPairs batch-evaluates arbitrary (src, dst) slot pairs against
// this one matrix — round 2 over a symmetric table, where a row serves as
// both directions. out must have len(pairs) entries. Consecutive pairs
// sharing a source reuse its packed keys, so grouping pairs by source gets
// the same amortization as Table.BestOneHopAllRow.
//
//lint:allocfree
func (m *CostMatrix) BestOneHopPairs(pairs [][2]int, out []HopCost) {
	lastSrc := -1
	for i, p := range pairs {
		if p[0] != lastSrc {
			m.keyBuf = sourceKeysInto(m.keyBuf, m.Row(p[0]), p[0])
			lastSrc = p[0]
		}
		hop, cost := bestOneHopKeys(m.keyBuf, m.Row(p[1]))
		out[i] = HopCost{Hop: hop, Cost: cost}
	}
}

// BestOneHopAllRow batch-evaluates the best one-hop route from one source to
// every slot in dsts: per destination b, the hop h ≠ skip minimizing
// rowOut(h) + in_b(h) with InfCost saturation and ties broken toward the
// smallest h. Taking h = b yields the direct path (a row's self-entry is
// zero), so hop == b means "go direct". On a symmetric table in_b is b's own
// row — the paper's bidirectional-link assumption (§3). rowOut holds the
// source's out-costs unpacked — a stored row (OutRow), or the node's own live
// measurement row, which is not in its table — and skip names the source's
// slot. out must have len(dsts) entries. rowOut is packed into keyBuf once
// and stays cache-resident across the whole pass; the grown buffer is
// returned for reuse. With a buffer of its own a call only reads the table,
// so sharded passes run it concurrently, one buffer per worker.
//
//lint:allocfree
func (t *Table) BestOneHopAllRow(keyBuf []uint64, rowOut []wire.Cost, skip int, dsts []int, out []HopCost) []uint64 {
	keyBuf = sourceKeysInto(keyBuf, rowOut, skip)
	t.in.scan(keyBuf, dsts, out)
	return keyBuf
}

// BestOneHopToRow evaluates the opposite direction of BestOneHopAllRow: the
// best one-hop route from each stored slot in srcs to the holder of rowIn
// (its costs h→holder, unpacked). The skip slot differs per source, so each
// source's out-row is packed in turn and scanned against the one shared
// in-row. Only a directional table needs it — on a symmetric one the answer
// is the forward result.
//
//lint:allocfree
func (t *Table) BestOneHopToRow(keyBuf []uint64, srcs []int, rowIn []wire.Cost, out []HopCost) []uint64 {
	for i, a := range srcs {
		keyBuf = sourceKeysInto(keyBuf, t.out.Row(a), a)
		hop, cost := bestOneHopKeys(keyBuf, rowIn)
		out[i] = HopCost{Hop: hop, Cost: cost}
	}
	return keyBuf
}

// seedDirect starts a §4.2 evaluation from the direct path: a destination
// outside rowOut, or with a dead direct link, reports hop -1 until some
// intermediate improves on it.
func seedDirect(rowOut []wire.Cost, dst int) HopCost {
	if dst < len(rowOut) && rowOut[dst] != wire.InfCost {
		return HopCost{Hop: dst, Cost: rowOut[dst]}
	}
	return HopCost{Hop: -1, Cost: wire.InfCost}
}

// BestOneHopViaAll batch-evaluates the §4.2 fallback — the redundant
// link-state route a node whose rendezvous servers have failed computes
// through the neighbors whose rows it holds — for every destination slot at
// once: out[dst] is the best of the direct path rowOut[dst] and
// rowOut[h] + out_h(dst) over intermediates h with a row fresher than maxAge.
// Each intermediate's freshness is evaluated once and its row then streamed
// across all destinations, so the whole table recompute is one
// cache-friendly O(fresh·n) pass. out must have t.N() entries.
//
//lint:allocfree
func (t *Table) BestOneHopViaAll(rowOut []wire.Cost, now time.Time, maxAge time.Duration, out []HopCost) {
	t.BestOneHopViaSpan(rowOut, now, maxAge, out, 0, t.n)
}

// BestOneHopViaSpan is BestOneHopViaAll restricted to destinations in
// [lo, hi): out[dst] is written for exactly those slots (absolute indexing;
// out must still have t.N() entries). The intermediate loop runs in the same
// order with the same strict-< improvement rule, so covering [0, n) with
// disjoint spans — in any order, including concurrently across workers —
// produces bit-identical results to one full pass. This is the multicore
// shard unit: spans write disjoint out ranges and only read the table.
//
//lint:allocfree
func (t *Table) BestOneHopViaSpan(rowOut []wire.Cost, now time.Time, maxAge time.Duration, out []HopCost, lo, hi int) {
	for dst := lo; dst < hi; dst++ {
		out[dst] = seedDirect(rowOut, dst)
	}
	lim := min(t.n, len(rowOut))
	// Destinations ≥ lim keep their -1 seed — the row has no first leg toward
	// them — so intermediates only stream over [lo, min(hi, lim)).
	hi = min(hi, lim)
	if lo >= hi {
		return
	}
	span := out[lo:hi]
	for h := 0; h < lim; h++ {
		if !t.FreshAt(h, now, maxAge) {
			continue
		}
		ca := uint32(rowOut[h])
		if ca >= uint32(wire.InfCost) {
			continue // dead first leg can never improve any destination
		}
		for i, cb := range t.out.Row(h)[lo:hi] {
			if i == h-lo {
				continue
			}
			if s := ca + uint32(cb); s < uint32(span[i].Cost) {
				span[i] = HopCost{Hop: h, Cost: wire.Cost(s)}
			}
		}
	}
}

// BestOneHopVia is the §4.2 fallback for one destination — what BestHop
// serves when no fresh recommendation exists, and what BestOneHopViaAll puts
// at out[dst]: the same intermediate order and strict-< improvement rule. A
// hop of -1 means no usable path was found (including a dst outside rowOut).
//
//lint:allocfree
func (t *Table) BestOneHopVia(rowOut []wire.Cost, dst int, now time.Time, maxAge time.Duration) (hop int, cost wire.Cost) {
	if dst < 0 {
		return -1, wire.InfCost
	}
	best := seedDirect(rowOut, dst)
	lim := min(t.n, len(rowOut))
	if dst >= lim {
		return best.Hop, best.Cost // no intermediate has a column toward dst
	}
	for h := 0; h < lim; h++ {
		if h == dst || !t.FreshAt(h, now, maxAge) {
			continue
		}
		ca := uint32(rowOut[h])
		if ca >= uint32(wire.InfCost) {
			continue // dead first leg can never improve the destination
		}
		if s := ca + uint32(t.out.Row(h)[dst]); s < uint32(best.Cost) {
			best = HopCost{Hop: h, Cost: wire.Cost(s)}
		}
	}
	return best.Hop, best.Cost
}
