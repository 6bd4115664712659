package lsdb

import (
	"slices"
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
// announced by slot s). Table.PutWire maintains it incrementally, so wire cost
// bits are unpacked once per accepted row — on arrival at a quorum node, at
// the next read of the table at a full-mesh node, which parks rows until
// then; the batch kernels then scan plain uint16 rows with no per-element
// status branches. Each row is an allocation of its own, so a pass over many
// rows finds each one cold and the hardware prefetcher starts over at every
// row: the full-table pass (Table.BestOneHopViaAll) prefetches the next row
// while it relaxes the current one. A row's arrival time and sequence number
// belong to the row, not to a direction, and live on the Table.
//
// Row storage is allocated lazily on first store: a quorum node's table only
// ever holds ~2√n of the n possible rows, so lazy rows cut per-node table
// memory from O(n²) to O(n√n) — the difference between a 1000-node churn
// fleet fitting in memory or not. The held rows are one dense list, and a slot
// costs two bytes: its index into that list (a view has at most wire.MaxSlots
// slots, so 1 + an index fits 16 bits). Slots with no stored announcement
// read as infRow, so they can never win a minimization; freshness must still
// be checked via Table.FreshAt by staleness-sensitive consumers.
type CostMatrix struct {
	n    int
	idx  []uint16      // per slot: 1 + the index of its row in held, 0 while it has none
	held [][]wire.Cost // the stored rows, in no particular order
	slot []uint16      // slot[i] is the slot whose row held[i] is

	// srcBuf holds the masked source row of the kernel that takes no caller
	// buffer (BestOneHopPairs), allocated on that kernel's first call; no
	// router runs it.
	srcBuf []wire.Cost
}

// infRow is the all-InfCost row every matrix serves, cut to its n entries,
// for a slot with no stored announcement. It is never written.
var infRow = slices.Repeat([]wire.Cost{wire.InfCost}, wire.MaxSlots)

func newCostMatrix(n int) *CostMatrix {
	return &CostMatrix{n: n, idx: make([]uint16, n)}
}

// Row returns slot's unpacked cost row (length n, all InfCost if the slot has
// no stored announcement). The slice aliases the matrix and must not be
// modified.
func (m *CostMatrix) Row(slot int) []wire.Cost {
	if i := m.idx[slot]; i > 0 {
		return m.held[i-1]
	}
	return infRow[:m.n:m.n]
}

// rowFor returns slot's writable row, allocating it on first store.
func (m *CostMatrix) rowFor(slot int) []wire.Cost {
	if i := m.idx[slot]; i > 0 {
		return m.held[i-1]
	}
	row := make([]wire.Cost, m.n)
	m.held = append(m.held, row)
	m.slot = append(m.slot, uint16(slot))
	m.idx[slot] = uint16(len(m.held))
	return row
}

// release drops slot's row, if it holds one, and hands its storage back to
// the collector: the last held row moves into its place in the list.
func (m *CostMatrix) release(slot int) {
	i := int(m.idx[slot]) - 1
	if i < 0 {
		return
	}
	last := len(m.held) - 1
	m.held[i], m.slot[i] = m.held[last], m.slot[last]
	m.idx[m.slot[i]] = uint16(i + 1)
	m.held[last] = nil
	m.held, m.slot = m.held[:last], m.slot[:last]
	m.idx[slot] = 0
}

// grow extends the matrix to newN slots. Held rows are padded with InfCost —
// exactly what the absent tail already reads as — so every pre-existing
// slot's scannable contents are bit-identical to what they were before the
// grow; each grown row is allocated at exactly newN, as rowFor allocates one,
// since a held row lives until its slot expires. New slots start empty.
func (m *CostMatrix) grow(newN int) {
	for i, row := range m.held {
		grown := make([]wire.Cost, newN)
		copy(grown, row)
		copy(grown[m.n:], infRow[m.n:newN])
		m.held[i] = grown
	}
	m.idx = append(make([]uint16, 0, newN), m.idx...)[:newN]
	m.n = newN
}

// retire drops slot's row storage and marks the slot unreachable in every
// other held row (column slot reads InfCost everywhere).
func (m *CostMatrix) retire(slot int) {
	m.release(slot)
	for _, row := range m.held {
		row[slot] = wire.InfCost
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

// noHop is the result for a destination no path reaches.
var noHop = HopCost{Hop: -1, Cost: wire.InfCost}

// maskedSource copies rowA into buf with the skip slot forced to InfCost, so
// that it can win no minimisation: the form in which a source row is scanned
// against every destination of its batch. The copy is returned (aliasing buf
// when it was large enough), so callers keep the result as their next buffer.
//
//lint:allocfree
func maskedSource(buf []wire.Cost, rowA []wire.Cost, skip int) []wire.Cost {
	//lint:allowalloc grows once, when the caller's buffer is smaller than the row
	src := append(buf[:0], rowA...)
	if skip >= 0 && skip < len(src) {
		src[skip] = wire.InfCost
	}
	return src
}

// scanOneHop scans one destination row against a masked source row: the
// smallest saturated sum, then the first hop that attains it — the scalar
// kernel's first-strict-minimum order.
//
//lint:allocfree
func scanOneHop(src, rowB []wire.Cost) HopCost {
	if len(rowB) < len(src) {
		src = src[:len(rowB)]
	}
	m := minSum(src, rowB)
	if m == wire.InfCost {
		return noHop
	}
	return HopCost{Hop: firstSumEq(src, rowB, m), Cost: m}
}

// BestOneHopPairs batch-evaluates arbitrary (src, dst) slot pairs against
// this one matrix — round 2 over a symmetric table, where a row serves as
// both directions. out must have len(pairs) entries. Consecutive pairs
// sharing a source reuse its masked copy, so grouping pairs by source gets
// the same amortization as Table.BestOneHopAllRow.
//
//lint:allocfree
func (m *CostMatrix) BestOneHopPairs(pairs [][2]int, out []HopCost) {
	lastSrc := -1
	for i, p := range pairs {
		if p[0] != lastSrc {
			m.srcBuf = maskedSource(m.srcBuf, m.Row(p[0]), p[0])
			lastSrc = p[0]
		}
		out[i] = scanOneHop(m.srcBuf, m.Row(p[1]))
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
// slot. out must have len(dsts) entries. rowOut is copied into srcBuf once,
// masked, and stays cache-resident across the whole pass; the grown buffer is
// returned for reuse.
//
//lint:allocfree
func (t *Table) BestOneHopAllRow(srcBuf []wire.Cost, rowOut []wire.Cost, skip int, dsts []int, out []HopCost) []wire.Cost {
	srcBuf = maskedSource(srcBuf, rowOut, skip)
	for i, b := range dsts {
		out[i] = scanOneHop(srcBuf, t.in.Row(b))
	}
	return srcBuf
}

// BestOneHopToRow evaluates the opposite direction of BestOneHopAllRow: the
// best one-hop route from each stored slot in srcs to the holder of rowIn
// (its costs h→holder, unpacked). The skip slot differs per source, so each
// source's out-row is masked in turn and scanned against the one shared
// in-row. Only a directional table needs it — on a symmetric one the answer
// is the forward result.
//
//lint:allocfree
func (t *Table) BestOneHopToRow(srcBuf []wire.Cost, srcs []int, rowIn []wire.Cost, out []HopCost) []wire.Cost {
	for i, a := range srcs {
		srcBuf = maskedSource(srcBuf, t.out.Row(a), a)
		out[i] = scanOneHop(srcBuf, rowIn)
	}
	return srcBuf
}

// BestOneHopViaAll batch-evaluates the §4.2 fallback — the redundant
// link-state route a node whose rendezvous servers have failed computes
// through the neighbors whose rows it holds — for every destination slot at
// once: out[dst] is the best of the direct path rowOut[dst] and
// rowOut[h] + out_h(dst) over intermediates h with a row fresher than maxAge.
// Each intermediate's freshness is evaluated once and its row then streamed
// across all destinations, the next intermediate's row prefetched meanwhile,
// so the whole table recompute is one O(fresh·n) pass at memory speed. out
// must have t.N() entries. The running minimum and intermediary per
// destination are scratch the table keeps, sized on the first pass after the
// table last grew.
//
//lint:allocfree
func (t *Table) BestOneHopViaAll(rowOut []wire.Cost, now time.Time, maxAge time.Duration, out []HopCost) {
	if len(t.best) != t.n {
		//lint:allowalloc sized once per table size, on the first pass after a grow
		t.best, t.hop = make([]wire.Cost, t.n), make([]uint16, t.n)
	}
	// Destinations ≥ lim have no path — the row has no first leg toward them
	// — so intermediates only stream over [0, lim).
	lim := min(t.n, len(rowOut))
	for dst := lim; dst < t.n; dst++ {
		out[dst] = noHop
	}
	// Every destination starts from its direct path, a dead one at InfCost,
	// where the hop is not read.
	best, hop := t.best[:lim], t.hop[:lim]
	copy(best, rowOut)
	for i := range hop {
		hop[i] = uint16(i)
	}
	ns := now.UnixNano()
	for h := range lim {
		// Held rows are separate allocations, so the hardware prefetcher
		// starts cold on each: ask for the next one while this one streams.
		if h+1 < lim {
			prefetch(t.out.Row(h + 1)[:lim])
		}
		ca := rowOut[h]
		if ca == wire.InfCost || !t.freshAt(h, ns, maxAge) {
			continue // a dead first leg can never improve any destination
		}
		// h is no intermediary on the way to itself: put its own lane back.
		keepBest, keepHop := best[h], hop[h]
		relax(ca, t.out.Row(h)[:lim], best, hop, uint16(h))
		best[h], hop[h] = keepBest, keepHop
	}
	for dst, c := range best {
		if c == wire.InfCost {
			out[dst] = noHop
		} else {
			out[dst] = HopCost{Hop: int(hop[dst]), Cost: c}
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
	best := noHop
	if dst < len(rowOut) && rowOut[dst] != wire.InfCost {
		best = HopCost{Hop: dst, Cost: rowOut[dst]}
	}
	lim := min(t.n, len(rowOut))
	if dst >= lim {
		return best.Hop, best.Cost // no intermediate has a column toward dst
	}
	ns := now.UnixNano()
	for h := 0; h < lim; h++ {
		if h == dst || !t.freshAt(h, ns, maxAge) {
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
