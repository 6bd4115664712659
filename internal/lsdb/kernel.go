package lsdb

import "allpairs/internal/wire"

// The four primitives the batched kernels and the link-state ingest are built
// from, over plain uint16 cost rows. Each has two implementations: eight lanes
// of SSE2 over the whole blocks of eight entries a row holds (kernel_amd64.s —
// SSE2 is baseline amd64, so nothing is probed or dispatched), and the Go loop
// here, which finishes the last entries there and is the whole of it on every
// other architecture. The …Blocks half reports how many leading entries it
// consumed; the Go half takes the rest. A fifth, prefetch, only warms the
// cache and has no Go twin.

// entryCosts unpacks the first len(row) entries of a TLinkState row's entry
// bytes into row: each entry's LinkEntry.Cost, its latency or InfCost where
// its status is dead. entries must hold at least 3·len(row) bytes.
//
//lint:allocfree
func entryCosts(row []wire.Cost, entries []byte) {
	// The block half's last load of each eight entries ends a byte past them,
	// and it must read nothing past len(entries): it is handed only the
	// blocks with a byte of entries behind them.
	blocks := min(len(row)/8, max(len(entries)-1, 0)/(8*wire.LinkEntryLen))
	done := entryCostsBlocks(row[:8*blocks], entries)
	entryCostsGo(row[done:], entries[done*wire.LinkEntryLen:])
}

// entryCostsGo is entryCosts as defined, one entry at a time.
//
//lint:allocfree
func entryCostsGo(row []wire.Cost, entries []byte) {
	for i := range row {
		row[i] = wire.LinkEntryAt(entries, i).Cost()
	}
}

// minSum returns the minimum over h of a[h] + b[h] saturated at InfCost —
// Cost.Add's rule — or InfCost for empty rows. len(b) must be at least len(a).
//
//lint:allocfree
func minSum(a, b []wire.Cost) wire.Cost {
	done, m := minSumBlocks(a, b)
	return minSumGo(a[done:], b[done:], m)
}

// minSumGo lowers m to the smallest sum below it. A sum of InfCost or more is
// never below m, which is the saturation.
//
//lint:allocfree
func minSumGo(a, b []wire.Cost, m wire.Cost) wire.Cost {
	b = b[:len(a)]
	least := uint32(m)
	for h, c := range a {
		least = min(least, uint32(c)+uint32(b[h]))
	}
	return wire.Cost(least)
}

// firstSumEq returns the smallest h whose saturated sum a[h] + b[h] equals m,
// or -1: with m = minSum(a, b), the minimising hop under the scalar kernel's
// tie-break. len(b) must be at least len(a).
//
//lint:allocfree
func firstSumEq(a, b []wire.Cost, m wire.Cost) int {
	return firstSumEqGo(a, b, m, firstSumEqBlocks(a, b, m))
}

// firstSumEqGo is firstSumEq over h ≥ from.
//
//lint:allocfree
func firstSumEqGo(a, b []wire.Cost, m wire.Cost, from int) int {
	b = b[:len(a)]
	for h := from; h < len(a); h++ {
		if min(uint32(a[h])+uint32(b[h]), uint32(wire.InfCost)) == uint32(m) {
			return h
		}
	}
	return -1
}

// relax is one intermediary's step of the §4.2 pass: it offers every
// destination i the path through h, whose first leg costs ca and whose second
// row[i], and wherever the saturated sum is strictly below best[i] it becomes
// best[i] and h becomes hop[i]. Strict, so of the intermediaries offering one
// cost the first to be relaxed keeps the destination. row and hop must be at
// least as long as best.
//
//lint:allocfree
func relax(ca wire.Cost, row, best []wire.Cost, hop []uint16, h uint16) {
	done := relaxBlocks(ca, row, best, hop, h)
	relaxGo(ca, row[done:], best[done:], hop[done:], h)
}

// relaxGo is relax as defined, one destination at a time.
//
//lint:allocfree
func relaxGo(ca wire.Cost, row, best []wire.Cost, hop []uint16, h uint16) {
	row, hop = row[:len(best)], hop[:len(best)]
	for i, cb := range row {
		if s := uint32(ca) + uint32(cb); s < uint32(best[i]) {
			best[i], hop[i] = wire.Cost(s), h
		}
	}
}
