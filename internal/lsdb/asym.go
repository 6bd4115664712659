package lsdb

import "allpairs/internal/wire"

// NewDirectionalTable returns an empty table for an n-slot view whose rows
// carry a cost per direction. Splitting the two directions into their own
// contiguous matrices is what lets the footnote-2 mode run the same
// kernels as the symmetric path: out-rows are the sources, in-rows the
// destinations scanned against them.
func NewDirectionalTable(n int) *Table {
	return newTable(n, newCostMatrix(n), newCostMatrix(n))
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
