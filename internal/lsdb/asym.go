package lsdb

import (
	"time"

	"allpairs/internal/wire"
)

// AsymRow is one node's announced directional link-state vector (footnote 2
// mode): for every slot, the one-way cost toward it and the one-way cost back.
type AsymRow struct {
	Seq     uint32
	When    time.Time
	Entries []wire.AsymEntry
}

// NewDirectionalTable returns an empty table for an n-slot view whose rows
// carry a cost per direction. Splitting the two directions into their own
// contiguous matrices is what lets the footnote-2 mode run the same
// kernels as the symmetric path: out-rows are the sources, in-rows the
// destinations scanned against them.
func NewDirectionalTable(n int) *Table {
	return newTable(n, newCostMatrix(n), newCostMatrix(n))
}

// PutAsym is Put for a directional row, under the same acceptance rule; each
// direction is unpacked into its own matrix. A symmetric table rejects it.
func (t *Table) PutAsym(slot int, row AsymRow) bool {
	if !t.Directional() || !t.accept(slot, len(row.Entries), row.Seq, row.When) {
		return false
	}
	out, in := t.out.rowFor(slot), t.in.rowFor(slot)
	for i, e := range row.Entries {
		out[i], in[i] = e.OutCost(), e.InCost()
	}
	return true
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
