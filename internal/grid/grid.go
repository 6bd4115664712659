// Package grid implements the grid quorum construction at the heart of the
// paper's routing algorithm (§3).
//
// The n overlay nodes are laid out row-major in a near-square grid. A node's
// rendezvous servers are all the other nodes in its row and column, so any
// two nodes share at least one — normally two — rendezvous servers (the two
// "corners" of the rectangle their positions span). This is what lets a
// two-round protocol find every optimal one-hop route with only O(√n)
// messages per node per round.
//
// Non-perfect squares are handled exactly as in the paper: with
// a = √n − ⌊√n⌋, the grid is ⌈√n⌉×⌊√n⌋ when a < 0.5 and ⌈√n⌉×⌈√n⌉
// otherwise, leaving blanks only in the last row. Nodes whose column ends in
// a blank are given one bottom-row node as an extra rendezvous server (and
// vice versa), restoring the two-server intersection property without
// doubling any node's load.
//
// A Grid stores no rendezvous sets. It is its shape, an occupancy mask and the
// deputy of every row and column — O(n) to build, n bytes and O(√n) words to
// keep — and Servers derives one slot's set per call, by one rule for dense
// and tombstoned grids alike. A node needs its own set and, at a view change,
// those of its 2√n servers; nobody needs all n.
//
// The package works on grid slots (integers 0..n-1). Mapping slots to node
// IDs — by filling the grid from the sorted member list — is the membership
// layer's job, which keeps this package a pure, exhaustively testable
// construction.
package grid

import (
	"fmt"
	"math"
	"slices"
)

// Grid is an immutable quorum layout for n nodes. All methods are safe for
// concurrent use.
type Grid struct {
	n       int
	rows    int
	cols    int
	lastRow int // number of occupied slots in the final row

	// occupied is the per-slot liveness mask, or nil when every slot holds a
	// node.
	occupied []bool

	// rowDep[r] and colDep[c] are the deputies: the first occupied slot of each
	// row and column, or -1 when a whole line is tombstoned (then the §4.2
	// link-state fallback carries any residual pair at runtime).
	rowDep, colDep []int
}

// New constructs the grid quorum for n ≥ 1 nodes.
func New(n int) (*Grid, error) { return NewMasked(n, nil) }

// NewMasked constructs the grid quorum over an n-slot space in which only
// the slots with occupied[s] == true hold live nodes; the rest are
// tombstones left behind by departed members. A nil mask (or one with every
// slot true) yields exactly New(n).
//
// The layout (rows, columns, blank compensation) is computed over the full
// n-slot space — slot positions never move when the mask changes, which is
// what makes one join or leave an O(1) perturbation. Tombstoned rendezvous
// servers are patched by deputy substitution: a dead server that a node
// relied on to reach a column is replaced by that column's first occupied
// slot, and one relied on to reach a row by that row's first occupied slot.
// The substitute lands inside the column (row) that the other endpoint of
// every affected pair already serves, so any occupied pair whose corner died
// still shares at least one rendezvous. The relation is symmetrized, so
// R_i = C_i continues to hold. Tombstoned slots have empty server sets.
func NewMasked(n int, occupied []bool) (*Grid, error) {
	if n < 1 {
		return nil, fmt.Errorf("grid: need at least 1 node, got %d", n)
	}
	root := math.Sqrt(float64(n))
	floor := int(math.Floor(root))
	ceil := int(math.Ceil(root))
	// Guard against floating-point error on perfect squares.
	if floor*floor == n {
		ceil = floor
	} else if ceil == floor {
		ceil = floor + 1
	}

	g := Grid{n: n}
	if root-float64(floor) < 0.5 {
		g.rows, g.cols = ceil, floor
	} else {
		g.rows, g.cols = ceil, ceil
	}
	if g.cols == 0 {
		g.cols = 1
	}
	if g.rows*g.cols < n {
		// Cannot happen for the construction above; guard regardless.
		return nil, fmt.Errorf("grid: internal error, %dx%d < %d", g.rows, g.cols, n)
	}
	g.lastRow = n - (g.rows-1)*g.cols
	if g.lastRow <= 0 {
		return nil, fmt.Errorf("grid: internal error, empty last row for n=%d", n)
	}
	return g.Remask(occupied)
}

// Remask returns a grid of the receiver's shape over another occupancy mask
// (nil: every slot occupied), whatever mask the receiver had: one O(n) pass
// finds the deputies, and nothing else about a grid depends on the mask.
func (g *Grid) Remask(occupied []bool) (*Grid, error) {
	if occupied != nil && len(occupied) != g.n {
		return nil, fmt.Errorf("grid: mask length %d != %d slots", len(occupied), g.n)
	}
	m := *g
	m.occupied = slices.Clone(occupied)
	dep := make([]int, g.rows+g.cols)
	for i := range dep {
		dep[i] = -1
	}
	m.rowDep, m.colDep = dep[:g.rows:g.rows], dep[g.rows:]
	for s := g.n - 1; s >= 0; s-- { // descending, so the first occupied slot of a line is written last
		if m.live(s) {
			m.rowDep[s/g.cols], m.colDep[s%g.cols] = s, s
		}
	}
	return &m, nil
}

// N returns the number of nodes.
func (g *Grid) N() int { return g.n }

// Rows returns the number of grid rows.
func (g *Grid) Rows() int { return g.rows }

// Cols returns the number of grid columns.
func (g *Grid) Cols() int { return g.cols }

func (g *Grid) live(slot int) bool { return g.occupied == nil || g.occupied[slot] }

// Position returns the (row, col) of a slot. It panics if slot is out of
// range, which always indicates a programming error in the caller.
func (g *Grid) Position(slot int) (row, col int) {
	if slot < 0 || slot >= g.n {
		panic(fmt.Sprintf("grid: slot %d out of range [0,%d)", slot, g.n))
	}
	return slot / g.cols, slot % g.cols
}

// SlotAt returns the slot at (row, col), or ok=false if the position is out
// of range or blank.
func (g *Grid) SlotAt(row, col int) (slot int, ok bool) {
	if row < 0 || row >= g.rows || col < 0 || col >= g.cols {
		return 0, false
	}
	s := row*g.cols + col
	if s >= g.n {
		return 0, false
	}
	return s, true
}

// rowEnd returns one past the last slot of row r (the final row may be short).
func (g *Grid) rowEnd(r int) int { return min((r+1)*g.cols, g.n) }

// Servers returns slot's sorted rendezvous server set, never including slot
// itself and empty for a tombstone. It is computed on every call — O(√n), or
// O(√n) per tombstone in a line slot is the deputy of — and the caller owns
// the returned slice.
//
// Forward, slot relies on its row mates to reach their columns, on its column
// mates to reach their rows, and on its blank-compensation partners (§3, "Non
// perfect-square grids", 0-indexed: with k slots in the last row, the
// bottom-row node in column c < k is paired with the nodes (c, j) for
// k ≤ j < cols, symmetrically); a tombstone among them is replaced by the
// deputy of the line it was relied on to reach. Inverse, because the relation
// is symmetric, the deputy of a line inherits whoever relied on a tombstone
// d to reach that line: d's row mates and, in a tail column, d's bottom-row
// partner for a column deputy; d's column mates and, in the bottom row, d's
// tail extras for a row deputy.
func (g *Grid) Servers(slot int) []int {
	r, c := g.Position(slot)
	if !g.live(slot) {
		return nil
	}
	k, bottom := g.lastRow, g.rows-1
	out := make([]int, 0, g.rows+2*g.cols)
	for s := r * g.cols; s < g.rowEnd(r); s++ {
		out = g.relyOn(out, s, g.colDep[s%g.cols])
	}
	for s := c; s < g.n; s += g.cols {
		out = g.relyOn(out, s, g.rowDep[s/g.cols])
	}
	if r == bottom {
		for j := k; j < g.cols; j++ {
			out = g.relyOn(out, c*g.cols+j, g.colDep[j])
		}
	}
	if c >= k && r < k {
		out = g.relyOn(out, bottom*g.cols+r, g.rowDep[bottom])
	}
	if g.colDep[c] == slot { // inverse, as column deputy
		for d := c; d < g.n; d += g.cols {
			if g.live(d) {
				continue
			}
			dr := d / g.cols
			for y := dr * g.cols; y < g.rowEnd(dr); y++ {
				out = g.relyOn(out, y, -1)
			}
			if c >= k && dr < k {
				out = g.relyOn(out, bottom*g.cols+dr, -1)
			}
		}
	}
	if g.rowDep[r] == slot { // inverse, as row deputy
		for d := r * g.cols; d < g.rowEnd(r); d++ {
			if g.live(d) {
				continue
			}
			dc := d % g.cols
			for y := dc; y < g.n; y += g.cols {
				out = g.relyOn(out, y, -1)
			}
			if r == bottom {
				for j := k; j < g.cols; j++ {
					out = g.relyOn(out, dc*g.cols+j, -1)
				}
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	if i, found := slices.BinarySearch(out, slot); found {
		out = slices.Delete(out, i, i+1)
	}
	return out
}

// relyOn appends s, or when s is a tombstone its stand-in deputy — nobody when
// that is -1.
func (g *Grid) relyOn(out []int, s, deputy int) []int {
	if !g.live(s) {
		s = deputy
	}
	if s < 0 {
		return out
	}
	return append(out, s)
}

// Clients returns the slots for which slot acts as a rendezvous server. For
// the grid quorum the relation is symmetric (R_i = C_i, §3), so this equals
// Servers; both names are provided because the routing protocol treats the
// two roles differently.
func (g *Grid) Clients(slot int) []int { return g.Servers(slot) }

// Common returns the sorted set of nodes that can act as rendezvous for the
// pair (a, b): nodes in Servers(a) ∩ Servers(b), plus a and/or b themselves
// when one is a server of the other (pairs sharing a row or column rendezvous
// through their endpoints — each receives the other's link state directly).
// For a == b it returns nil. The two-intersection property guarantees
// len ≥ 2 for all pairs when n ≥ 4.
func (g *Grid) Common(a, b int) []int {
	if a == b {
		return nil
	}
	return common(a, b, g.Servers(a), g.Servers(b))
}

// common is Common over a's and b's server sets.
func common(a, b int, sa, sb []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] == sb[j]:
			out = append(out, sa[i])
			i++
			j++
		case sa[i] < sb[j]:
			i++
		default:
			j++
		}
	}
	// Endpoints acting as their own rendezvous.
	if _, found := slices.BinarySearch(sa, b); found {
		out = append(out, a, b)
	}
	slices.Sort(out)
	return out
}

// FailoverCandidates returns the slots a node may recruit as failover
// rendezvous servers for destination dst: all other nodes in dst's row and
// column (§4.1's 2√n candidate set). The caller filters by reachability. It is
// dst's server set, which by construction is exactly dst's row-column set.
func (g *Grid) FailoverCandidates(dst int) []int { return g.Servers(dst) }
