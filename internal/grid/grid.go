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
// The package works on grid slots (integers 0..n-1). Mapping slots to node
// IDs — by filling the grid from the sorted member list — is the membership
// layer's job, which keeps this package a pure, exhaustively testable
// construction.
package grid

import (
	"fmt"
	"math"
	"sort"
)

// Grid is an immutable quorum layout for n nodes. All methods are safe for
// concurrent use.
type Grid struct {
	n       int
	rows    int
	cols    int
	lastRow int // number of occupied slots in the final row

	// occupied is the per-slot liveness mask of a masked grid (NewMasked),
	// or nil for the dense construction where every slot holds a node.
	occupied []bool

	// servers[i] is the sorted rendezvous server set of slot i (its row and
	// column, plus blank-compensation extras; never includes i itself).
	servers [][]int
}

// New constructs the grid quorum for n ≥ 1 nodes.
func New(n int) (*Grid, error) {
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

	g := &Grid{n: n}
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

	g.servers = make([][]int, n)
	for i := 0; i < n; i++ {
		g.servers[i] = g.buildServers(i)
	}
	return g, nil
}

// NewMasked constructs the grid quorum over an n-slot space in which only
// the slots with occupied[s] == true hold live nodes; the rest are
// tombstones left behind by departed members. A nil mask (or one with every
// slot true) yields exactly New(n), so fully occupied views pay nothing.
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
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	return g.Remask(occupied)
}

// Remask derives a masked grid from a dense one without rebuilding it: only
// the slots a tombstone can have perturbed — the dead slot's row, column,
// blank-compensation partners, and line deputies — get fresh server sets;
// every other slot shares the dense grid's slice. With d tombstones the cost
// is O(d·n) instead of the dense construction's O(n·√n), which is what keeps
// a single join or leave O(1) per member at the grid layer too. The receiver
// must be dense (Remask of a Remask would compound substitutions); a nil or
// all-true mask returns the receiver unchanged.
func (g *Grid) Remask(occupied []bool) (*Grid, error) {
	if g.occupied != nil {
		return nil, fmt.Errorf("grid: Remask requires a dense grid")
	}
	if occupied == nil {
		return g, nil
	}
	if len(occupied) != g.n {
		return nil, fmt.Errorf("grid: mask length %d != %d slots", len(occupied), g.n)
	}
	var dead []int
	for s, o := range occupied {
		if !o {
			dead = append(dead, s)
		}
	}
	if len(dead) == 0 {
		return g, nil
	}
	// Deputies: the first occupied slot of each column and row, or -1 when a
	// whole line is tombstoned (then the §4.2 link-state fallback carries any
	// residual pair at runtime).
	colDep := make([]int, g.cols)
	for c := range colDep {
		colDep[c] = -1
		for r := 0; r < g.rows; r++ {
			if s, ok := g.SlotAt(r, c); ok && occupied[s] {
				colDep[c] = s
				break
			}
		}
	}
	rowDep := make([]int, g.rows)
	for r := range rowDep {
		rowDep[r] = -1
		for c := 0; c < g.cols; c++ {
			if s, ok := g.SlotAt(r, c); ok && occupied[s] {
				rowDep[r] = s
				break
			}
		}
	}
	// Touched slots: the only ones whose server sets can differ from the
	// dense grid's. Every substitution an occupied slot performs targets the
	// deputy of a dead slot's line, and every slot performing one sits in a
	// dead slot's row/column or is its compensation partner — so rebuilding
	// exactly these (with the symmetrizing pass below restricted to them)
	// reproduces the full construction.
	touched := make([]bool, g.n)
	mark := func(s int) {
		if s >= 0 {
			touched[s] = true
		}
	}
	for _, d := range dead {
		r, c := g.Position(d)
		mark(d)
		for cc := 0; cc < g.cols; cc++ {
			if s, ok := g.SlotAt(r, cc); ok {
				mark(s)
			}
		}
		for rr := 0; rr < g.rows; rr++ {
			if s, ok := g.SlotAt(rr, c); ok {
				mark(s)
			}
		}
		mark(colDep[c])
		mark(rowDep[r])
		if k := g.lastRow; k < g.cols {
			if r == g.rows-1 {
				for j := k; j < g.cols; j++ {
					if s, ok := g.SlotAt(c, j); ok {
						mark(s)
					}
				}
			}
			if c >= k && r < k {
				if s, ok := g.SlotAt(g.rows-1, r); ok {
					mark(s)
				}
			}
		}
	}
	sets := make([][]int, g.n)
	add := func(a, b int) {
		if b < 0 || a == b || !occupied[b] {
			return
		}
		if touched[a] {
			sets[a] = append(sets[a], b)
		}
		if touched[b] {
			sets[b] = append(sets[b], a)
		}
	}
	for x := 0; x < g.n; x++ {
		if !touched[x] || !occupied[x] {
			continue
		}
		r, c := g.Position(x)
		// Row mates reach their column: a dead mate is replaced by that
		// column's deputy.
		for cc := 0; cc < g.cols; cc++ {
			if s, ok := g.SlotAt(r, cc); ok && s != x {
				if occupied[s] {
					add(x, s)
				} else {
					add(x, colDep[cc])
				}
			}
		}
		// Column mates reach their row: a dead mate is replaced by that
		// row's deputy.
		for rr := 0; rr < g.rows; rr++ {
			if s, ok := g.SlotAt(rr, c); ok && s != x {
				if occupied[s] {
					add(x, s)
				} else {
					add(x, rowDep[rr])
				}
			}
		}
		// Blank compensation, with the same substitution rules: the tail
		// extras reach their column, the bottom-row extra reaches its row.
		if k := g.lastRow; k < g.cols {
			if r == g.rows-1 {
				for j := k; j < g.cols; j++ {
					if s, ok := g.SlotAt(c, j); ok {
						if occupied[s] {
							add(x, s)
						} else {
							add(x, colDep[j])
						}
					}
				}
			}
			if c >= k && r < k {
				if s, ok := g.SlotAt(g.rows-1, r); ok {
					if occupied[s] {
						add(x, s)
					} else {
						add(x, rowDep[g.rows-1])
					}
				}
			}
		}
	}
	servers := make([][]int, g.n)
	for s := 0; s < g.n; s++ {
		switch {
		case !occupied[s]:
			// tombstone: empty server set
		case touched[s]:
			list := sets[s]
			sort.Ints(list)
			out := list[:0]
			prev := -1
			for _, v := range list {
				if v != prev {
					out = append(out, v)
					prev = v
				}
			}
			servers[s] = out
		default:
			servers[s] = g.servers[s]
		}
	}
	return &Grid{
		n:        g.n,
		rows:     g.rows,
		cols:     g.cols,
		lastRow:  g.lastRow,
		occupied: append([]bool(nil), occupied...),
		servers:  servers,
	}, nil
}

// buildServers computes the rendezvous server set for one slot.
func (g *Grid) buildServers(slot int) []int {
	r, c := g.Position(slot)
	set := make(map[int]struct{}, 2*g.rows)
	// Row.
	for cc := 0; cc < g.cols; cc++ {
		if s, ok := g.SlotAt(r, cc); ok && s != slot {
			set[s] = struct{}{}
		}
	}
	// Column.
	for rr := 0; rr < g.rows; rr++ {
		if s, ok := g.SlotAt(rr, c); ok && s != slot {
			set[s] = struct{}{}
		}
	}
	// Blank compensation (§3, "Non perfect-square grids"), 0-indexed: with k
	// occupied slots in the last row, the bottom-row node in column c0 < k is
	// paired with the nodes (c0, j) for k ≤ j < cols, symmetrically.
	if k := g.lastRow; k < g.cols {
		if r == g.rows-1 {
			// Bottom-row node at column c: extras are row c's tail.
			for j := k; j < g.cols; j++ {
				if s, ok := g.SlotAt(c, j); ok {
					set[s] = struct{}{}
				}
			}
		}
		if c >= k && r < k {
			// Tail-column node in row r < k: extra is bottom-row node (rows-1, r).
			if s, ok := g.SlotAt(g.rows-1, r); ok {
				set[s] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// N returns the number of nodes.
func (g *Grid) N() int { return g.n }

// Rows returns the number of grid rows.
func (g *Grid) Rows() int { return g.rows }

// Cols returns the number of grid columns.
func (g *Grid) Cols() int { return g.cols }

// LastRowLen returns the number of occupied slots in the final row.
func (g *Grid) LastRowLen() int { return g.lastRow }

// IsComplete reports whether the grid has no blank slots.
func (g *Grid) IsComplete() bool { return g.lastRow == g.cols }

// OccupiedSlot reports whether a slot holds a live node. For a dense grid
// (New, or NewMasked with a nil/full mask) every slot is occupied.
func (g *Grid) OccupiedSlot(slot int) bool {
	if slot < 0 || slot >= g.n {
		panic(fmt.Sprintf("grid: slot %d out of range [0,%d)", slot, g.n))
	}
	return g.occupied == nil || g.occupied[slot]
}

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

// Servers returns slot's rendezvous server set: every other node in its row
// and column, plus blank-compensation extras. The returned slice is owned by
// the Grid and must not be modified.
func (g *Grid) Servers(slot int) []int {
	if slot < 0 || slot >= g.n {
		panic(fmt.Sprintf("grid: slot %d out of range [0,%d)", slot, g.n))
	}
	return g.servers[slot]
}

// Clients returns the slots for which slot acts as a rendezvous server. For
// the grid quorum the relation is symmetric (R_i = C_i, §3), so this equals
// Servers; both names are provided because the routing protocol treats the
// two roles differently.
func (g *Grid) Clients(slot int) []int { return g.Servers(slot) }

// IsServerOf reports whether server ∈ Servers(client).
func (g *Grid) IsServerOf(server, client int) bool {
	ss := g.Servers(client)
	i := sort.SearchInts(ss, server)
	return i < len(ss) && ss[i] == server
}

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
	sa, sb := g.Servers(a), g.Servers(b)
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
	if g.IsServerOf(b, a) {
		out = append(out, a, b)
	}
	sort.Ints(out)
	return out
}

// FailoverCandidates returns the slots a node may recruit as failover
// rendezvous servers for destination dst: all other nodes in dst's row and
// column (§4.1's 2√n candidate set). The caller filters by reachability. The
// returned slice is owned by the Grid and must not be modified (it is dst's
// server set, which by construction is exactly dst's row-column set).
func (g *Grid) FailoverCandidates(dst int) []int { return g.Servers(dst) }

// MaxLoad returns the maximum rendezvous set size over all slots. The paper
// shows this is at most 2√n even with blank compensation.
func (g *Grid) MaxLoad() int {
	m := 0
	for _, s := range g.servers {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// VerifyInvariants exhaustively checks the construction's guarantees and
// returns a descriptive error on the first violation. Intended for tests and
// the experiments harness; cost is O(n²·√n).
//
// For a masked grid the checks cover the occupied slots: the rendezvous
// relation must stay symmetric, never name a tombstone, and every occupied
// pair must share at least one rendezvous (deputy substitution cannot
// promise two); the load bound is relaxed in proportion to the tombstone
// count, since a deputy inherits the pairs of the slots it stands in for.
func (g *Grid) VerifyInvariants() error {
	dead := 0
	for i := 0; i < g.n; i++ {
		if !g.OccupiedSlot(i) {
			dead++
		}
	}
	// Symmetry: j ∈ Servers(i) ⟺ i ∈ Servers(j); tombstones serve no one.
	for i := 0; i < g.n; i++ {
		if !g.OccupiedSlot(i) {
			if len(g.servers[i]) != 0 {
				return fmt.Errorf("grid: tombstoned slot %d has %d servers", i, len(g.servers[i]))
			}
			continue
		}
		for _, j := range g.servers[i] {
			if !g.OccupiedSlot(j) {
				return fmt.Errorf("grid: slot %d names tombstoned server %d", i, j)
			}
			if !g.IsServerOf(i, j) {
				return fmt.Errorf("grid: asymmetric rendezvous relation %d->%d", i, j)
			}
		}
	}
	// Pair coverage: every occupied pair shares a rendezvous; a dense grid
	// with n ≥ 4 shares two.
	for i := 0; i < g.n; i++ {
		if !g.OccupiedSlot(i) {
			continue
		}
		for j := i + 1; j < g.n; j++ {
			if !g.OccupiedSlot(j) {
				continue
			}
			c := g.Common(i, j)
			if len(c) == 0 {
				return fmt.Errorf("grid: pair (%d,%d) has no common rendezvous", i, j)
			}
			if dead == 0 && g.n >= 4 && len(c) < 2 {
				return fmt.Errorf("grid: pair (%d,%d) has only %d common rendezvous", i, j, len(c))
			}
		}
	}
	// Load bound: |R_i| ≤ 2·⌈√n⌉ (paper: at most 2√n clients and servers).
	// Each tombstone can push its row's and column's pairs onto a deputy, so
	// the masked bound grows by one line per tombstone.
	bound := (2 + dead) * int(math.Ceil(math.Sqrt(float64(g.n))))
	if m := g.MaxLoad(); m > bound {
		return fmt.Errorf("grid: max rendezvous load %d exceeds (2+dead)·⌈√n⌉ = %d", m, bound)
	}
	return nil
}
