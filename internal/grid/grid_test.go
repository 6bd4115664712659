package grid

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadN(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) should fail", n)
		}
	}
}

func TestShapeMatchesPaperRule(t *testing.T) {
	// Footnote 5: a = √n − ⌊√n⌋; a < 0.5 → ⌈√n⌉×⌊√n⌋, else ⌈√n⌉×⌈√n⌉.
	cases := []struct {
		n, rows, cols, last int
	}{
		{1, 1, 1, 1},
		{2, 2, 1, 1},
		{3, 2, 2, 1},
		{4, 2, 2, 2},
		{5, 3, 2, 1},
		{6, 3, 2, 2},
		{7, 3, 3, 1},
		{8, 3, 3, 2},
		{9, 3, 3, 3},
		{12, 4, 3, 3},    // √12≈3.46, a<.5 → 4×3, exact fit
		{15, 4, 4, 3},    // √15≈3.87, a≥.5 → 4×4
		{18, 5, 4, 2},    // the paper's §3 example: 5×4 with 2 in the last row
		{140, 12, 12, 8}, // the deployment size
		{144, 12, 12, 12},
	}
	for _, c := range cases {
		g, err := New(c.n)
		if err != nil {
			t.Fatalf("New(%d): %v", c.n, err)
		}
		if g.Rows() != c.rows || g.Cols() != c.cols || g.LastRowLen() != c.last {
			t.Errorf("n=%d: got %dx%d last=%d, want %dx%d last=%d",
				c.n, g.Rows(), g.Cols(), g.LastRowLen(), c.rows, c.cols, c.last)
		}
		if g.N() != c.n {
			t.Errorf("n=%d: N()=%d", c.n, g.N())
		}
		if g.IsComplete() != (c.last == c.cols) {
			t.Errorf("n=%d: IsComplete=%v", c.n, g.IsComplete())
		}
	}
}

func TestPositionSlotAtRoundTrip(t *testing.T) {
	g, _ := New(18)
	for s := 0; s < 18; s++ {
		r, c := g.Position(s)
		got, ok := g.SlotAt(r, c)
		if !ok || got != s {
			t.Errorf("slot %d -> (%d,%d) -> %d ok=%v", s, r, c, got, ok)
		}
	}
	if _, ok := g.SlotAt(4, 2); ok {
		t.Error("blank slot (4,2) should not exist") // 5×4 grid, 18 nodes: slots 18,19 blank
	}
	if _, ok := g.SlotAt(-1, 0); ok {
		t.Error("negative row should not exist")
	}
	if _, ok := g.SlotAt(0, 99); ok {
		t.Error("out-of-range col should not exist")
	}
}

func TestPositionPanicsOutOfRange(t *testing.T) {
	g, _ := New(9)
	defer func() {
		if recover() == nil {
			t.Error("Position(9) should panic")
		}
	}()
	g.Position(9)
}

func TestServersPerfectSquare(t *testing.T) {
	// Figure 2: 3×3 grid. Node 8 (paper's node 9, 1-indexed) sits at (2,2);
	// its rendezvous servers are its row {6,7} and column {2,5}.
	g, _ := New(9)
	want := []int{2, 5, 6, 7}
	got := g.Servers(8)
	if len(got) != len(want) {
		t.Fatalf("Servers(8) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Servers(8) = %v, want %v", got, want)
		}
	}
	// Count: 2(√n − 1) for perfect squares.
	for s := 0; s < 9; s++ {
		if len(g.Servers(s)) != 4 {
			t.Errorf("slot %d has %d servers, want 4", s, len(g.Servers(s)))
		}
	}
}

func TestCommonPerfectSquare(t *testing.T) {
	g, _ := New(9)
	// Nodes 0 (at 0,0) and 8 (at 2,2) intersect at (0,2)=2 and (2,0)=6.
	c := g.Common(0, 8)
	if len(c) != 2 || c[0] != 2 || c[1] != 6 {
		t.Errorf("Common(0,8) = %v, want [2 6]", c)
	}
	// Same-row nodes 0 and 1: common includes each other (they exchange link
	// state directly) plus the third row member 2.
	c = g.Common(0, 1)
	if len(c) < 3 {
		t.Errorf("Common(0,1) = %v, want ≥3 entries", c)
	}
	found0, found1 := false, false
	for _, x := range c {
		if x == 0 {
			found0 = true
		}
		if x == 1 {
			found1 = true
		}
	}
	if !found0 || !found1 {
		t.Errorf("Common(0,1) = %v should contain both endpoints", c)
	}
	if g.Common(4, 4) != nil {
		t.Error("Common(i,i) should be nil")
	}
}

func TestBlankCompensationPaperExample(t *testing.T) {
	// n=18: 5×4 grid, last row has k=2 nodes (16, 17). Paper's figure pairs
	// the bottom-row node in column 0 with the row-0 tail nodes (0,2), (0,3).
	g, _ := New(18)
	servers16 := g.Servers(16) // at (4,0)
	wantExtra := map[int]bool{2: true, 3: true}
	for _, s := range servers16 {
		delete(wantExtra, s)
	}
	if len(wantExtra) != 0 {
		t.Errorf("Servers(16) = %v missing extras from row 0 tail", servers16)
	}
	// Symmetric: node 2 at (0,2) must have 16 as a server.
	if !g.IsServerOf(16, 2) {
		t.Errorf("node 2 should have bottom-row node 16 as a server; got %v", g.Servers(2))
	}
	// Node 17 at (4,1) pairs with row-1 tail (1,2)=6 and (1,3)=7.
	if !g.IsServerOf(6, 17) || !g.IsServerOf(7, 17) {
		t.Errorf("Servers(17) = %v, want extras 6 and 7", g.Servers(17))
	}
}

func TestInvariantsExhaustiveSmall(t *testing.T) {
	for n := 1; n <= 150; n++ {
		g, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if err := g.VerifyInvariants(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestInvariantsLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, n := range []int{197, 256, 300, 359, 416, 500, 1000} {
		g, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if err := g.VerifyInvariants(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// Property: for random n, every pair of slots shares ≥2 rendezvous (n ≥ 4)
// and the load bound holds. VerifyInvariants covers this; quick.Check drives
// it across arbitrary sizes.
func TestInvariantsQuick(t *testing.T) {
	f := func(raw uint16) bool {
		n := 4 + int(raw)%600
		g, err := New(n)
		if err != nil {
			return false
		}
		return g.VerifyInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: message count bound from Theorem 1 — each node sends its link
// state to |R_i| ≤ 2√n rendezvous servers and recommendations to as many
// clients, so per-round sends ≤ 4√n.
func TestTheorem1MessageBound(t *testing.T) {
	for n := 2; n <= 400; n += 7 {
		g, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		bound := 4 * math.Sqrt(float64(n))
		for s := 0; s < n; s++ {
			msgs := len(g.Servers(s)) + len(g.Clients(s))
			if float64(msgs) > bound {
				t.Errorf("n=%d slot=%d: %d messages exceeds 4√n = %.1f", n, s, msgs, bound)
			}
		}
	}
}

func TestFailoverCandidatesAreDstRowCol(t *testing.T) {
	g, _ := New(25)
	for dst := 0; dst < 25; dst++ {
		cands := g.FailoverCandidates(dst)
		r, c := g.Position(dst)
		for _, f := range cands {
			fr, fc := g.Position(f)
			if fr != r && fc != c {
				t.Errorf("dst %d: candidate %d at (%d,%d) not in row %d or col %d",
					dst, f, fr, fc, r, c)
			}
		}
		if len(cands) != 8 { // 2(√25 − 1)
			t.Errorf("dst %d: %d candidates, want 8", dst, len(cands))
		}
	}
}

func TestTinyGrids(t *testing.T) {
	// n=1: no servers, no pairs.
	g1, _ := New(1)
	if len(g1.Servers(0)) != 0 {
		t.Errorf("n=1 Servers(0) = %v", g1.Servers(0))
	}
	// n=2: 2×1 column; each is the other's server.
	g2, _ := New(2)
	if !g2.IsServerOf(0, 1) || !g2.IsServerOf(1, 0) {
		t.Error("n=2 nodes should serve each other")
	}
	c := g2.Common(0, 1)
	if len(c) != 2 {
		t.Errorf("n=2 Common = %v", c)
	}
	// n=3: 2×2 with one blank.
	g3, _ := New(3)
	if err := g3.VerifyInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMaxLoad(t *testing.T) {
	g, _ := New(140)
	bound := 2 * int(math.Ceil(math.Sqrt(140)))
	if g.MaxLoad() > bound {
		t.Errorf("MaxLoad = %d > %d", g.MaxLoad(), bound)
	}
	if g.MaxLoad() < 2 {
		t.Errorf("MaxLoad = %d suspiciously small", g.MaxLoad())
	}
}

func TestNewMaskedFullMaskMatchesDense(t *testing.T) {
	// A nil or all-true mask must yield the dense construction verbatim —
	// slot positions, server sets, everything.
	for _, n := range []int{1, 2, 5, 17, 30, 100} {
		dense, _ := New(n)
		full := make([]bool, n)
		for i := range full {
			full[i] = true
		}
		for _, mask := range [][]bool{nil, full} {
			g, err := NewMasked(n, mask)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for s := 0; s < n; s++ {
				if !equalInts(g.Servers(s), dense.Servers(s)) {
					t.Fatalf("n=%d slot %d: masked %v != dense %v",
						n, s, g.Servers(s), dense.Servers(s))
				}
			}
		}
	}
}

func TestNewMaskedInvariantsUnderTombstones(t *testing.T) {
	// Kill slots in varied patterns (single holes, a whole row's worth,
	// scattered) and check symmetry, tombstone exclusion, and pair coverage.
	for _, n := range []int{5, 12, 20, 30, 50, 101} {
		for _, deadSlots := range [][]int{
			{0},
			{n / 2},
			{n - 1},
			{1, 2, 3},
			{0, n / 3, 2 * n / 3, n - 1},
		} {
			occupied := make([]bool, n)
			for i := range occupied {
				occupied[i] = true
			}
			for _, s := range deadSlots {
				occupied[s] = false
			}
			g, err := NewMasked(n, occupied)
			if err != nil {
				t.Fatalf("n=%d dead=%v: %v", n, deadSlots, err)
			}
			if err := g.VerifyInvariants(); err != nil {
				t.Errorf("n=%d dead=%v: %v", n, deadSlots, err)
			}
		}
	}
}

func TestNewMaskedSingleDeathPerturbsOneLine(t *testing.T) {
	// Tombstoning one slot must change the server sets only of slots that
	// had a rendezvous relation with it (its row, column, and compensation
	// partners) — everyone else's set is byte-identical. This is the O(√n)
	// blast radius that makes stable slots worth having.
	n := 100
	dense, _ := New(n)
	deadSlot := 37
	occupied := make([]bool, n)
	for i := range occupied {
		occupied[i] = true
	}
	occupied[deadSlot] = false
	g, err := NewMasked(n, occupied)
	if err != nil {
		t.Fatal(err)
	}
	affected := map[int]bool{deadSlot: true}
	for _, s := range dense.Servers(deadSlot) {
		affected[s] = true
	}
	changed := 0
	for s := 0; s < n; s++ {
		if equalInts(g.Servers(s), dense.Servers(s)) {
			continue
		}
		changed++
		if !affected[s] {
			t.Errorf("slot %d changed servers without a rendezvous relation to %d:\n dense %v\nmasked %v",
				s, deadSlot, dense.Servers(s), g.Servers(s))
		}
	}
	if changed == 0 {
		t.Fatal("death changed nothing")
	}
	if bound := 4*int(math.Ceil(math.Sqrt(float64(n)))) + 1; changed > bound {
		t.Errorf("death of one slot changed %d server sets, want ≤ %d", changed, bound)
	}
}

// referenceMasked is the reference implementation of the masked construction:
// it builds every occupied slot's server set at once, forward rules only, with
// map-based symmetrized insertion. Servers derives one set at a time and so
// needs the inverse rules as well; any slot they miss shows up as a mismatch
// here.
func referenceMasked(t *testing.T, n int, occupied []bool) [][]int {
	t.Helper()
	g, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
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
	sets := make([]map[int]struct{}, n)
	for i := range sets {
		if occupied[i] {
			sets[i] = make(map[int]struct{})
		}
	}
	add := func(a, b int) {
		if b < 0 || a == b || !occupied[b] {
			return
		}
		sets[a][b] = struct{}{}
		sets[b][a] = struct{}{}
	}
	for x := 0; x < n; x++ {
		if !occupied[x] {
			continue
		}
		r, c := g.Position(x)
		for cc := 0; cc < g.cols; cc++ {
			if s, ok := g.SlotAt(r, cc); ok && s != x {
				if occupied[s] {
					add(x, s)
				} else {
					add(x, colDep[cc])
				}
			}
		}
		for rr := 0; rr < g.rows; rr++ {
			if s, ok := g.SlotAt(rr, c); ok && s != x {
				if occupied[s] {
					add(x, s)
				} else {
					add(x, rowDep[rr])
				}
			}
		}
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
	servers := make([][]int, n)
	for i, set := range sets {
		if set == nil {
			continue
		}
		out := make([]int, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Ints(out)
		servers[i] = out
	}
	return servers
}

// checkAgainstReference holds every slot's on-demand server set to the
// reference construction over the same mask.
func checkAgainstReference(t *testing.T, n int, occupied []bool) {
	t.Helper()
	g, err := NewMasked(n, occupied)
	if err != nil {
		t.Fatalf("n=%d mask=%v: %v", n, occupied, err)
	}
	want := referenceMasked(t, n, occupied)
	for s := 0; s < n; s++ {
		if !equalInts(g.Servers(s), want[s]) {
			t.Fatalf("n=%d mask=%v slot %d: on demand %v != reference %v",
				n, occupied, s, g.Servers(s), want[s])
		}
	}
}

// maskWithout returns an n-slot mask with the given slots tombstoned.
func maskWithout(n int, dead ...int) []bool {
	occupied := make([]bool, n)
	for i := range occupied {
		occupied[i] = true
	}
	for _, s := range dead {
		if s < n {
			occupied[s] = false
		}
	}
	return occupied
}

func TestRemaskMatchesFullRebuild(t *testing.T) {
	// Servers derives one slot's set from shape, mask and deputies; this must
	// be indistinguishable from building every set together. Masks cover
	// single holes, dense clusters, whole leading lines, alternating stripes,
	// and near-total death.
	for _, n := range []int{2, 3, 5, 7, 12, 17, 20, 30, 50, 101, 144} {
		masks := [][]int{
			{0},
			{n - 1},
			{n / 2},
			{0, 1, 2},
			{0, n / 3, 2 * n / 3, n - 1},
		}
		var stripe, most []int
		for s := 0; s < n; s += 2 {
			stripe = append(stripe, s)
		}
		for s := 1; s < n; s++ {
			most = append(most, s)
		}
		masks = append(masks, stripe, most)
		for _, deadSlots := range masks {
			checkAgainstReference(t, n, maskWithout(n, deadSlots...))
		}
	}
	// Seeded random masks over every shape up to 150 slots — every
	// blank-compensated one among them — and the two ledger sizes.
	rng := rand.New(rand.NewSource(1))
	sizes := []int{200, 324}
	for n := 1; n <= 150; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, share := range []float64{0.02, 0.10, 0.30, 0.60, 0.90} {
			occupied := make([]bool, n)
			for s := range occupied {
				occupied[s] = rng.Float64() >= share
			}
			checkAgainstReference(t, n, occupied)
		}
	}
}

func TestDeputyInheritsCompensationPartners(t *testing.T) {
	// n=18 is 5×4 with k=2 slots (16, 17) in the bottom row; columns 2 and 3
	// are the tail. The two cases only the inverse rule reaches:
	//
	// Slot 2 at (0,2) dies. Bottom-row 16 relied on it, as a tail extra, to
	// reach column 2, so column 2's deputy 6 must name 16 although the two
	// share no line and are not partners themselves.
	g, err := NewMasked(18, maskWithout(18, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsServerOf(16, 6) || !g.IsServerOf(6, 16) {
		t.Errorf("tail column's deputy 6 should inherit bottom-row partner 16: Servers(6)=%v Servers(16)=%v",
			g.Servers(6), g.Servers(16))
	}
	// Slot 16 at (4,0) dies. Its tail extras 2 and 3 relied on it to reach the
	// bottom row, so the bottom row's deputy 17 must name both.
	g, err = NewMasked(18, maskWithout(18, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{2, 3} {
		if !g.IsServerOf(extra, 17) || !g.IsServerOf(17, extra) {
			t.Errorf("bottom row's deputy 17 should inherit tail extra %d: Servers(17)=%v Servers(%d)=%v",
				extra, g.Servers(17), extra, g.Servers(extra))
		}
	}
	checkAgainstReference(t, 18, maskWithout(18, 2))
	checkAgainstReference(t, 18, maskWithout(18, 16))
}

func TestRemaskOfMaskedGrid(t *testing.T) {
	// A grid is its shape plus a mask, so remasking a masked grid is the same
	// as building the new mask from scratch: nothing of the old one survives.
	for _, n := range []int{3, 18, 20, 101} {
		masked, err := NewMasked(n, maskWithout(n, 1, n/2))
		if err != nil {
			t.Fatal(err)
		}
		dense, _ := New(n)
		for _, mask := range [][]bool{maskWithout(n, 0, n-1), maskWithout(n), nil} {
			got, err := masked.Remask(mask)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			want := dense
			if mask != nil {
				want, _ = NewMasked(n, mask)
			}
			for s := 0; s < n; s++ {
				if !equalInts(got.Servers(s), want.Servers(s)) {
					t.Fatalf("n=%d mask=%v slot %d: remasked %v != rebuilt %v",
						n, mask, s, got.Servers(s), want.Servers(s))
				}
			}
		}
		if _, err := masked.Remask(make([]bool, n+1)); err == nil {
			t.Errorf("n=%d: Remask accepted a mask of the wrong length", n)
		}
	}
}

func TestGridFootprintLinear(t *testing.T) {
	// A grid is shape, mask and deputies: building one over 10 000 slots is a
	// handful of allocations of O(n) bytes, not n server sets.
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	mask := make([]bool, n)
	for s := range mask {
		mask[s] = rng.Float64() >= 0.10
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := NewMasked(n, mask)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if allocs > 8 || bytes > 16*n {
		t.Errorf("NewMasked(%d): %d allocations, %d bytes; want ≤ 8 and ≤ %d", n, allocs, bytes, 16*n)
	}
	runtime.KeepAlive(g)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LastRowLen returns the number of occupied slots in the final row.
func (g *Grid) LastRowLen() int { return g.lastRow }

// IsComplete reports whether the grid has no blank slots.
func (g *Grid) IsComplete() bool { return g.lastRow == g.cols }

// IsServerOf reports whether server ∈ Servers(client).
func (g *Grid) IsServerOf(server, client int) bool {
	_, found := slices.BinarySearch(g.Servers(client), server)
	return found
}

// MaxLoad returns the maximum rendezvous set size over all slots. The paper
// shows this is at most 2√n even with blank compensation.
func (g *Grid) MaxLoad() int {
	m := 0
	for s := 0; s < g.n; s++ {
		m = max(m, len(g.Servers(s)))
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
	// Every check below reads every set many times over: derive each once.
	sets := make([][]int, g.n)
	dead, load := 0, 0
	for i := range sets {
		sets[i] = g.Servers(i)
		load = max(load, len(sets[i]))
		if !g.live(i) {
			dead++
		}
	}
	// Symmetry: j ∈ Servers(i) ⟺ i ∈ Servers(j); tombstones serve no one.
	for i, set := range sets {
		if !g.live(i) {
			if len(set) != 0 {
				return fmt.Errorf("grid: tombstoned slot %d has %d servers", i, len(set))
			}
			continue
		}
		for _, j := range set {
			if !g.live(j) {
				return fmt.Errorf("grid: slot %d names tombstoned server %d", i, j)
			}
			if _, found := slices.BinarySearch(sets[j], i); !found {
				return fmt.Errorf("grid: asymmetric rendezvous relation %d->%d", i, j)
			}
		}
	}
	// Pair coverage: every occupied pair shares a rendezvous; a dense grid
	// with n ≥ 4 shares two.
	for i := 0; i < g.n; i++ {
		if !g.live(i) {
			continue
		}
		for j := i + 1; j < g.n; j++ {
			if !g.live(j) {
				continue
			}
			c := common(i, j, sets[i], sets[j])
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
	if load > bound {
		return fmt.Errorf("grid: max rendezvous load %d exceeds (2+dead)·⌈√n⌉ = %d", load, bound)
	}
	return nil
}
