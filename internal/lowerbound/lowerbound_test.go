package lowerbound

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"allpairs/internal/grid"
)

// completeEdges returns all edges of K_n.
func completeEdges(n int) []Edge {
	var es []Edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			es = append(es, Edge{a, b})
		}
	}
	return es
}

func TestChoose4(t *testing.T) {
	cases := map[int]int64{0: 0, 3: 0, 4: 1, 5: 5, 6: 15, 10: 210}
	for n, want := range cases {
		if got := Choose4(n); got != want {
			t.Errorf("C(%d,4) = %d, want %d", n, got, want)
		}
	}
}

// Lemma 2: the complete graph on n vertices has exactly 3·C(n,4) diamonds.
// Verified exhaustively via the codegree counter for small n.
func TestLemma2Exhaustive(t *testing.T) {
	for n := 4; n <= 12; n++ {
		got := CountDiamonds(n, completeEdges(n))
		want := DiamondsInComplete(n)
		if got != want {
			t.Errorf("n=%d: counted %d diamonds, Lemma 2 says %d", n, got, want)
		}
	}
}

func TestCountDiamondsBasics(t *testing.T) {
	// A single 4-cycle is one diamond.
	square := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	if got := CountDiamonds(4, square); got != 1 {
		t.Errorf("square = %d diamonds", got)
	}
	// A triangle has none.
	tri := []Edge{{0, 1}, {1, 2}, {2, 0}}
	if got := CountDiamonds(3, tri); got != 0 {
		t.Errorf("triangle = %d diamonds", got)
	}
	// A path has none.
	path := []Edge{{0, 1}, {1, 2}, {2, 3}}
	if got := CountDiamonds(4, path); got != 0 {
		t.Errorf("path = %d diamonds", got)
	}
	// K4 has 3.
	if got := CountDiamonds(4, completeEdges(4)); got != 3 {
		t.Errorf("K4 = %d diamonds", got)
	}
	// Garbage edges are ignored.
	if got := CountDiamonds(4, []Edge{{0, 0}, {-1, 2}, {1, 9}}); got != 0 {
		t.Errorf("garbage edges = %d diamonds", got)
	}
}

// Lemma 3: every set of e edges forms at most e² diamonds. Property-checked
// over random graphs.
func TestLemma3Quick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		all := completeEdges(n)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		e := rng.Intn(len(all) + 1)
		sub := all[:e]
		return CountDiamonds(n, sub) <= Lemma3Bound(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Theorem 4 arithmetic: the bound grows as n^1.5.
func TestMinEdgesPerNodeScaling(t *testing.T) {
	if MinEdgesPerNode(3) != 0 {
		t.Error("n<4 should be 0")
	}
	for _, n := range []int{16, 64, 256, 1024} {
		lb := MinEdgesPerNode(n)
		ref := math.Pow(float64(n), 1.5)
		ratio := lb / ref
		// 3·C(n,4)/n ≈ n³/8, so lb ≈ n^1.5/√8 ≈ 0.354·n^1.5.
		if ratio < 0.25 || ratio > 0.40 {
			t.Errorf("n=%d: lb/n^1.5 = %.3f", n, ratio)
		}
	}
}

// The grid-quorum scheme is within a small constant of the Appendix A lower
// bound, converging to 2√8 ≈ 5.66.
func TestOptimalityRatio(t *testing.T) {
	if OptimalityRatio(2) != 0 {
		t.Error("tiny n should yield 0")
	}
	prev := math.Inf(1)
	for _, n := range []int{100, 400, 1600, 6400} {
		r := OptimalityRatio(n)
		if r < 4 || r > 8 {
			t.Errorf("n=%d: ratio %.2f outside [4,8]", n, r)
		}
		// Converges from above toward 2√8.
		if r > prev+0.5 {
			t.Errorf("ratio increasing sharply at n=%d: %.2f after %.2f", n, r, prev)
		}
		prev = r
	}
	limit := 2 * math.Sqrt(8)
	if math.Abs(OptimalityRatio(10000)-limit) > 0.6 {
		t.Errorf("ratio at n=10000 = %.2f, want ≈ %.2f", OptimalityRatio(10000), limit)
	}
}

// Theorem 1's coverage premise: under the grid quorum, every pair's rows
// meet at some node. Checked for a range of sizes including non-squares.
func TestQuorumCoverage(t *testing.T) {
	for _, n := range []int{4, 9, 18, 25, 40, 140} {
		g, err := grid.New(n)
		if err != nil {
			t.Fatal(err)
		}
		rowsAt := make([][]int, n)
		for k := 0; k < n; k++ {
			rowsAt[k] = append([]int{k}, g.Clients(k)...)
		}
		if un := CoverageCheck(n, rowsAt); un != 0 {
			t.Errorf("n=%d: %d uncovered pairs", n, un)
		}
	}
}

// A broken scheme (each node holds only its own row) covers nothing.
func TestCoverageCheckDetectsGaps(t *testing.T) {
	n := 9
	rowsAt := make([][]int, n)
	for k := 0; k < n; k++ {
		rowsAt[k] = []int{k}
	}
	want := n * (n - 1) / 2
	if un := CoverageCheck(n, rowsAt); un != want {
		t.Errorf("uncovered = %d, want %d", un, want)
	}
	// Out-of-range row entries are ignored safely.
	rowsAt[0] = []int{0, 99, -3}
	if un := CoverageCheck(n, rowsAt); un != want {
		t.Errorf("uncovered with garbage = %d, want %d", un, want)
	}
}

// Communication accounting: the quorum scheme's received-edge count is 2n√n
// up to rounding.
func TestQuorumEdgesPerNode(t *testing.T) {
	for _, n := range []int{16, 100, 400} {
		got := QuorumEdgesPerNode(n)
		want := 2 * (math.Sqrt(float64(n)) - 1) * float64(n)
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("n=%d: edges %.0f, want ≈ %.0f", n, got, want)
		}
	}
	if QuorumEdgesPerNode(1) != 0 {
		t.Error("n=1 should be 0")
	}
}

// BenchmarkDiamondCounting times the Appendix A diamond counter on K_40 and
// reports the Lemma 2 identity.
func BenchmarkDiamondCounting(b *testing.B) {
	var edges []Edge
	for x := 0; x < 40; x++ {
		for y := x + 1; y < 40; y++ {
			edges = append(edges, Edge{A: x, B: y})
		}
	}
	var got int64
	for i := 0; i < b.N; i++ {
		got = CountDiamonds(40, edges)
	}
	if got != DiamondsInComplete(40) {
		b.Fatalf("Lemma 2 violated: %d", got)
	}
	b.ReportMetric(float64(got), "diamonds_K40")
}

// Edge is an undirected edge between two vertices.
type Edge struct {
	A, B int
}

// CountDiamonds counts the diamonds (4-cycles) formed by an edge set over
// vertices 0..n-1. Duplicate and self-loop edges are ignored. The count uses
// the codegree identity: each 4-cycle is counted once per opposite-vertex
// pair, i.e. exactly twice, so the total is Σ_{u<v} C(codeg(u,v), 2) / 2.
func CountDiamonds(n int, edges []Edge) int64 {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range edges {
		if e.A == e.B || e.A < 0 || e.B < 0 || e.A >= n || e.B >= n {
			continue
		}
		adj[e.A][e.B] = true
		adj[e.B][e.A] = true
	}
	var total int64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			var codeg int64
			for w := 0; w < n; w++ {
				if w != u && w != v && adj[u][w] && adj[v][w] {
					codeg++
				}
			}
			total += codeg * (codeg - 1) / 2
		}
	}
	return total / 2
}

// Lemma3Bound returns the Appendix A upper bound on diamonds formed by e
// edges: e².
func Lemma3Bound(e int) int64 {
	return int64(e) * int64(e)
}

// CoverageCheck verifies Theorem 1's premise combinatorially for a grid
// quorum: given each node's received rows (as sets of row-origin vertices),
// every diamond a−h−b (pair (a,b) compared through any h) must be evaluable
// at some node that holds both a's and b's rows. rowsAt[k] lists the
// vertices whose full link-state row node k holds (including k itself).
// It returns the number of (a,b) pairs not covered by any node.
func CoverageCheck(n int, rowsAt [][]int) int {
	holds := make([][]bool, n)
	for k := range holds {
		holds[k] = make([]bool, n)
		for _, v := range rowsAt[k] {
			if v >= 0 && v < n {
				holds[k][v] = true
			}
		}
	}
	uncovered := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ok := false
			for k := 0; k < n && !ok; k++ {
				ok = holds[k][a] && holds[k][b]
			}
			if !ok {
				uncovered++
			}
		}
	}
	return uncovered
}
