package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"allpairs/internal/wire"
)

// randomCosts builds a random symmetric cost matrix with some dead links.
func randomCosts(n int, seed int64, deadFrac float64) [][]wire.Cost {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]wire.Cost, n)
	for i := range m {
		m[i] = make([]wire.Cost, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := wire.Cost(1 + rng.Intn(500))
			if rng.Float64() < deadFrac {
				c = wire.InfCost
			}
			m[i][j], m[j][i] = c, c
		}
	}
	return m
}

// BoundedHopDP computes, by direct dynamic programming (min-plus matrix
// squaring), the optimal cost between all pairs using at most maxHops hops,
// where maxHops is rounded up to a power of two. It is the oracle the
// multi-hop engine is verified against: the communication-free result a
// centralized implementation would compute.
func boundedHopDP(costs [][]wire.Cost, maxHops int) [][]wire.Cost {
	n := len(costs)
	d := make([][]wire.Cost, n)
	for i := range d {
		d[i] = append([]wire.Cost(nil), costs[i]...)
	}
	iters := 0
	for l := 1; l < maxHops; l *= 2 {
		iters++
	}
	for t := 0; t < iters; t++ {
		nd := make([][]wire.Cost, n)
		for i := 0; i < n; i++ {
			nd[i] = make([]wire.Cost, n)
			for j := 0; j < n; j++ {
				best := d[i][j]
				for m := 0; m < n; m++ {
					if c := d[i][m].Add(d[m][j]); c < best {
						best = c
					}
				}
				nd[i][j] = best
			}
		}
		d = nd
	}
	return d
}

func TestRunMultiHopValidation(t *testing.T) {
	if _, err := RunMultiHop(nil, 2); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := RunMultiHop([][]wire.Cost{{0, 1}}, 2); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := RunMultiHop([][]wire.Cost{{5}}, 2); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	if _, err := RunMultiHop([][]wire.Cost{{0}}, 0); err == nil {
		t.Error("maxHops=0 accepted")
	}
}

func TestMultiHopOneHopEqualsDirect(t *testing.T) {
	m := randomCosts(10, 1, 0.2)
	res, err := RunMultiHop(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || res.MaxHops != 1 {
		t.Errorf("iters=%d maxHops=%d", res.Iterations, res.MaxHops)
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if res.Dist[i][j] != m[i][j] {
				t.Fatalf("dist[%d][%d] = %d, want direct %d", i, j, res.Dist[i][j], m[i][j])
			}
		}
	}
}

func TestMultiHopMatchesDP(t *testing.T) {
	for _, tc := range []struct {
		n, hops int
		seed    int64
		dead    float64
	}{
		{9, 2, 1, 0.1},
		{12, 2, 2, 0.3},
		{16, 4, 3, 0.2},
		{25, 4, 4, 0.5},
		{20, 8, 5, 0.3},
		{13, 16, 6, 0.6},
	} {
		m := randomCosts(tc.n, tc.seed, tc.dead)
		res, err := RunMultiHop(m, tc.hops)
		if err != nil {
			t.Fatal(err)
		}
		want := boundedHopDP(m, tc.hops)
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.n; j++ {
				if res.Dist[i][j] != want[i][j] {
					t.Fatalf("n=%d hops=%d: dist[%d][%d] = %d, DP says %d",
						tc.n, tc.hops, i, j, res.Dist[i][j], want[i][j])
				}
			}
		}
	}
}

func TestMultiHopRoutesAroundPartition(t *testing.T) {
	// The paper's motivating case: a "full Internet partition" between two
	// commercial nodes, circumventable only through a 2-hop path via an
	// Internet2-connected pair. Nodes 0,1 are commercial; 2,3 are Internet2.
	// Direct 0–1 is dead; 0–2 and 1–3 are alive; 2–3 alive.
	inf := wire.InfCost
	m := [][]wire.Cost{
		{0, inf, 10, inf},
		{inf, 0, inf, 10},
		{10, inf, 0, 20},
		{inf, 10, 20, 0},
	}
	one, err := RunMultiHop(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Best ≤2-hop path 0→1 does not exist (needs 3 hops: 0-2-3-1).
	if one.Dist[0][1] != inf {
		t.Errorf("2-hop dist = %d, want unreachable", one.Dist[0][1])
	}
	three, err := RunMultiHop(m, 3) // rounds up to 4
	if err != nil {
		t.Fatal(err)
	}
	if three.MaxHops != 4 {
		t.Errorf("maxHops = %d, want 4", three.MaxHops)
	}
	if three.Dist[0][1] != 40 {
		t.Errorf("dist 0->1 = %d, want 40", three.Dist[0][1])
	}
	path := three.Path(0, 1)
	want := []int{0, 2, 3, 1}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if p := three.Path(0, 0); len(p) != 1 || p[0] != 0 {
		t.Errorf("self path = %v", p)
	}
	if one.Path(0, 1) != nil {
		t.Error("path across partition at 2 hops should be nil")
	}
}

// Property: multi-hop distances match the DP oracle, and reconstructed paths
// are real paths whose edge costs sum to at most the reported distance.
func TestMultiHopQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(14)
		hops := []int{2, 4, 8}[rng.Intn(3)]
		m := randomCosts(n, seed, 0.3*rng.Float64())
		res, err := RunMultiHop(m, hops)
		if err != nil {
			return false
		}
		want := boundedHopDP(m, hops)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if res.Dist[i][j] != want[i][j] {
					return false
				}
			}
		}
		// Validate path reconstruction on a sample of pairs.
		for k := 0; k < 10; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			path := res.Path(i, j)
			if res.Dist[i][j] == wire.InfCost {
				if path != nil {
					return false
				}
				continue
			}
			if path == nil || path[0] != i || path[len(path)-1] != j {
				return false
			}
			var total wire.Cost
			for s := 0; s+1 < len(path); s++ {
				edge := m[path[s]][path[s+1]]
				if edge == wire.InfCost {
					return false // walked a dead link
				}
				total = total.Add(edge)
			}
			// Following per-node forwarding pointers may take a cheaper,
			// longer-hop route, but never a more expensive one.
			if total > res.Dist[i][j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMultiHopCommunicationScaling(t *testing.T) {
	// Θ(n√n log n): per-node bytes divided by n^1.5·log2(l) should be
	// roughly flat as n grows, and dramatically below the n²·log n a
	// broadcast scheme would need.
	prevRatio := 0.0
	for _, n := range []int{25, 64, 100, 196} {
		m := randomCosts(n, int64(n), 0.1)
		res, err := RunMultiHop(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		var maxBytes int64
		for _, b := range res.BytesPerNode {
			if b > maxBytes {
				maxBytes = b
			}
		}
		theory := TheoreticalMultiHopBytes(n, 4)
		ratio := float64(maxBytes) / theory
		if ratio > 3 || ratio < 0.1 {
			t.Errorf("n=%d: max per-node bytes %d vs theory %.0f (ratio %.2f)", n, maxBytes, theory, ratio)
		}
		if prevRatio != 0 && (ratio > prevRatio*2.0 || ratio < prevRatio/2.0) {
			t.Errorf("scaling ratio drifting: n=%d ratio %.2f vs previous %.2f", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestTheoreticalMultiHopBytes(t *testing.T) {
	if TheoreticalMultiHopBytes(100, 1) != 0 {
		t.Error("l=1 needs no iterations")
	}
	two := TheoreticalMultiHopBytes(100, 2)
	four := TheoreticalMultiHopBytes(100, 4)
	if four != 2*two {
		t.Errorf("l=4 should cost twice l=2: %v vs %v", four, two)
	}
}

func TestBoundedHopDPIdentity(t *testing.T) {
	m := randomCosts(6, 9, 0)
	d := boundedHopDP(m, 1)
	for i := range m {
		for j := range m {
			if d[i][j] != m[i][j] {
				t.Fatalf("1-hop DP changed the matrix")
			}
		}
	}
}
