// Package lowerbound implements the counting machinery of the paper's
// Appendix A, which shows that any algorithm finding optimal one-hop routes
// by direct comparison of alternatives needs Ω(n√n) per-node communication.
//
// A "diamond" a−b−c−d is an undirected 4-cycle: the two alternative one-hop
// paths a−b−c and a−d−c between a and c. Lemma 2: the complete graph has
// 3·C(n,4) diamonds. Lemma 3: any e edges form at most e² diamonds.
// Theorem 4 combines them: if every node receives e edge weights, all nodes
// together compare at most n·e² diamonds, so covering all Θ(n⁴) diamonds
// needs e = Ω(n√n) — which the grid-quorum scheme matches within a small
// constant.
package lowerbound

import (
	"math"
)

// Choose4 returns C(n,4).
func Choose4(n int) int64 {
	if n < 4 {
		return 0
	}
	nn := int64(n)
	return nn * (nn - 1) * (nn - 2) * (nn - 3) / 24
}

// DiamondsInComplete returns the diamond count of the complete graph on n
// vertices: 3·C(n,4) (Lemma 2 — each 4-subset yields the square, hourglass,
// and bow-tie cycles).
func DiamondsInComplete(n int) int64 {
	return 3 * Choose4(n)
}

// MinEdgesPerNode returns the Appendix A lower bound on the number of edge
// weights each node must receive: with n nodes each receiving e edges, at
// most n·e² diamonds are compared, so covering all 3·C(n,4) of them requires
// e ≥ √(3·C(n,4)/n) = Ω(n√n).
func MinEdgesPerNode(n int) float64 {
	if n < 4 {
		return 0
	}
	return math.Sqrt(float64(DiamondsInComplete(n)) / float64(n))
}

// QuorumEdgesPerNode returns the number of edge weights a node receives
// under the grid-quorum scheme: roughly 2√n link-state rows of n entries
// each, i.e. ≈ 2·n√n. Dividing by MinEdgesPerNode shows the scheme is within
// a small constant (≈ 2·√8 ≈ 5.7) of optimal.
func QuorumEdgesPerNode(n int) float64 {
	if n <= 1 {
		return 0
	}
	k := 2 * (math.Ceil(math.Sqrt(float64(n))) - 1)
	return k * float64(n)
}

// OptimalityRatio returns QuorumEdgesPerNode / MinEdgesPerNode — the
// constant-factor gap between the paper's construction and the Appendix A
// lower bound. It converges to 2√8 ≈ 5.66 as n grows.
func OptimalityRatio(n int) float64 {
	lb := MinEdgesPerNode(n)
	if lb == 0 {
		return 0
	}
	return QuorumEdgesPerNode(n) / lb
}
