package core

import (
	"fmt"
	"math"

	"allpairs/internal/grid"
	"allpairs/internal/lsdb"
	"allpairs/internal/wire"
)

// MultiHopResult is the output of the multi-hop extension (§3, "Multi-hop
// routes"): optimal costs and forwarding state for paths of bounded hop
// count, found by iterating the two-round quorum exchange ⌈log₂ l⌉ times.
type MultiHopResult struct {
	// N is the number of nodes.
	N int
	// MaxHops is the hop bound actually achieved: 2^Iterations, which is the
	// requested bound rounded up to a power of two.
	MaxHops int
	// Iterations is the number of quorum exchange rounds run.
	Iterations int
	// Dist[i][j] is the cost of the optimal path from i to j using at most
	// MaxHops hops (InfCost if none).
	Dist [][]wire.Cost
	// Sec[i][j] is the second node on that path — the forwarding decision i
	// needs (−1 when unreachable; j itself when the direct link is optimal).
	Sec [][]int
	// BytesPerNode is the per-node communication cost in bytes (modified
	// link-state rows sent plus recommendations received), demonstrating the
	// Θ(n√n log n) scaling.
	BytesPerNode []int64
}

// RunMultiHop computes all-pairs optimal paths of at most maxHops hops over
// a static symmetric cost matrix, using the grid-quorum iteration: at
// iteration t each node announces its best known costs for paths of ≤ 2^(t−1)
// hops (with Sec pointers), and rendezvous nodes return the best midpoint
// combination, doubling the reachable path length each round.
//
// costs[i][j] must be the direct link cost (InfCost for a dead link);
// costs[i][i] must be 0. maxHops ≥ 1; maxHops = 1 returns the direct links.
func RunMultiHop(costs [][]wire.Cost, maxHops int) (*MultiHopResult, error) {
	n := len(costs)
	if n == 0 {
		return nil, fmt.Errorf("core: empty cost matrix")
	}
	for i, row := range costs {
		if len(row) != n {
			return nil, fmt.Errorf("core: cost matrix row %d has %d entries, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("core: costs[%d][%d] = %d, want 0", i, i, row[i])
		}
	}
	if maxHops < 1 {
		return nil, fmt.Errorf("core: maxHops = %d, want ≥ 1", maxHops)
	}
	g, err := grid.New(n)
	if err != nil {
		return nil, err
	}

	iters := 0
	for l := 1; l < maxHops; l *= 2 {
		iters++
	}

	res := &MultiHopResult{
		N:            n,
		MaxHops:      1 << iters,
		Iterations:   iters,
		Dist:         make([][]wire.Cost, n),
		Sec:          make([][]int, n),
		BytesPerNode: make([]int64, n),
	}
	// Initialize with the direct links: Sec¹(i,j) = j.
	for i := 0; i < n; i++ {
		res.Dist[i] = make([]wire.Cost, n)
		res.Sec[i] = make([]int, n)
		for j := 0; j < n; j++ {
			res.Dist[i][j] = costs[i][j]
			switch {
			case i == j:
				res.Sec[i][j] = i
			case costs[i][j] != wire.InfCost:
				res.Sec[i][j] = j
			default:
				res.Sec[i][j] = -1
			}
		}
	}

	rowBytes := int64(mhRowBytes(n))
	for t := 0; t < iters; t++ {
		res.iterate(g, rowBytes)
	}
	return res, nil
}

// mhRowBytes is what one modified link-state row over n nodes is accounted
// at on the wire: the header, a view version, iteration and entry count, then
// a 2-byte cost and a 2-byte Sec pointer per destination. The engine runs the
// rounds in memory, so this is bookkeeping, not an encoding.
func mhRowBytes(n int) int { return wire.HeaderLen + 7 + 4*n + wire.PerPacketOverhead }

// iterate runs one round: every node ships its (Dist, Sec) vectors to its
// rendezvous servers; every rendezvous answers every client pair with the
// best midpoint combination. The updates are collected synchronously and
// applied at the end of the round, matching the protocol's round structure.
func (res *MultiHopResult) iterate(g *grid.Grid, rowBytes int64) {
	n := res.N
	newDist := make([][]wire.Cost, n)
	newSec := make([][]int, n)
	for i := 0; i < n; i++ {
		newDist[i] = append([]wire.Cost(nil), res.Dist[i]...)
		newSec[i] = append([]int(nil), res.Sec[i]...)
	}

	// Round-1 communication accounting: each node sends its modified row to
	// each rendezvous server (and receives its clients' rows).
	for i := 0; i < n; i++ {
		k := int64(len(g.Servers(i)))
		res.BytesPerNode[i] += k * rowBytes // outgoing rows
		res.BytesPerNode[i] += k * rowBytes // incoming rows (|clients| = |servers|)
	}

	// Rendezvous computation. Each rendezvous k serves the pairs of its
	// client set (plus itself); every pair (i,j) is covered by construction.
	recEntry := int64(6) // wire.RecEntry size: dst + sec + cost
	for k := 0; k < n; k++ {
		clients := g.Clients(k)
		group := make([]int, 0, len(clients)+1)
		group = append(group, clients...)
		group = append(group, k)
		for a := 0; a < len(group); a++ {
			for b := a + 1; b < len(group); b++ {
				i, j := group[a], group[b]
				// The midpoint search over two modified rows is the same
				// min-plus scan as the one-hop kernel, with no index skipped
				// (m == i yields the paths already known to i).
				bestMid, bestCost := lsdb.BestOneHopRows(-1, res.Dist[i], res.Dist[j])
				if bestMid < 0 {
					continue
				}
				// Recommendation to i: cost and Secᵗ(i,m); symmetric for j.
				if bestCost < newDist[i][j] {
					newDist[i][j] = bestCost
					if bestMid == i {
						newSec[i][j] = res.Sec[i][j]
					} else {
						newSec[i][j] = res.Sec[i][bestMid]
					}
				}
				if bestCost < newDist[j][i] {
					newDist[j][i] = bestCost
					if bestMid == j {
						newSec[j][i] = res.Sec[j][i]
					} else {
						newSec[j][i] = res.Sec[j][bestMid]
					}
				}
				// Round-2 accounting: one entry to each endpoint (skip the
				// rendezvous' own pairs, which need no message).
				if i != k {
					res.BytesPerNode[i] += recEntry
					res.BytesPerNode[k] += recEntry
				}
				if j != k {
					res.BytesPerNode[j] += recEntry
					res.BytesPerNode[k] += recEntry
				}
			}
		}
	}
	res.Dist = newDist
	res.Sec = newSec
}

// Path reconstructs the node sequence of the computed route from i to j by
// following Sec pointers, including both endpoints. It returns nil if j is
// unreachable. The result has at most MaxHops+1 nodes.
func (res *MultiHopResult) Path(i, j int) []int {
	if i == j {
		return []int{i}
	}
	if res.Sec[i][j] < 0 {
		return nil
	}
	path := []int{i}
	cur := i
	for cur != j {
		next := res.Sec[cur][j]
		if next < 0 || len(path) > res.N {
			return nil // broken forwarding state; must not happen
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// TheoreticalMultiHopBytes returns the Θ(n√n log n) closed-form per-node
// communication of the multi-hop algorithm for an n-node overlay and hop
// bound l, used to check measured scaling: per iteration each node exchanges
// ~4√n messages of Θ(n) bytes.
func TheoreticalMultiHopBytes(n, maxHops int) float64 {
	iters := math.Ceil(math.Log2(float64(maxHops)))
	if iters < 1 {
		iters = 0
	}
	perIter := 4 * math.Sqrt(float64(n)) * float64(mhRowBytes(n))
	return iters * perIter
}
