// Package allpairs is a scalable all-pairs overlay routing library: an
// implementation of the grid-quorum link-state routing algorithm from
// "Scaling All-Pairs Overlay Routing" (Sontag, Zhang, Phanishayee, Andersen,
// Karger — CoNEXT 2009).
//
// In a full-mesh overlay of n nodes, classic RON-style link-state routing
// costs each node Θ(n²) communication: everyone broadcasts their link-state
// table to everyone. This library's quorum router arranges the nodes in a
// √n×√n grid and has each node exchange state only with its grid row and
// column. Every pair of nodes shares at least two such "rendezvous" servers,
// each of which sees both endpoints' full link state and returns the
// provably optimal one-hop route — at a per-node cost of Θ(n√n), with rapid
// rendezvous failover under failures and an extension to optimal paths of
// any bounded hop count at Θ(n√n·log n).
//
// Two modes are offered:
//
//   - Simulation: run hundreds of protocol-faithful nodes in-process on a
//     deterministic virtual-time network (NewSimulation). All experiments in
//     EXPERIMENTS.md run this way.
//   - Deployment: run a real node over UDP (StartNode, from NodeOptions)
//     against a membership coordinator, solo or one replica of a set
//     (StartCoordinator, from CoordinatorOptions), as cmd/overlayd and
//     cmd/coordinator do.
//
// The paper's evaluation — every figure and table — can be regenerated with
// cmd/experiments; see README.md for the experiment index.
package allpairs

import (
	"allpairs/internal/core"
	"allpairs/internal/overlay"
	"allpairs/internal/wire"
)

// NodeID identifies an overlay node (2 bytes on the wire).
type NodeID = wire.NodeID

// Cost is a path cost in milliseconds of round-trip latency.
type Cost = wire.Cost

// InfCost marks an unreachable destination.
const InfCost = wire.InfCost

// Algorithm selects the routing algorithm.
type Algorithm = overlay.Algorithm

// Routing algorithms.
const (
	// Quorum is the paper's Θ(n√n) grid-quorum algorithm.
	Quorum = overlay.AlgQuorum
	// FullMesh is the Θ(n²) RON-style baseline.
	FullMesh = overlay.AlgFullMesh
)

// Route is a one-hop routing decision: to reach Dst, forward via Hop
// (Hop == Dst means the direct path is optimal) at an estimated total
// latency of Cost milliseconds.
type Route = overlay.Route

// RouteSource tells how a route was learned (rendezvous recommendation,
// self-computation, or the §4.2 neighbor-table fallback).
type RouteSource = core.RouteSource

// MultiHopResult holds optimal bounded-hop-count paths for all pairs; see
// MultiHop.
type MultiHopResult = core.MultiHopResult

// MultiHop computes, for every pair of nodes, the optimal path of at most
// maxHops hops (rounded up to a power of two) over a static symmetric cost
// matrix, using ⌈log₂ maxHops⌉ iterations of the quorum exchange — the
// paper's §3 extension, e.g. for routing around full Internet partitions via
// two-hop paths. costs[i][j] is the direct link cost (InfCost for a dead
// link); costs[i][i] must be 0.
func MultiHop(costs [][]Cost, maxHops int) (*MultiHopResult, error) {
	return core.RunMultiHop(costs, maxHops)
}
