// Package bwmodel implements the closed-form traffic model of §6.1 and the
// capacity arithmetic behind the paper's introduction: the published
// coefficients
//
//	probing:            49.1·n                          bps
//	full-mesh routing:  1.6·n² + 24.5·n                 bps
//	quorum routing:     6.4·n√n + 17.1·n + 196.3·√n     bps
//
// (all incoming plus outgoing, per node), a first-principles model
// parameterized by the actual wire sizes of this implementation, and a
// capacity solver reproducing the paper's "165 → 300 nodes at 56 Kbps" and
// "416 sites: 307 vs 86 Kbps" claims. The published coefficients correspond
// to 46 bytes of per-packet overhead, 3-byte link-state entries, and 4-byte
// recommendation entries, with p = 30 s, full-mesh r = 30 s, quorum r = 15 s.
package bwmodel

import (
	"math"
	"time"

	"allpairs/internal/wire"
)

const bitsPerByte = 8

// PaperProbing returns the published probing traffic model: 49.1·n bps in
// and out per node (each node exchanges probe/reply pairs with every other
// node every 30 s).
func PaperProbing(n int) float64 {
	return 49.1 * float64(n)
}

// PaperFullMeshRouting returns the published RON routing traffic model:
// 1.6·n² + 24.5·n bps per node.
func PaperFullMeshRouting(n int) float64 {
	fn := float64(n)
	return 1.6*fn*fn + 24.5*fn
}

// PaperQuorumRouting returns the published quorum routing traffic model:
// 6.4·n√n + 17.1·n + 196.3·√n bps per node.
func PaperQuorumRouting(n int) float64 {
	fn := float64(n)
	rn := math.Sqrt(fn)
	return 6.4*fn*rn + 17.1*fn + 196.3*rn
}

// PaperTotal returns probing plus routing under the published model.
func PaperTotal(n int, quorum bool) float64 {
	if quorum {
		return PaperProbing(n) + PaperQuorumRouting(n)
	}
	return PaperProbing(n) + PaperFullMeshRouting(n)
}

// Params parameterizes the first-principles model with this implementation's
// actual message sizes, for comparison against emulation measurements.
type Params struct {
	// MeshInterval is the full-mesh routing interval (default 30 s).
	MeshInterval time.Duration
	// QuorumInterval is the quorum routing interval (default 15 s).
	QuorumInterval time.Duration
	// Overhead is the per-packet overhead in bytes (default
	// wire.PerPacketOverhead).
	Overhead int
	// Changed, when positive, is the share of their entries the quorum's
	// rows carry — all of a full row's, the changed ones of a delta's: a row
	// travels as a link-state delta of that share of its entries and a bitmap
	// over all of them, or in full when that is no smaller. Zero models every
	// row in full, the paper's law. The full mesh sends every row in full.
	Changed float64
}

func (p *Params) fill() {
	if p.MeshInterval <= 0 {
		p.MeshInterval = 30 * time.Second
	}
	if p.QuorumInterval <= 0 {
		p.QuorumInterval = 15 * time.Second
	}
	if p.Overhead <= 0 {
		p.Overhead = wire.PerPacketOverhead
	}
}

// FullMeshRouting predicts the baseline's routing traffic (in + out, bps per
// node): each interval the node sends its row to n−1 nodes and receives n−1
// rows.
func (p Params) FullMeshRouting(n int) float64 {
	p.fill()
	row := float64(wire.LinkStateSize(n) + p.Overhead)
	return 2 * float64(n-1) * row * bitsPerByte / p.MeshInterval.Seconds()
}

// QuorumRouting predicts the quorum algorithm's routing traffic (in + out,
// bps per node) for the grid's true rendezvous set size k ≈ 2(√n−1): per
// interval the node exchanges k rows (round 1, both directions) and k
// recommendation messages of k entries each (round 2, both directions). A
// rendezvous sends each grid client the run form, whose run — its other
// clients and itself — is k long and whose every entry is named by it.
func (p Params) QuorumRouting(n int) float64 {
	p.fill()
	k := QuorumDegree(n)
	rec := float64(wire.RecommendationRunSize(k, k, 0) + p.Overhead)
	row := float64(wire.LinkStateSize(n))
	if p.Changed > 0 {
		row = min(row, float64(wire.LinkStateDeltaSize(n, 0, wire.LinkEntryLen))+p.Changed*float64(n*wire.LinkEntryLen))
	}
	row += float64(p.Overhead)
	perInterval := 2*float64(k)*row + 2*float64(k)*rec
	return perInterval * bitsPerByte / p.QuorumInterval.Seconds()
}

// QuorumDegree returns the idealized rendezvous set size 2(⌈√n⌉−1) used by
// the closed-form model. The exact per-node value varies by ±O(1) with grid
// position; see internal/grid for the true sets.
func QuorumDegree(n int) int {
	if n <= 1 {
		return 0
	}
	return 2 * (int(math.Ceil(math.Sqrt(float64(n)))) - 1)
}

// Capacity returns the largest overlay size whose total per-node traffic
// (probing + routing, in + out) fits within budgetBps under the given model
// function. It reproduces the paper's 56 Kbps sizing: ~165 nodes for
// full-mesh, ~300 for quorum.
func Capacity(budgetBps float64, total func(n int) float64) int {
	lo, hi := 1, 1
	for total(hi) <= budgetBps {
		hi *= 2
		if hi > 1<<20 {
			return hi // budget is effectively unbounded
		}
	}
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if total(mid) <= budgetBps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// PaperCapacityFullMesh returns the paper-model capacity of the full-mesh
// algorithm at budgetBps.
func PaperCapacityFullMesh(budgetBps float64) int {
	return Capacity(budgetBps, func(n int) float64 { return PaperTotal(n, false) })
}

// PaperCapacityQuorum returns the paper-model capacity of the quorum
// algorithm at budgetBps.
func PaperCapacityQuorum(budgetBps float64) int {
	return Capacity(budgetBps, func(n int) float64 { return PaperTotal(n, true) })
}
