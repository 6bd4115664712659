package lsdb

import "allpairs/internal/wire"

// Implemented in kernel_amd64.s. Each …Blocks function works on the first
// len&^7 entries of its first slice argument (best, for relaxBlocks); the
// other slices must be at least that long.

// entryCostsBlocks applies entryCosts to the entries it covers and returns
// their number. It reads 3·done+1 bytes of entries, which must hold them.
//
//go:noescape
func entryCostsBlocks(row []wire.Cost, entries []byte) (done int)

// minSumBlocks returns how many entries it covered and the smallest saturated
// sum among them (InfCost when it covered none).
//
//go:noescape
func minSumBlocks(a, b []wire.Cost) (done int, m wire.Cost)

// firstSumEqBlocks returns the first h it covered whose saturated sum is m, or
// failing that how many entries it covered.
//
//go:noescape
func firstSumEqBlocks(a, b []wire.Cost, m wire.Cost) int

// relaxBlocks applies relax to the entries it covers and returns their number.
//
//go:noescape
func relaxBlocks(ca wire.Cost, row, best []wire.Cost, hop []uint16, h uint16) (done int)

// prefetch asks the cache for every line of row, without waiting for any.
//
//go:noescape
func prefetch(row []wire.Cost)
