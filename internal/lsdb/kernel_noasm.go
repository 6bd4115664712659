//go:build !amd64

package lsdb

import "allpairs/internal/wire"

// Without an assembly half the …Blocks functions cover nothing, the Go loops
// in kernel.go take whole rows, and prefetch leaves the cache to the hardware.

func entryCostsBlocks(row []wire.Cost, entries []byte) (done int) { return 0 }

func minSumBlocks(a, b []wire.Cost) (done int, m wire.Cost) { return 0, wire.InfCost }

func firstSumEqBlocks(a, b []wire.Cost, m wire.Cost) int { return 0 }

func relaxBlocks(ca wire.Cost, row, best []wire.Cost, hop []uint16, h uint16) (done int) { return 0 }

func prefetch(row []wire.Cost) {}
