package lsdb

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// checkPrimitives holds the three primitives (on amd64 their assembly halves
// plus the Go tails) to their Go twins run over the whole rows, and the pair
// of them that makes scanOneHop to the scalar reference BestOneHopRows. best
// seeds relax's running minima; it must be at least as long as a.
func checkPrimitives(t *testing.T, a, b []wire.Cost, ca wire.Cost, h uint16, best []wire.Cost) {
	t.Helper()
	b = b[:len(a)]
	m := minSum(a, b)
	if want := minSumGo(a, b, wire.InfCost); m != want {
		t.Fatalf("minSum = %d, Go twin %d\na=%v\nb=%v", m, want, a, b)
	}
	// Whatever minimum is asked for — the true one, InfCost (which saturated
	// sums do equal), or one no sum attains.
	for _, ask := range []wire.Cost{m, wire.InfCost, m - 1} {
		if got, want := firstSumEq(a, b, ask), firstSumEqGo(a, b, ask, 0); got != want {
			t.Fatalf("firstSumEq(%d) = %d, Go twin %d\na=%v\nb=%v", ask, got, want, a, b)
		}
	}
	wantHop, wantCost := BestOneHopRows(-1, a, b)
	if got := scanOneHop(a, b); got.Hop != wantHop || got.Cost != wantCost {
		t.Fatalf("scanOneHop = (%d,%d), BestOneHopRows (%d,%d)\na=%v\nb=%v", got.Hop, got.Cost, wantHop, wantCost, a, b)
	}

	best = best[:len(a)]
	hop := make([]uint16, len(a))
	for i := range hop {
		hop[i] = uint16(i)
	}
	wantBest, wantHops := slices.Clone(best), slices.Clone(hop)
	relaxGo(ca, b, wantBest, wantHops, h)
	gotBest, gotHops := slices.Clone(best), hop
	relax(ca, b, gotBest, gotHops, h)
	if !slices.Equal(gotBest, wantBest) || !slices.Equal(gotHops, wantHops) {
		t.Fatalf("relax(ca=%d, h=%d): best %v hop %v\nGo twin:         best %v hop %v\nrow=%v\nfrom=%v", ca, h, gotBest, gotHops, wantBest, wantHops, b, best)
	}
}

// checkUnpack holds the link-state unpack (on amd64 its assembly half plus the
// Go tail) to its Go twin run over the whole row, the twin to a per-entry
// LinkEntry.Cost oracle that decodes the bytes itself, and linkCosts to that
// oracle put back at the members' slots, tombstones (ascending slots) at
// InfCost.
func checkUnpack(t *testing.T, entries []byte, tombs []int) {
	t.Helper()
	m := len(entries) / wire.LinkEntryLen
	got, want := make([]wire.Cost, m), make([]wire.Cost, m)
	entryCosts(got, entries)
	entryCostsGo(want, entries)
	for i := range want {
		b := entries[i*wire.LinkEntryLen:]
		if c := (wire.LinkEntry{Latency: uint16(b[0])<<8 | uint16(b[1]), Status: b[2]}).Cost(); want[i] != c {
			t.Fatalf("entryCostsGo: entry %d (% x) = %#x, LinkEntry.Cost %#x", i, b[:3], want[i], c)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("entryCosts over %d entries = %x\nGo twin                = %x\nentries % x", m, got, want, entries)
	}
	row := slices.Repeat([]wire.Cost{0x1234}, m+len(tombs))
	linkCosts(row, entries, tombs)
	k := 0
	for s, c := range row {
		w := wire.InfCost
		if !slices.Contains(tombs, s) {
			w, k = want[k], k+1
		}
		if c != w {
			t.Fatalf("linkCosts over %d entries, tombstones %v: slot %d = %#x, want %#x", m, tombs, s, c, w)
		}
	}
}

// unpackTombstones returns the tombstones of pattern p for a row of m members:
// none, the first slot, the last, an adjacent pair in the middle, or all of
// those at once.
func unpackTombstones(m, p int) []int {
	switch p % 5 {
	case 1:
		return []int{0}
	case 2:
		return []int{m}
	case 3:
		return []int{m / 2, m/2 + 1}
	case 4:
		return []int{0, 1 + m/2, 2 + m/2, m + 3}
	}
	return nil
}

// edgeLatencies and edgeStatuses are the entry fields on either side of the
// unpack's sign extension and of its dead-lane mask.
var (
	edgeLatencies = []uint16{0x0000, 0x7FFF, 0x8000, 0xFF00, 0xFFFF}
	edgeStatuses  = []byte{0, 100, 0xFE, wire.StatusDead}
)

// kernelEntries draws m link-state entries into a datagram of random bytes at
// byte offset off, with tail more random bytes after them, and returns the
// entries' slice of it: edge latencies all alive, all dead, edge latencies
// and statuses mixed, ordinary ones, or bytes as they come.
func kernelEntries(rng *rand.Rand, m, flavour, off, tail int) []byte {
	datagram := make([]byte, off+m*wire.LinkEntryLen+tail)
	rng.Read(datagram)
	entries := datagram[off : off+m*wire.LinkEntryLen]
	for i := range m {
		var e wire.LinkEntry
		switch flavour {
		case 0:
			e = wire.LinkEntry{Latency: edgeLatencies[i%len(edgeLatencies)], Status: 0}
		case 1:
			e = wire.LinkEntry{Latency: uint16(rng.Intn(1 << 16)), Status: wire.StatusDead}
		case 2:
			e = wire.LinkEntry{Latency: edgeLatencies[rng.Intn(len(edgeLatencies))], Status: edgeStatuses[rng.Intn(len(edgeStatuses))]}
		case 3:
			e = wire.LinkEntry{Latency: uint16(rng.Intn(1000)), Status: byte(rng.Intn(101))}
		default:
			continue
		}
		b := entries[i*wire.LinkEntryLen:]
		binary.BigEndian.PutUint16(b, e.Latency)
		b[2] = e.Status
	}
	return entries
}

// kernelLengths are every row length from 0 to 70 and from 300 to 360: every
// n mod 8, from no whole block to dozens, around the ledger's n = 324.
func kernelLengths() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	for n := 300; n <= 360; n++ {
		ns = append(ns, n)
	}
	return ns
}

// kernelRow draws a row whose sums land on every side of the saturation point:
// dead links, zeros, small costs that tie, and costs just short of InfCost.
func kernelRow(rng *rand.Rand, n, flavour int) []wire.Cost {
	row := make([]wire.Cost, n)
	for i := range row {
		switch flavour {
		case 0: // all dead
			row[i] = wire.InfCost
		case 1: // all zero: every position ties
			row[i] = 0
		case 2: // halves of InfCost: finite sums that reach or pass 0xFFFF by one
			row[i] = wire.Cost(0x7FFE + rng.Intn(4))
		case 3: // few distinct values: ties everywhere
			row[i] = wire.Cost(100 + rng.Intn(3))
		default:
			switch rng.Intn(8) {
			case 0:
				row[i] = wire.InfCost
			case 1:
				row[i] = 0
			case 2:
				row[i] = wire.Cost(0xFF00 + rng.Intn(0xFF))
			default:
				row[i] = wire.Cost(rng.Intn(1000))
			}
		}
	}
	return row
}

// TestKernelPrimitivesMatchGoTwins is the differential test of the assembly:
// every length, every flavour of row, and sub-slices starting 0–3 elements
// into their backing arrays, so the unaligned loads are exercised at odd
// element offsets; and the unpack over as many entries, starting at an odd
// byte of a datagram and ending at its last byte or before, with tombstones
// first, last and adjacent.
func TestKernelPrimitivesMatchGoTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range kernelLengths() {
		for flavour := 0; flavour < 8; flavour++ {
			off := rng.Intn(4)
			a := kernelRow(rng, n+off, flavour)[off:]
			b := kernelRow(rng, n+off+rng.Intn(3), (flavour+rng.Intn(2))%8)[off:]
			best := kernelRow(rng, n+1, 4+rng.Intn(4))[1:]
			checkPrimitives(t, a, b, wire.Cost(rng.Intn(1200)), uint16(rng.Intn(1<<16)), best)
			entries := kernelEntries(rng, n, flavour%5, 1+2*rng.Intn(8), rng.Intn(2)*rng.Intn(8))
			checkUnpack(t, entries, unpackTombstones(n, flavour+rng.Intn(2)))
		}
	}
}

// TestPrefetchReadsOnly pins prefetch's edges: a nil row, the shared
// all-InfCost row, and an empty span at every position of a held row, with
// every row left as it was.
func TestPrefetchReadsOnly(t *testing.T) {
	m := newCostMatrix(37)
	row := m.rowFor(5)
	for i := range row {
		row[i] = wire.Cost(i)
	}
	inf := m.Row(0)
	prefetch(nil)
	prefetch(inf)
	for lo := range len(row) + 1 {
		prefetch(row[lo:lo])
		prefetch(row[lo:])
	}
	for i, c := range row {
		if inf[i] != wire.InfCost || c != wire.Cost(i) {
			t.Fatalf("after prefetch, column %d reads %d in the row and %d in the shared InfCost row", i, c, inf[i])
		}
	}
}

// TestKernelTieBreaks plants one minimum at two positions of an otherwise
// costlier row — inside one block, in different blocks, on each side of the
// block/tail boundary, both in the tail — and expects the smaller index from
// the pair scan, and relax to leave an equal offer's destination with the
// intermediary that came first.
func TestKernelTieBreaks(t *testing.T) {
	for _, n := range []int{9, 16, 23, 37, 64, 324, 327} {
		blocks := n &^ 7
		spots := [][2]int{{0, 1}, {0, n - 1}, {3, blocks - 1}, {blocks - 1, n - 1}}
		if blocks < n-1 {
			spots = append(spots, [2]int{blocks, n - 1}, [2]int{blocks - 1, blocks})
		}
		for _, at := range spots {
			a, b := make([]wire.Cost, n), make([]wire.Cost, n)
			for i := range a {
				a[i], b[i] = 500, 500
			}
			for _, i := range at {
				a[i], b[i] = 100, 200
			}
			if got := scanOneHop(a, b); got.Hop != at[0] || got.Cost != 300 {
				t.Errorf("n=%d minima at %v: scanOneHop = (%d,%d), want (%d,300)", n, at, got.Hop, got.Cost, at[0])
			}
			checkPrimitives(t, a, b, 0, 7, slices.Clone(a))

			// Two intermediaries offering every destination the same cost: the
			// first keeps them all.
			best, hop := make([]wire.Cost, n), make([]uint16, n)
			for i := range best {
				best[i] = wire.InfCost
			}
			relax(100, b, best, hop, 5)
			relax(100, b, best, hop, 6)
			if i := slices.IndexFunc(hop, func(h uint16) bool { return h != 5 }); i >= 0 {
				t.Errorf("n=%d: an equal later offer took destination %d from the first intermediary", n, i)
			}
		}
	}
}

// TestKernelsMatchOracleAtLedgerSizes runs the table kernels the way the two
// routers do, at sizes with dozens of blocks and every tail length, against
// the scalar oracles: the skip slot first, last and inside the tail, and a
// live row shorter than the table.
func TestKernelsMatchOracleAtLedgerSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(324))
	t0 := time.Unix(3_000_000, 0)
	for _, n := range []int{300, 305, 318, 324, 331, 360} {
		tb, raw := buildRandomTable(rng, n, t0)
		var stored []int
		for s := 0; s < n; s++ {
			if tb.Have(s) {
				stored = append(stored, s)
			}
		}
		out := make([]HopCost, n)
		for _, skip := range []int{0, n - 1, min(n&^7+1, n-2), 13} {
			rowLen := n
			if skip == 13 {
				rowLen = n - 1 - rng.Intn(20) // lim < n
			}
			live := randRow(rng, skip, rowLen)
			costs := UnpackCosts(nil, live)
			tb.BestOneHopAllRow(nil, costs, skip, stored, out[:len(stored)])
			for i, b := range stored {
				if hop, cost := bestOneHop(skip, live, b, raw[b].Entries); out[i].Hop != hop || out[i].Cost != cost {
					t.Fatalf("n=%d skip=%d rowLen=%d: AllRow(→%d) = (%d,%d), oracle (%d,%d)", n, skip, rowLen, b, out[i].Hop, out[i].Cost, hop, cost)
				}
			}

			maxAge := time.Duration(30+rng.Intn(90)) * time.Second
			for i := range out {
				out[i] = HopCost{Hop: -7, Cost: 7}
			}
			tb.BestOneHopViaAll(costs, t0, maxAge, out)
			for dst := 0; dst < n; dst++ {
				if hop, cost := raw.bestOneHopVia(live, dst, t0, maxAge); out[dst].Hop != hop || out[dst].Cost != cost {
					t.Fatalf("n=%d rowLen=%d: ViaAll(dst=%d) = (%d,%d), oracle (%d,%d)",
						n, rowLen, dst, out[dst].Hop, out[dst].Cost, hop, cost)
				}
			}
		}
	}
}

// FuzzKernelsMatchScalar is checkPrimitives over rows the fuzzer writes: two
// big-endian uint16 rows cut from one input, at an element offset it also
// picks, with the columns a tombstone mask marks forced to InfCost in both, as
// PutWire leaves a row packed against a view holding tombstones. The same
// input, from the same offset in bytes, is a row of link-state entries for
// checkUnpack, the mask's bits naming its tombstones.
func FuzzKernelsMatchScalar(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0), uint8(0), uint64(0))
	f.Add(slices.Repeat([]byte{0xFF, 0xFF, 0, 0, 0x7F, 0xFF, 0x80, 0x00}, 9), uint16(3), uint16(65535), uint8(1), uint64(0))
	f.Add(slices.Repeat([]byte{0, 100, 0, 200}, 40), uint16(100), uint16(8), uint8(3), uint64(0x8000_0000_0000_0421))
	f.Add(slices.Repeat([]byte{0x80, 0, 0xFE, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0, 0xFF, 0, 0xFE}, 28), uint16(1), uint16(2), uint8(1), uint64(0x3))
	f.Fuzz(func(t *testing.T, data []byte, ca, h uint16, off uint8, tombstones uint64) {
		entries := data[min(int(off%4), len(data)):]
		entries = entries[:len(entries)/wire.LinkEntryLen*wire.LinkEntryLen]
		var tombs []int
		for s := range min(64, len(entries)/wire.LinkEntryLen) {
			if tombstones>>s&1 != 0 {
				tombs = append(tombs, s)
			}
		}
		checkUnpack(t, entries, tombs)

		words := make([]wire.Cost, len(data)/2)
		for i := range words {
			words[i] = wire.Cost(binary.BigEndian.Uint16(data[2*i:]))
		}
		words = words[min(int(off%4), len(words)):]
		n := len(words) / 3
		a, b, best := words[:n], words[n:2*n], slices.Clone(words[2*n:])
		for i := range a {
			if tombstones>>(i%64)&1 != 0 {
				a[i], b[i] = wire.InfCost, wire.InfCost
			}
		}
		checkPrimitives(t, a, b, wire.Cost(ca), h, best)
	})
}
