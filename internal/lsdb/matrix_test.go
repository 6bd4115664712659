package lsdb

import (
	"math/rand"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// randEntry produces link entries spanning the interesting cost space: dead
// links (InfCost), zero-latency, mid-range, and near-saturation latencies so
// sums exercise the InfCost clamp in Cost.Add.
func randEntry(rng *rand.Rand) wire.LinkEntry {
	switch rng.Intn(10) {
	case 0:
		return wire.LinkEntry{Latency: uint16(rng.Intn(400)), Status: wire.StatusDead}
	case 1:
		return wire.LinkEntry{Latency: 0, Status: 0}
	case 2, 3:
		// near-saturation so finite sums overflow past InfCost
		return wire.LinkEntry{Latency: uint16(0xFF00 + rng.Intn(0xFF)), Status: 0}
	default:
		return wire.LinkEntry{Latency: uint16(rng.Intn(1000)), Status: byte(rng.Intn(50))}
	}
}

func randRow(rng *rand.Rand, self, n int) []wire.LinkEntry {
	row := make([]wire.LinkEntry, n)
	for i := range row {
		row[i] = randEntry(rng)
	}
	if self >= 0 {
		row = SelfRow(self, row)
	}
	return row
}

// buildRandomTable fills a table with rows for a random subset of slots at
// staggered receive times, so freshness filtering has both fresh and stale
// rows to distinguish. The announced rows are returned beside it for the
// scalar oracles.
func buildRandomTable(rng *rand.Rand, n int, t0 time.Time) (*Table, rawRows) {
	tb, raw := NewTable(n), make(rawRows, n)
	for s := 0; s < n; s++ {
		if rng.Intn(5) == 0 {
			continue // missing row
		}
		when := t0.Add(-time.Duration(rng.Intn(120)) * time.Second)
		raw.put(tb, s, Row{Seq: uint32(rng.Intn(100)), When: when, Entries: randRow(rng, s, n)})
	}
	return tb, raw
}

// TestBatchKernelsMatchScalar is the property test for the tentpole: across
// randomized tables, the batched matrix kernels must return exactly the
// (hop, cost) pairs the scalar bestOneHop computes from the raw rows,
// including InfCost saturation and first-index tie-breaking.
func TestBatchKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	t0 := time.Unix(1_000_000, 0)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		tb, raw := buildRandomTable(rng, n, t0)

		var stored []int
		for s := 0; s < n; s++ {
			if tb.Have(s) {
				stored = append(stored, s)
			}
		}
		if len(stored) == 0 {
			continue
		}

		// BestOneHopAllRow vs scalar, every stored source against all stored dsts.
		out := make([]HopCost, len(stored))
		for _, a := range stored {
			tb.BestOneHopAllRow(nil, tb.OutRow(a), a, stored, out)
			for i, b := range stored {
				wantHop, wantCost := bestOneHop(a, raw[a].Entries, b, raw[b].Entries)
				if out[i].Hop != wantHop || out[i].Cost != wantCost {
					t.Fatalf("trial %d n=%d: BestOneHopAllRow(%d→%d) = (%d,%d), scalar (%d,%d)",
						trial, n, a, b, out[i].Hop, out[i].Cost, wantHop, wantCost)
				}
			}
		}

		// BestOneHopPairs vs scalar on random pairs.
		pairs := make([][2]int, 20)
		for i := range pairs {
			pairs[i] = [2]int{stored[rng.Intn(len(stored))], stored[rng.Intn(len(stored))]}
		}
		pout := make([]HopCost, len(pairs))
		tb.Matrix().BestOneHopPairs(pairs, pout)
		for i, p := range pairs {
			wantHop, wantCost := bestOneHop(p[0], raw[p[0]].Entries, p[1], raw[p[1]].Entries)
			if pout[i].Hop != wantHop || pout[i].Cost != wantCost {
				t.Fatalf("trial %d: BestOneHopPairs(%v) = (%d,%d), scalar (%d,%d)",
					trial, p, pout[i].Hop, pout[i].Cost, wantHop, wantCost)
			}
		}

		// BestOneHopAllRow with an external live row (sometimes shorter than
		// the view, the short-row edge case) vs scalar.
		self := rng.Intn(n)
		rowLen := n
		if rng.Intn(3) == 0 {
			rowLen = rng.Intn(n + 1)
		}
		liveRow := randRow(rng, self, rowLen)
		liveCosts := UnpackCosts(nil, liveRow)
		tb.BestOneHopAllRow(nil, liveCosts, self, stored, out)
		for i, b := range stored {
			wantHop, wantCost := bestOneHop(self, liveRow, b, raw[b].Entries)
			if out[i].Hop != wantHop || out[i].Cost != wantCost {
				t.Fatalf("trial %d n=%d rowLen=%d: BestOneHopAllRow(→%d) = (%d,%d), scalar (%d,%d)",
					trial, n, rowLen, b, out[i].Hop, out[i].Cost, wantHop, wantCost)
			}
		}
	}
}

// TestViaAllMatchesScalarVia checks the batched §4.2 fallback against the
// scalar per-destination loop under randomized freshness windows and
// short live rows.
func TestViaAllMatchesScalarVia(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	t0 := time.Unix(2_000_000, 0)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		tb, raw := buildRandomTable(rng, n, t0)
		maxAge := time.Duration(rng.Intn(150)) * time.Second
		rowLen := n
		switch rng.Intn(4) {
		case 0:
			rowLen = rng.Intn(n + 1) // short row
		case 1:
			rowLen = n + rng.Intn(3) // long row: extra entries ignored
		}
		self := rng.Intn(n)
		liveRow := randRow(rng, self, rowLen)
		liveCosts := UnpackCosts(nil, liveRow)

		out := make([]HopCost, n)
		tb.BestOneHopViaAll(liveCosts, t0, maxAge, out)
		for dst := 0; dst < n; dst++ {
			wantHop, wantCost := raw.bestOneHopVia(liveRow, dst, t0, maxAge)
			if out[dst].Hop != wantHop || out[dst].Cost != wantCost {
				t.Fatalf("trial %d n=%d rowLen=%d maxAge=%v: ViaAll(dst=%d) = (%d,%d), scalar (%d,%d)",
					trial, n, rowLen, maxAge, dst, out[dst].Hop, out[dst].Cost, wantHop, wantCost)
			}
		}
	}
}

// TestBestOneHopRowsNoSkip checks the skip=-1 midpoint-search mode used by
// the multi-hop engine against a naive min-plus scan.
func TestBestOneHopRowsNoSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(20)
		rowI := make([]wire.Cost, n)
		rowJ := make([]wire.Cost, n)
		for k := 0; k < n; k++ {
			rowI[k] = randEntry(rng).Cost()
			rowJ[k] = randEntry(rng).Cost()
		}
		wantMid, wantCost := -1, wire.InfCost
		for m := 0; m < n; m++ {
			if c := rowI[m].Add(rowJ[m]); c < wantCost {
				wantCost, wantMid = c, m
			}
		}
		mid, cost := BestOneHopRows(-1, rowI, rowJ)
		if mid != wantMid || cost != wantCost {
			t.Fatalf("trial %d: BestOneHopRows(-1) = (%d,%d), naive (%d,%d)", trial, mid, cost, wantMid, wantCost)
		}
	}
}

// TestMatrixTracksPutRetire verifies the flat matrix mirrors Put/RetireSlot
// exactly: stored rows appear unpacked, retired and missing rows are
// all-InfCost.
func TestMatrixTracksPutRetire(t *testing.T) {
	t0 := time.Unix(0, 0)
	tb := NewTable(3)
	m := tb.Matrix()
	for s := 0; s < 3; s++ {
		for _, c := range m.Row(s) {
			if c != wire.InfCost {
				t.Fatal("fresh matrix not all-InfCost")
			}
		}
	}
	row := SelfRow(1, []wire.LinkEntry{{Latency: 7, Status: 0}, {}, {Latency: 9, Status: wire.StatusDead}})
	if !tb.Put(1, Row{Seq: 3, When: t0, Entries: row}) {
		t.Fatal("Put rejected")
	}
	want := []wire.Cost{7, 0, wire.InfCost}
	for i, c := range m.Row(1) {
		if c != want[i] {
			t.Errorf("matrix row[1][%d] = %d, want %d", i, c, want[i])
		}
	}
	if !tb.Have(1) || tb.Seq(1) != 3 || !tb.When(1).Equal(t0) {
		t.Error("table metadata not tracking Put")
	}
	tb.RetireSlot(1)
	if tb.Have(1) {
		t.Error("table metadata survives RetireSlot")
	}
	for _, c := range m.Row(1) {
		if c != wire.InfCost {
			t.Error("retired row not reset to InfCost")
		}
	}
}

// TestPutRejectsEqualSeqOlderWhen pins the delayed-duplicate fix: a row with
// the same sequence number but an older timestamp must not roll back the
// stored row's freshness.
func TestPutRejectsEqualSeqOlderWhen(t *testing.T) {
	t0 := time.Unix(0, 0)
	tb := NewTable(2)
	fresh := Row{Seq: 5, When: t0.Add(time.Minute), Entries: SelfRow(0, []wire.LinkEntry{{}, {Latency: 10}})}
	if !tb.Put(0, fresh) {
		t.Fatal("Put rejected fresh row")
	}
	stale := Row{Seq: 5, When: t0, Entries: SelfRow(0, []wire.LinkEntry{{}, {Latency: 99}})}
	if tb.Put(0, stale) {
		t.Error("Put accepted equal-seq row with older When")
	}
	if !tb.Have(0) || !tb.When(0).Equal(t0.Add(time.Minute)) || tb.OutRow(0)[1] != 10 {
		t.Error("stored row was rolled back by delayed duplicate")
	}
	// Same seq, same When (a true duplicate) still refreshes harmlessly.
	if !tb.Put(0, fresh) {
		t.Error("Put rejected identical duplicate")
	}
}

// TestViaLongRowOutOfViewDst pins the pre-matrix semantics for a live row
// longer than the table's view: a destination beyond the view has no stored
// intermediate entries, so only the direct path can be returned — never a
// read into another slot's matrix row.
func TestViaLongRowOutOfViewDst(t *testing.T) {
	t0 := time.Unix(0, 0)
	tb := NewTable(4)
	for s := 0; s < 4; s++ {
		row := make([]wire.LinkEntry, 4)
		for j := range row {
			row[j] = wire.LinkEntry{Latency: 1, Status: 0}
		}
		tb.Put(s, Row{Seq: 1, When: t0, Entries: SelfRow(s, row)})
	}
	rowA := make([]wire.LinkEntry, 6)
	for j := range rowA {
		rowA[j] = wire.LinkEntry{Latency: uint16(10 + j), Status: 0}
	}
	SelfRow(0, rowA)
	hop, cost := tb.BestOneHopVia(UnpackCosts(nil, rowA), 5, t0, time.Minute)
	if hop != 5 || cost != 15 {
		t.Errorf("dst outside view: got (%d,%d), want direct (5,15)", hop, cost)
	}
	rowA[5].Status = wire.StatusDead
	hop, cost = tb.BestOneHopVia(UnpackCosts(nil, rowA), 5, t0, time.Minute)
	if hop != -1 || cost != wire.InfCost {
		t.Errorf("dead direct outside view: got (%d,%d), want (-1,InfCost)", hop, cost)
	}
}
