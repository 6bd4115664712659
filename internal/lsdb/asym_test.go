package lsdb

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"allpairs/internal/wire"
)

func aentry(out, in int, alive bool) wire.AsymEntry {
	return wire.AsymEntry{Out: uint16(out), In: uint16(in), Status: wire.MakeStatus(alive, 0)}
}

// selfAsymRow forces the self-entry of a directional row to zero/alive.
func selfAsymRow(self int, entries []wire.AsymEntry) []wire.AsymEntry {
	entries[self] = wire.AsymEntry{Status: wire.MakeStatus(true, 0)}
	return entries
}

func TestDirectionalTableBasics(t *testing.T) {
	tb := NewDirectionalTable(3)
	if tb.N() != 3 || !tb.Directional() || NewTable(3).Directional() {
		t.Fatalf("N = %d, directional = %v", tb.N(), tb.Directional())
	}
	row := AsymRow{Seq: 2, When: t0, Entries: []wire.AsymEntry{aentry(0, 0, true), aentry(10, 20, true), aentry(5, 5, false)}}
	if !tb.PutAsym(0, row) {
		t.Fatal("PutAsym rejected")
	}
	if tb.PutAsym(0, AsymRow{Seq: 1, When: t0, Entries: row.Entries}) {
		t.Error("stale seq accepted")
	}
	if tb.PutAsym(5, row) || tb.PutAsym(0, AsymRow{Seq: 3, Entries: row.Entries[:1]}) {
		t.Error("bad shape accepted")
	}
	// A symmetric row has no in-costs to give.
	if tb.Put(1, Row{Seq: 1, When: t0, Entries: aliveRow(1, 0, 1)}) || tb.Have(1) {
		t.Error("directional table accepted a symmetric row")
	}
	if !tb.Have(0) || tb.Seq(0) != 2 || tb.OutRow(0)[1] != 10 || tb.InRow(0)[1] != 20 {
		t.Errorf("directional costs wrong: out %v in %v", tb.OutRow(0), tb.InRow(0))
	}
	if tb.OutRow(0)[2] != wire.InfCost || tb.InRow(0)[2] != wire.InfCost {
		t.Error("dead entry not Inf")
	}
	if tb.OutRow(1)[0] != wire.InfCost || tb.InRow(1)[0] != wire.InfCost {
		t.Error("absent row not Inf")
	}
	if tb.FreshAt(0, t0.Add(time.Hour), time.Minute) {
		t.Error("stale row reported fresh")
	}
	slots := tb.FreshSlots(nil, t0.Add(time.Second), time.Minute)
	if len(slots) != 1 || slots[0] != 0 {
		t.Errorf("FreshSlots = %v", slots)
	}
}

func TestBestOneHopAsymDirectionality(t *testing.T) {
	// Three nodes. Link 0-2 asymmetric: 0→2 cheap (10), 2→0 expensive (300).
	// Link 0-1: 50/50. Link 1-2: 40/40.
	// Route 0→2: direct 10 beats via 1 (50+40=90).
	// Route 2→0: direct 300 loses to via 1 (40+50=90).
	rowA := selfAsymRow(0, []wire.AsymEntry{{}, aentry(50, 50, true), aentry(10, 300, true)})
	rowC := selfAsymRow(2, []wire.AsymEntry{aentry(300, 10, true), aentry(40, 40, true), {}})
	tb := NewDirectionalTable(3)
	tb.PutAsym(0, AsymRow{Seq: 1, When: t0, Entries: rowA})
	tb.PutAsym(2, AsymRow{Seq: 1, When: t0, Entries: rowC})
	out := make([]HopCost, 1)

	hop, cost := bestOneHopAsym(0, rowA, 2, rowC)
	tb.BestOneHopAllRow(nil, tb.OutRow(0), 0, []int{2}, out)
	if hop != 2 || cost != 10 || out[0] != (HopCost{2, 10}) {
		t.Errorf("0→2: oracle %d/%d kernel %+v, want direct 2/10", hop, cost, out[0])
	}
	hop, cost = bestOneHopAsym(2, rowC, 0, rowA)
	tb.BestOneHopAllRow(nil, tb.OutRow(2), 2, []int{0}, out)
	if hop != 1 || cost != 90 || out[0] != (HopCost{1, 90}) {
		t.Errorf("2→0: oracle %d/%d kernel %+v, want via 1/90", hop, cost, out[0])
	}
}

func TestBestOneHopViaDirectional(t *testing.T) {
	tb := NewDirectionalTable(3)
	tb.PutAsym(1, AsymRow{Seq: 1, When: t0, Entries: selfAsymRow(1, []wire.AsymEntry{aentry(50, 999, true), {}, aentry(40, 999, true)})})
	rowA := UnpackOutCosts(nil, selfAsymRow(0, []wire.AsymEntry{{}, aentry(50, 999, true), aentry(0, 0, false)}))
	// Both legs are read in the out direction: out_0(1) + out_1(2).
	hop, cost := tb.BestOneHopVia(rowA, 2, t0.Add(time.Second), time.Minute)
	if hop != 1 || cost != 90 {
		t.Errorf("hop=%d cost=%d, want 1/90", hop, cost)
	}
	if hop, cost := tb.BestOneHopVia(rowA, 9, t0, time.Minute); hop != -1 || cost != wire.InfCost {
		t.Error("bad dst not rejected")
	}
}

// Property: directional best-hop matches exhaustive search per direction.
func TestBestOneHopAsymQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a, b := 0, 1+rng.Intn(n-1)
		rowA := make([]wire.AsymEntry, n)
		rowB := make([]wire.AsymEntry, n)
		for i := 0; i < n; i++ {
			rowA[i] = aentry(rng.Intn(500), rng.Intn(500), rng.Intn(8) > 0)
			rowB[i] = aentry(rng.Intn(500), rng.Intn(500), rng.Intn(8) > 0)
		}
		selfAsymRow(a, rowA)
		selfAsymRow(b, rowB)
		hop, cost := bestOneHopAsym(a, rowA, b, rowB)
		want := wire.InfCost
		for h := 0; h < n; h++ {
			if h == a {
				continue
			}
			if c := rowA[h].OutCost().Add(rowB[h].InCost()); c < want {
				want = c
			}
		}
		if cost != want {
			return false
		}
		if cost == wire.InfCost {
			return hop == -1
		}
		return rowA[hop].OutCost().Add(rowB[hop].InCost()) == cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: every batch kernel on a directional table matches the scalar
// directed one-hop minimum per pair — absent rows (all-Inf via the shared inf
// row), dead entries, and cost sums saturating at InfCost included. These are
// the kernels the asymmetric round 2 runs on, so this is the footnote-2
// equivalence proof in miniature.
func TestDirectionalKernelsMatchScalarQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		tb := NewDirectionalTable(n)
		raw := make([][]wire.AsymEntry, n)
		randRow := func(self int) []wire.AsymEntry {
			row := make([]wire.AsymEntry, n)
			for i := range row {
				// Costs up to 40000 make many sums exceed InfCost, so the
				// saturation path is exercised, not just possible.
				row[i] = aentry(rng.Intn(40000), rng.Intn(40000), rng.Intn(6) > 0)
			}
			return selfAsymRow(self, row)
		}
		dead := make([]wire.AsymEntry, n)
		for i := range dead {
			dead[i].Status = wire.StatusDead
		}
		for s := 0; s < n; s++ {
			raw[s] = dead // absent row: the kernels must see all-Inf
			if rng.Intn(5) != 0 {
				raw[s] = randRow(s)
				tb.PutAsym(s, AsymRow{Seq: 1, When: t0, Entries: raw[s]})
			}
		}
		dsts := make([]int, n)
		for i := range dsts {
			dsts[i] = i
		}
		out := make([]HopCost, n)
		for a := 0; a < n; a++ {
			tb.BestOneHopAllRow(nil, tb.OutRow(a), a, dsts, out)
			for _, b := range dsts {
				if wh, wc := bestOneHopAsym(a, raw[a], b, raw[b]); out[b] != (HopCost{wh, wc}) {
					return false
				}
			}
		}
		// The live-measurement variants feed a row that is not in the table,
		// the shape the self pairs of round 2 use.
		live := randRow(0)
		tb.BestOneHopAllRow(nil, UnpackOutCosts(nil, live), 0, dsts, out)
		for _, b := range dsts {
			if wh, wc := bestOneHopAsym(0, live, b, raw[b]); out[b] != (HopCost{wh, wc}) {
				return false
			}
		}
		tb.BestOneHopToRow(nil, dsts, UnpackInCosts(nil, live), out)
		for i, a := range dsts {
			if wh, wc := bestOneHopAsym(a, raw[a], 0, live); out[i] != (HopCost{wh, wc}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the two modes are one algorithm. A directional table fed rows
// whose every entry has Out == In returns, from every kernel, exactly what a
// symmetric table fed the equivalent LinkEntry rows returns — and both equal
// the scalar oracles — across randomized tables with InfCost saturation,
// stale and absent rows, short and long live rows, and retired slots.
func TestDirectionalEqualsSymmetricWhenCostsAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		now := time.Unix(1_000_000, 0)
		sym, dir := NewTable(n), NewDirectionalTable(n)
		raw := make(rawRows, n)
		mirror := func(row []wire.LinkEntry) []wire.AsymEntry {
			m := make([]wire.AsymEntry, len(row))
			for i, e := range row {
				m[i] = wire.AsymEntry{Out: e.Latency, In: e.Latency, Status: e.Status}
			}
			return m
		}
		for s := 0; s < n; s++ {
			if rng.Intn(5) == 0 {
				continue
			}
			row := Row{Seq: 1, When: now.Add(-time.Duration(rng.Intn(120)) * time.Second), Entries: randRow(rng, s, n)}
			raw.put(sym, s, row)
			dir.PutAsym(s, AsymRow{Seq: row.Seq, When: row.When, Entries: mirror(row.Entries)})
		}
		// Retire a slot or two: the row goes, and everyone's cost toward it.
		for r := rng.Intn(3); r > 0; r-- {
			s := rng.Intn(n)
			sym.RetireSlot(s)
			dir.RetireSlot(s)
			raw[s] = Row{}
			for h := range raw {
				if raw[h].Entries != nil {
					raw[h].Entries[s] = wire.LinkEntry{Status: wire.StatusDead}
				}
			}
		}
		var stored []int
		for s := 0; s < n; s++ {
			if sym.Have(s) != dir.Have(s) || sym.Have(s) != (raw[s].Entries != nil) {
				return false
			}
			if sym.Have(s) {
				stored = append(stored, s)
			}
		}
		self := rng.Intn(n)
		liveLen := n
		switch rng.Intn(4) {
		case 0:
			liveLen = rng.Intn(n + 1) // short self row
		case 1:
			liveLen = n + rng.Intn(3) // long self row: extra entries ignored
		}
		live := randRow(rng, self, liveLen)
		costs := UnpackCosts(nil, live)
		if !slices.Equal(costs, UnpackOutCosts(nil, mirror(live))) || !slices.Equal(costs, UnpackInCosts(nil, mirror(live))) {
			return false
		}

		same := func(kernel func(tb *Table, out []HopCost), width int, want func(i int) (int, wire.Cost)) bool {
			a, b := make([]HopCost, width), make([]HopCost, width)
			kernel(sym, a)
			kernel(dir, b)
			for i := range a {
				wh, wc := want(i)
				if a[i] != b[i] || a[i] != (HopCost{wh, wc}) {
					t.Logf("seed %d n=%d i=%d: symmetric %+v directional %+v oracle (%d,%d)", seed, n, i, a[i], b[i], wh, wc)
					return false
				}
			}
			return true
		}
		k := len(stored)
		for _, a := range stored {
			if !same(func(tb *Table, out []HopCost) { tb.BestOneHopAllRow(nil, tb.OutRow(a), a, stored, out) }, k,
				func(i int) (int, wire.Cost) { return bestOneHop(a, raw[a].Entries, stored[i], raw[stored[i]].Entries) }) {
				return false
			}
		}
		if !same(func(tb *Table, out []HopCost) { tb.BestOneHopAllRow(nil, costs, self, stored, out) }, k,
			func(i int) (int, wire.Cost) { return bestOneHop(self, live, stored[i], raw[stored[i]].Entries) }) {
			return false
		}
		if !same(func(tb *Table, out []HopCost) { tb.BestOneHopToRow(nil, stored, costs, out) }, k,
			func(i int) (int, wire.Cost) { return bestOneHop(stored[i], raw[stored[i]].Entries, self, live) }) {
			return false
		}
		maxAge := time.Duration(rng.Intn(150)) * time.Second
		via := func(dst int) (int, wire.Cost) { return raw.bestOneHopVia(live, dst, now, maxAge) }
		if !same(func(tb *Table, out []HopCost) { tb.BestOneHopViaAll(costs, now, maxAge, out) }, n, via) {
			return false
		}
		return same(func(tb *Table, out []HopCost) {
			for dst := range out {
				out[dst].Hop, out[dst].Cost = tb.BestOneHopVia(costs, dst, now, maxAge)
			}
		}, n+2, via) // the two extra destinations lie outside the view
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPutAsymRejectsEqualSeqOlderWhen(t *testing.T) {
	t0 := time.Unix(0, 0)
	tb := NewDirectionalTable(2)
	fresh := AsymRow{Seq: 5, When: t0.Add(time.Minute), Entries: selfAsymRow(0, []wire.AsymEntry{{}, aentry(10, 10, true)})}
	if !tb.PutAsym(0, fresh) {
		t.Fatal("PutAsym rejected fresh row")
	}
	stale := AsymRow{Seq: 5, When: t0, Entries: selfAsymRow(0, []wire.AsymEntry{{}, aentry(99, 99, true)})}
	if tb.PutAsym(0, stale) {
		t.Error("PutAsym accepted equal-seq row with older When")
	}
	if !tb.Have(0) || !tb.When(0).Equal(t0.Add(time.Minute)) || tb.OutRow(0)[1] != 10 {
		t.Error("stored row was rolled back by delayed duplicate")
	}
	if !tb.PutAsym(0, fresh) {
		t.Error("PutAsym rejected identical duplicate")
	}
}
