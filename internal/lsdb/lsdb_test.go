package lsdb

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"allpairs/internal/wire"
)

func entry(lat int, alive bool) wire.LinkEntry {
	return wire.LinkEntry{Latency: uint16(lat), Status: wire.MakeStatus(alive, 0)}
}

func aliveRow(lats ...int) []wire.LinkEntry {
	r := make([]wire.LinkEntry, len(lats))
	for i, l := range lats {
		r[i] = entry(l, true)
	}
	return r
}

var t0 = time.Unix(1000, 0)

func TestTablePut(t *testing.T) {
	tb := NewTable(3)
	if tb.N() != 3 {
		t.Fatalf("N = %d", tb.N())
	}
	if tb.Have(0) || tb.Have(-1) || tb.Have(3) {
		t.Error("empty table reports a row")
	}
	row := Row{Seq: 1, When: t0, Entries: aliveRow(0, 10, 20)}
	if !tb.Put(0, row) {
		t.Fatal("Put rejected valid row")
	}
	if !tb.Have(0) || tb.Seq(0) != 1 || tb.OutRow(0)[2] != 20 {
		t.Fatalf("stored row: have=%v seq=%d costs=%v", tb.Have(0), tb.Seq(0), tb.OutRow(0))
	}
	// Stale sequence rejected.
	if tb.Put(0, Row{Seq: 0, When: t0.Add(time.Minute), Entries: aliveRow(0, 1, 2)}) {
		t.Error("Put accepted stale seq")
	}
	// Equal sequence (refresh) accepted.
	if !tb.Put(0, Row{Seq: 1, When: t0.Add(time.Minute), Entries: aliveRow(0, 1, 2)}) {
		t.Error("Put rejected refresh at same seq")
	}
	if !tb.When(0).Equal(t0.Add(time.Minute)) || tb.OutRow(0)[2] != 2 {
		t.Error("refresh did not update timestamp and costs")
	}
	// A directional row has no place in a symmetric table.
	if tb.PutAsym(1, AsymRow{Seq: 1, When: t0, Entries: make([]wire.AsymEntry, 3)}) {
		t.Error("symmetric table accepted a directional row")
	}
}

func TestTablePutRejectsBadShape(t *testing.T) {
	tb := NewTable(3)
	if tb.Put(-1, Row{Entries: aliveRow(0, 0, 0)}) {
		t.Error("accepted negative slot")
	}
	if tb.Put(3, Row{Entries: aliveRow(0, 0, 0)}) {
		t.Error("accepted out-of-range slot")
	}
	if tb.Put(0, Row{Entries: aliveRow(0, 0)}) {
		t.Error("accepted wrong-length row")
	}
}

func TestFreshness(t *testing.T) {
	tb := NewTable(2)
	tb.Put(0, Row{Seq: 1, When: t0, Entries: aliveRow(0, 5)})
	if !tb.FreshAt(0, t0.Add(30*time.Second), 45*time.Second) {
		t.Error("row within maxAge reported stale")
	}
	if tb.FreshAt(0, t0.Add(46*time.Second), 45*time.Second) || tb.FreshAt(1, t0, time.Hour) {
		t.Error("stale or absent row reported fresh")
	}
	slots := tb.FreshSlots(nil, t0.Add(time.Second), 45*time.Second)
	if len(slots) != 1 || slots[0] != 0 {
		t.Errorf("FreshSlots = %v", slots)
	}
}

func TestBestOneHopPrefersDetour(t *testing.T) {
	// 4 nodes: a=0, b=3. Direct a-b = 500; via h=1: 100+50=150; via h=2: dead.
	rowA := SelfRow(0, []wire.LinkEntry{{}, entry(100, true), entry(30, false), entry(500, true)})
	rowB := SelfRow(3, []wire.LinkEntry{entry(500, true), entry(50, true), entry(90, true), {}})
	hop, cost := bestOneHop(0, rowA, 3, rowB)
	if hop != 1 || cost != 150 {
		t.Errorf("hop=%d cost=%d, want 1/150", hop, cost)
	}
}

func TestBestOneHopPrefersDirect(t *testing.T) {
	rowA := SelfRow(0, []wire.LinkEntry{{}, entry(100, true), entry(40, true)})
	rowB := SelfRow(2, []wire.LinkEntry{entry(40, true), entry(100, true), {}})
	hop, cost := bestOneHop(0, rowA, 2, rowB)
	if hop != 2 || cost != 40 {
		t.Errorf("hop=%d cost=%d, want direct 2/40", hop, cost)
	}
}

func TestBestOneHopAllDead(t *testing.T) {
	rowA := []wire.LinkEntry{entry(0, true), entry(10, false)}
	rowB := []wire.LinkEntry{entry(10, false), entry(0, true)}
	// a's self-entry is alive but b's entry to a is dead, and vice versa.
	rowA[0] = entry(0, true)
	hop, cost := bestOneHop(0, rowA, 1, rowB)
	if cost != wire.InfCost || hop != -1 {
		t.Errorf("hop=%d cost=%d, want -1/Inf", hop, cost)
	}
}

func TestBestOneHopMismatchedLengths(t *testing.T) {
	hop, cost := bestOneHop(1, aliveRow(5, 0), 0, aliveRow(0))
	// Only h=0 considered: cost = 5 + 0.
	if hop != 0 || cost != 5 {
		t.Errorf("hop=%d cost=%d", hop, cost)
	}
}

func TestBestOneHopVia(t *testing.T) {
	// Node 0 routes to dst 3. Direct dead. Neighbor 1 has a fresh row with a
	// live link to 3; neighbor 2's row is stale.
	tb := NewTable(4)
	tb.Put(1, Row{Seq: 1, When: t0, Entries: SelfRow(1, []wire.LinkEntry{entry(20, true), {}, entry(5, true), entry(30, true)})})
	tb.Put(2, Row{Seq: 1, When: t0.Add(-10 * time.Minute), Entries: SelfRow(2, []wire.LinkEntry{entry(5, true), entry(5, true), {}, entry(5, true)})})
	rowA := SelfRow(0, []wire.LinkEntry{{}, entry(20, true), entry(5, true), entry(100, false)})

	costs := UnpackCosts(nil, rowA)

	hop, cost := tb.BestOneHopVia(costs, 3, t0.Add(time.Second), 45*time.Second)
	if hop != 1 || cost != 50 {
		t.Errorf("hop=%d cost=%d, want 1/50", hop, cost)
	}
	// With a wider staleness window node 2's cheaper path appears.
	hop, cost = tb.BestOneHopVia(costs, 3, t0.Add(time.Second), time.Hour)
	if hop != 2 || cost != 10 {
		t.Errorf("hop=%d cost=%d, want 2/10", hop, cost)
	}
	// Out-of-range destinations.
	for _, dst := range []int{9, -1} {
		if hop, cost = tb.BestOneHopVia(costs, dst, t0, time.Hour); hop != -1 || cost != wire.InfCost {
			t.Errorf("hop=%d cost=%d for bad dst %d", hop, cost, dst)
		}
	}
}

func TestBestOneHopViaDirectOnly(t *testing.T) {
	tb := NewTable(2)
	rowA := SelfRow(0, []wire.LinkEntry{{}, entry(80, true)})
	hop, cost := tb.BestOneHopVia(UnpackCosts(nil, rowA), 1, t0, time.Minute)
	if hop != 1 || cost != 80 {
		t.Errorf("hop=%d cost=%d, want direct 1/80", hop, cost)
	}
}

func TestSelfRowForcesZero(t *testing.T) {
	r := SelfRow(1, []wire.LinkEntry{entry(9, true), entry(99, false), entry(9, true)})
	if r[1].Latency != 0 || !wire.StatusAlive(r[1].Status) {
		t.Errorf("self entry = %+v", r[1])
	}
	SelfRow(-1, r) // out of range must not panic
	SelfRow(5, r)
}

// Property: BestOneHop equals exhaustive search over all intermediates and
// never beats the true optimum.
func TestBestOneHopMatchesExhaustiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a, b := 0, 1+rng.Intn(n-1)
		rowA := make([]wire.LinkEntry, n)
		rowB := make([]wire.LinkEntry, n)
		for i := 0; i < n; i++ {
			rowA[i] = entry(rng.Intn(1000), rng.Intn(10) > 0)
			rowB[i] = entry(rng.Intn(1000), rng.Intn(10) > 0)
		}
		SelfRow(a, rowA)
		SelfRow(b, rowB)
		hop, cost := bestOneHop(a, rowA, b, rowB)
		want := wire.InfCost
		for h := 0; h < n; h++ {
			if h == a {
				continue
			}
			if c := rowA[h].Cost().Add(rowB[h].Cost()); c < want {
				want = c
			}
		}
		if cost != want {
			return false
		}
		if cost != wire.InfCost {
			return rowA[hop].Cost().Add(rowB[hop].Cost()) == cost
		}
		return hop == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the §4.2 fallback never reports a better cost than the true
// optimum over the same intermediates, and always finds the direct path if
// it is alive.
func TestBestOneHopViaSoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		tb := NewTable(n)
		for s := 1; s < n; s++ {
			if rng.Intn(3) == 0 {
				continue // some rows missing
			}
			row := make([]wire.LinkEntry, n)
			for i := range row {
				row[i] = entry(rng.Intn(500), rng.Intn(5) > 0)
			}
			tb.Put(s, Row{Seq: 1, When: t0, Entries: SelfRow(s, row)})
		}
		rowA := make([]wire.LinkEntry, n)
		for i := range rowA {
			rowA[i] = entry(rng.Intn(500), rng.Intn(5) > 0)
		}
		SelfRow(0, rowA)
		dst := 1 + rng.Intn(n-1)
		hop, cost := tb.BestOneHopVia(UnpackCosts(nil, rowA), dst, t0, time.Minute)
		if direct := rowA[dst].Cost(); cost > direct {
			return false // must be at least as good as direct
		}
		if cost == wire.InfCost {
			return hop == -1
		}
		if hop == dst {
			return cost == rowA[dst].Cost()
		}
		return tb.Have(hop) && rowA[hop].Cost().Add(tb.OutRow(hop)[dst]) == cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCostMatrixLazyRows(t *testing.T) {
	m := newCostMatrix(4)
	for s := 0; s < 4; s++ {
		row := m.Row(s)
		for i, c := range row {
			if c != wire.InfCost {
				t.Fatalf("empty matrix row %d[%d] = %d", s, i, c)
			}
		}
	}
	tb := NewTable(4)
	entries := make([]wire.LinkEntry, 4)
	for i := range entries {
		entries[i] = wire.LinkEntry{Latency: uint16(i), Status: wire.MakeStatus(true, 0)}
	}
	tb.Put(2, Row{Seq: 1, When: time.Unix(1, 0), Entries: entries})
	if got := tb.Matrix().Row(2)[3]; got != 3 {
		t.Errorf("stored row reads %d, want 3", got)
	}
	if got := tb.Matrix().Row(1)[3]; got != wire.InfCost {
		t.Errorf("absent row reads %d, want InfCost", got)
	}
	tb.RetireSlot(2)
	if got := tb.Matrix().Row(2)[3]; got != wire.InfCost {
		t.Errorf("retired row reads %d, want InfCost", got)
	}
}

// TestRowIndexTracksStores: under a random mix of stores, expiries,
// retirements and grows, each slot's index names its own row and nothing else,
// every row it holds reads as the model says, and a released row leaves the
// list, so its storage goes back to the collector.
func TestRowIndexTracksStores(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := NewTable(12)
	model := map[int][]wire.Cost{} // slot → costs the table must read
	when := map[int]time.Time{}
	now := t0
	for step := 0; step < 2000; step++ {
		now = now.Add(time.Second)
		switch s := rng.Intn(tb.N()); rng.Intn(10) {
		case 0:
			tb.Expire(now, 20*time.Second)
			for slot, w := range when {
				if now.Sub(w) > 20*time.Second {
					delete(model, slot)
				}
			}
		case 1:
			tb.RetireSlot(s)
			delete(model, s)
			delete(when, s)
			for _, row := range model {
				row[s] = wire.InfCost
			}
		case 2:
			if tb.N() < 40 {
				n := tb.N() + 1 + rng.Intn(3)
				for slot, row := range model {
					model[slot] = append(row, slices.Repeat([]wire.Cost{wire.InfCost}, n-len(row))...)
				}
				tb.Grow(n)
			}
		default:
			entries := make([]wire.LinkEntry, tb.N())
			costs := make([]wire.Cost, tb.N())
			for i := range entries {
				entries[i] = entry(rng.Intn(500), rng.Intn(8) > 0)
				costs[i] = entries[i].Cost()
			}
			if !tb.Put(s, Row{Seq: uint32(step), When: now, Entries: entries}) {
				t.Fatalf("step %d: Put refused", step)
			}
			model[s], when[s] = costs, now
		}
		m := tb.Matrix()
		if len(m.held) != len(model) || tb.Stored() != len(model) {
			t.Fatalf("step %d: %d rows held, model holds %d", step, len(m.held), len(model))
		}
		for i := range m.held {
			if int(m.idx[m.slot[i]]) != i+1 {
				t.Fatalf("step %d: held row %d belongs to slot %d, whose index reads %d", step, i, m.slot[i], m.idx[m.slot[i]])
			}
		}
		for _, row := range m.held[len(m.held):cap(m.held)] {
			if row != nil {
				t.Fatalf("step %d: a released row is still reachable past the held list", step)
			}
		}
		for slot := 0; slot < tb.N(); slot++ {
			want, ok := model[slot]
			if !ok {
				want = slices.Repeat([]wire.Cost{wire.InfCost}, tb.N())
			}
			if got := m.Row(slot); !slices.Equal(got, want) {
				t.Fatalf("step %d: slot %d reads %v, want %v", step, slot, got, want)
			}
		}
	}
}

func TestTableGrowPreservesRowsAndGenerations(t *testing.T) {
	tb := NewTable(3)
	tb.Put(0, Row{Seq: 1, When: t0, Entries: aliveRow(0, 10, 20)})
	tb.Put(2, Row{Seq: 4, When: t0.Add(time.Second), Entries: aliveRow(7, 8, 0)})
	before := snapshotTable(tb)

	tb.Grow(5)
	if tb.N() != 5 || tb.Matrix().N() != 5 {
		t.Fatalf("N = %d / %d, want 5", tb.N(), tb.Matrix().N())
	}
	// Old contents and metadata byte-identical, tail reads InfCost, new
	// slots empty.
	for s, want := range before {
		got := snapshotSlot(tb, s)
		pad := []wire.Cost{wire.InfCost, wire.InfCost}
		want.out, want.in = append(want.out, pad...), append(want.in, pad...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Grow disturbed slot %d: %+v -> %+v", s, want, got)
		}
	}
	for i := 3; i < 5; i++ {
		if tb.Have(i) {
			t.Errorf("new slot %d not empty", i)
		}
	}
	// Old-length announcements are rejected; new-length accepted.
	if tb.Put(1, Row{Seq: 1, When: t0, Entries: aliveRow(1, 0, 1)}) {
		t.Error("Put accepted a 3-entry row in a 5-slot table")
	}
	if !tb.Put(1, Row{Seq: 1, When: t0, Entries: aliveRow(1, 0, 1, 9, 9)}) {
		t.Error("Put rejected a valid 5-entry row")
	}
	// A grow must not shrink.
	tb.Grow(4)
	if tb.N() != 5 {
		t.Errorf("Grow(4) shrank table to %d", tb.N())
	}
}

// TestTableGrowLeavesNoSpareCapacity: a held row lives until its slot
// expires, so a grow sizes it at exactly the new slot count, in both
// directions — appending to it would leave about 2.3× its length allocated
// (a 196-entry row grown by one slot ends at capacity 448). The per-slot
// tables live as long as the view and are sized exactly too.
func TestTableGrowLeavesNoSpareCapacity(t *testing.T) {
	for _, tb := range []*Table{NewTable(196), NewDirectionalTable(196)} {
		for _, s := range []int{0, 7, 195} {
			if tb.Directional() {
				tb.PutAsym(s, AsymRow{Seq: 1, When: t0, Entries: make([]wire.AsymEntry, 196)})
			} else {
				tb.Put(s, Row{Seq: 1, When: t0, Entries: make([]wire.LinkEntry, 196)})
			}
		}
		for _, n := range []int{197, 198, 250} {
			tb.Grow(n)
			for _, m := range []*CostMatrix{tb.out, tb.in} {
				if len(m.held) != 3 {
					t.Fatalf("directional=%v: after Grow(%d) %d rows held, want 3", tb.Directional(), n, len(m.held))
				}
				for i, row := range m.held {
					if len(row) != n || cap(row) != n {
						t.Errorf("directional=%v: after Grow(%d) row %d has len %d, cap %d", tb.Directional(), n, m.slot[i], len(row), cap(row))
					}
				}
				if cap(m.idx) != n {
					t.Errorf("directional=%v: after Grow(%d) the row index has cap %d", tb.Directional(), n, cap(m.idx))
				}
			}
			if cap(tb.meta) != n {
				t.Errorf("directional=%v: after Grow(%d) the slot metadata has cap %d", tb.Directional(), n, cap(tb.meta))
			}
			// The full-table pass's scratch is allocated by the pass, exactly
			// n long, or not at all.
			for range 2 {
				if c := cap(tb.best); c != 0 && c != n || cap(tb.hop) != c {
					t.Errorf("directional=%v: after Grow(%d) pass scratch caps %d/%d, want 0 or %d", tb.Directional(), n, cap(tb.best), cap(tb.hop), n)
				}
				tb.BestOneHopViaAll(nil, t0, time.Minute, make([]HopCost, n))
			}
		}
	}
}

// slotState is everything a Table holds for one slot, copied out so a test
// can hold a mutation to exactly the slots and columns it should touch.
type slotState struct {
	have    bool
	seq     uint32
	when    time.Time
	out, in []wire.Cost
}

func snapshotSlot(tb *Table, s int) slotState {
	return slotState{
		have: tb.Have(s), seq: tb.Seq(s), when: tb.When(s),
		out: append([]wire.Cost(nil), tb.OutRow(s)...),
		in:  append([]wire.Cost(nil), tb.InRow(s)...),
	}
}

func snapshotTable(tb *Table) []slotState {
	all := make([]slotState, tb.N())
	for s := range all {
		all[s] = snapshotSlot(tb, s)
	}
	return all
}

func TestTableRetireSlotTouchesOnlyAffectedRows(t *testing.T) {
	tb := NewTable(4)
	tb.Put(0, Row{Seq: 1, When: t0, Entries: aliveRow(0, 10, 20, 30)})
	// Row 1 already reads slot 2 as dead: retiring 2 must not touch it.
	ents := aliveRow(5, 0, 0, 6)
	ents[2] = wire.LinkEntry{Status: wire.StatusDead}
	tb.Put(1, Row{Seq: 1, When: t0, Entries: ents})
	tb.Put(2, Row{Seq: 3, When: t0, Entries: aliveRow(20, 1, 0, 2)})
	before := snapshotTable(tb)

	tb.RetireSlot(-1) // out of range must not panic
	tb.RetireSlot(9)
	if got := snapshotTable(tb); !reflect.DeepEqual(got, before) {
		t.Errorf("out-of-range retires changed the table: %+v -> %+v", before, got)
	}

	tb.RetireSlot(2)
	if tb.Have(2) || tb.Seq(2) != 0 || !tb.When(2).IsZero() {
		t.Error("retired slot still has a row")
	}
	// Row 0 held a finite cost toward 2: exactly that column is rewritten.
	want0 := before[0]
	want0.out = []wire.Cost{0, 10, wire.InfCost, 30}
	want0.in = want0.out
	if got := snapshotSlot(tb, 0); !reflect.DeepEqual(got, want0) {
		t.Errorf("row 0 after retire: %+v, want %+v", got, want0)
	}
	for _, s := range []int{1, 3} {
		if got := snapshotSlot(tb, s); !reflect.DeepEqual(got, before[s]) {
			t.Errorf("slot %d never held a finite cost toward 2 but changed: %+v -> %+v", s, before[s], got)
		}
	}
	// The slot is reusable: a fresh occupant's announcement lands normally,
	// unimpeded by the departed member's higher sequence number.
	if !tb.Put(2, Row{Seq: 1, When: t0.Add(time.Hour), Entries: aliveRow(9, 9, 0, 9)}) {
		t.Error("Put into retired slot rejected")
	}
}

func TestDirectionalTableGrowAndRetire(t *testing.T) {
	tb := NewDirectionalTable(4)
	tb.PutAsym(0, AsymRow{Seq: 1, When: t0, Entries: asymAliveRow([][2]int{{0, 0}, {10, 12}, {20, 22}, {7, 7}})})
	tb.PutAsym(1, AsymRow{Seq: 1, When: t0, Entries: asymAliveRow([][2]int{{10, 12}, {0, 0}, {5, 6}, {7, 7}})})
	// Row 2 already reads slot 1 dead in both directions: retiring 1 must
	// not touch it.
	ents := asymAliveRow([][2]int{{20, 22}, {0, 0}, {0, 0}, {7, 7}})
	ents[1] = wire.AsymEntry{Status: wire.StatusDead}
	tb.PutAsym(2, AsymRow{Seq: 1, When: t0, Entries: ents})
	before := snapshotTable(tb)

	tb.Grow(5)
	if tb.N() != 5 {
		t.Fatalf("N = %d", tb.N())
	}
	for s := range before {
		before[s].out = append(before[s].out, wire.InfCost)
		before[s].in = append(before[s].in, wire.InfCost)
		if got := snapshotSlot(tb, s); !reflect.DeepEqual(got, before[s]) {
			t.Errorf("Grow disturbed slot %d: %+v -> %+v", s, before[s], got)
		}
	}

	tb.RetireSlot(1)
	if tb.Have(1) {
		t.Error("retired slot still has a row")
	}
	want0 := before[0]
	want0.out = []wire.Cost{0, wire.InfCost, 20, 7, wire.InfCost}
	want0.in = []wire.Cost{0, wire.InfCost, 22, 7, wire.InfCost}
	if got := snapshotSlot(tb, 0); !reflect.DeepEqual(got, want0) {
		t.Errorf("row 0 after retire: %+v, want %+v", got, want0)
	}
	if got := snapshotSlot(tb, 2); !reflect.DeepEqual(got, before[2]) {
		t.Errorf("row 2 already read slot 1 dead but changed: %+v -> %+v", before[2], got)
	}
}

func asymAliveRow(costs [][2]int) []wire.AsymEntry {
	r := make([]wire.AsymEntry, len(costs))
	for i, c := range costs {
		r[i] = wire.AsymEntry{Out: uint16(c[0]), In: uint16(c[1]), Status: wire.MakeStatus(true, 0)}
	}
	return r
}

// TestExpireKeepsSequenceGuard: releasing a row nobody can read any more gives
// back its cost storage and nothing else. The slot still remembers what it
// last accepted — if it forgot, a delayed lower-sequence duplicate would be
// stored as new and stamped fresh — and the next real announcement lands in
// storage of its own, in both directions of a directional table.
func TestExpireKeepsSequenceGuard(t *testing.T) {
	const maxAge = 45 * time.Second
	for _, directional := range []bool{false, true} {
		tb := NewTable(3)
		put := func(slot int, seq uint32, when time.Time, lat int) bool {
			return tb.Put(slot, Row{Seq: seq, When: when, Entries: aliveRow(0, lat, lat)})
		}
		if directional {
			tb = NewDirectionalTable(3)
			put = func(slot int, seq uint32, when time.Time, lat int) bool {
				e := aentry(lat, lat+1, true)
				return tb.PutAsym(slot, AsymRow{Seq: seq, When: when, Entries: []wire.AsymEntry{{}, e, e}})
			}
		}
		put(0, 7, t0, 10)
		put(1, 3, t0.Add(30*time.Second), 20)

		tb.Expire(t0.Add(maxAge), maxAge) // exactly maxAge old: FreshAt still says yes
		if tb.Stored() != 2 {
			t.Fatalf("directional=%v: a row FreshAt(maxAge) still accepts was released", directional)
		}
		now := t0.Add(maxAge + time.Nanosecond)
		tb.Expire(now, maxAge)
		if tb.Stored() != 1 || tb.OutRow(1)[1] != 20 {
			t.Fatalf("directional=%v: %d rows stored after expiring one of two", directional, tb.Stored())
		}
		if !tb.Have(0) || tb.Seq(0) != 7 || !tb.When(0).Equal(t0) || tb.FreshAt(0, now, maxAge) {
			t.Errorf("directional=%v: released slot: have=%v seq=%d when=%v", directional, tb.Have(0), tb.Seq(0), tb.When(0))
		}
		for _, row := range [][]wire.Cost{tb.OutRow(0), tb.InRow(0)} {
			for h, c := range row {
				if c != wire.InfCost {
					t.Errorf("directional=%v: released row still reads cost %d toward %d", directional, c, h)
				}
			}
		}
		if put(0, 6, now, 99) {
			t.Error("a lower-sequence duplicate was accepted after the release")
		}
		if put(0, 7, t0.Add(-time.Second), 99) {
			t.Error("an equal-sequence, older duplicate was accepted after the release")
		}
		if tb.Stored() != 1 {
			t.Error("a refused duplicate allocated storage")
		}
		if !put(0, 8, now, 40) || tb.Stored() != 2 || tb.OutRow(0)[1] != 40 || !tb.FreshAt(0, now, maxAge) {
			t.Errorf("directional=%v: newer row after the release: stored=%d costs=%v", directional, tb.Stored(), tb.OutRow(0))
		}
		if directional && tb.InRow(0)[1] != 41 {
			t.Errorf("in-direction not re-allocated: %v", tb.InRow(0))
		}
		// A released row is skipped by Grow and needs nothing of RetireSlot.
		tb.Expire(now.Add(time.Hour), maxAge)
		tb.Grow(5)
		tb.RetireSlot(1)
		if tb.Stored() != 0 || len(tb.OutRow(0)) != 5 || tb.Have(1) || !tb.Have(0) {
			t.Errorf("directional=%v: grow/retire over released rows: stored=%d", directional, tb.Stored())
		}
	}
}

// N returns the number of slots in the view.
func (t *Table) N() int { return t.n }

// N returns the number of slots in the view.
func (m *CostMatrix) N() int { return m.n }
