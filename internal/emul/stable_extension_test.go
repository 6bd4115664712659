package emul

import (
	"net/netip"
	"testing"

	"allpairs/internal/core"
	"allpairs/internal/grid"
	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/probe"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// slottedView builds an n-slot view occupied by member IDs slot+1 (slot s →
// ID s+1), with extras overriding or extending specific slots. Tombstones are
// requested by listing the slot in dead.
func slottedView(t *testing.T, version uint32, slots int, dead []int, extras ...wire.Member) *membership.ViewInfo {
	t.Helper()
	tomb := make(map[int]bool, len(dead))
	for _, s := range dead {
		tomb[s] = true
	}
	var ms []wire.Member
	for s := 0; s < slots; s++ {
		if tomb[s] {
			continue
		}
		override := false
		for _, e := range extras {
			if int(e.Slot) == s {
				override = true
			}
		}
		if override {
			continue
		}
		ms = append(ms, wire.Member{
			ID:   wire.NodeID(s + 1),
			Slot: uint16(s),
			Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(s >> 8), byte(s), 1}), 4400),
		})
	}
	ms = append(ms, extras...)
	v, err := membership.NewViewInfo(wire.View{Epoch: 1, Version: version, Slots: uint16(slots), Members: ms})
	if err != nil {
		t.Fatalf("slottedView: %v", err)
	}
	return v
}

// TestJoinAtScaleIsStableExtension is the tentpole acceptance check at
// n = 2000: a single join extends the slot space by one and must leave every
// unaffected member's state bit-for-bit untouched — stored lsdb rows, their
// generation counters, the route table, and the probe row — with both
// routers taking the stable-extension fast path (zero remaps). A follow-up
// leave tombstones one slot and must disturb generations only for the rows
// that actually held a live cost toward the departed member.
func TestJoinAtScaleIsStableExtension(t *testing.T) {
	const n = 2000
	const self = 0
	nw := simnet.New(1, 1)
	reg := transport.NewRegistry()
	env := transport.NewSimEnv(nw, reg, 0, 1)
	env.SetLocalID(wire.NodeID(self + 1))

	v1 := slottedView(t, 1, n, nil)
	q, err := core.NewQuorum(env, core.QuorumConfig{}, v1, self)
	if err != nil {
		t.Fatal(err)
	}
	fm := core.NewFullMesh(env, core.FullMeshConfig{}, v1, self)
	p := probe.New(env, probe.Config{}, v1, self)

	// Seed stored rows for a spread of origins so generation preservation is
	// checked against real content, not just zeros. Origin 100's row holds a
	// live cost toward slot 17 (the later leave must bump its generation);
	// origin 200's entry about 17 is dead (its generation must hold).
	seedRow := func(tab *lsdb.Table, origin int, live ...int) {
		entries := make([]wire.LinkEntry, n)
		for i := range entries {
			entries[i] = wire.LinkEntry{Status: wire.StatusDead}
		}
		entries[origin] = wire.LinkEntry{Status: wire.MakeStatus(true, 0)}
		for _, s := range live {
			entries[s] = wire.LinkEntry{Latency: uint16(10 + s%50), Status: wire.MakeStatus(true, 0)}
		}
		if !tab.Put(origin, lsdb.Row{Seq: 1, When: env.Now(), Entries: entries}) {
			t.Fatalf("seed row for origin %d rejected", origin)
		}
	}
	for _, tab := range []*lsdb.Table{q.Table(), fm.Table()} {
		seedRow(tab, 100, 17, 44, 999)
		seedRow(tab, 200, 44, 1500)
		seedRow(tab, 1999, 3)
	}

	snapshotGens := func(tab *lsdb.Table) []uint32 {
		g := make([]uint32, n)
		for s := 0; s < n; s++ {
			g[s] = tab.Gen(s)
		}
		return g
	}
	qGens, fGens := snapshotGens(q.Table()), snapshotGens(fm.Table())
	rowBefore := append([]wire.LinkEntry(nil), p.Row()...)
	row100 := append([]wire.Cost(nil), q.Table().OutRow(100)...)

	// The join: member 9001 lands in appended slot 2000.
	v2 := slottedView(t, 2, n+1, nil, wire.Member{
		ID: 9001, Slot: n,
		Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 99, 99, 1}), 4400),
	})
	if err := q.SetView(v2, self); err != nil {
		t.Fatal(err)
	}
	fm.SetView(v2, self)
	p.SetView(v2, self)

	if st := q.Stats(); st.ViewExtends != 1 || st.ViewRemaps != 0 {
		t.Fatalf("quorum join: extends=%d remaps=%d, want 1/0", st.ViewExtends, st.ViewRemaps)
	}
	if ext, rem := fm.ViewChangeStats(); ext != 1 || rem != 0 {
		t.Fatalf("fullmesh join: extends=%d remaps=%d, want 1/0", ext, rem)
	}
	for s := 0; s < n; s++ {
		if got := q.Table().Gen(s); got != qGens[s] {
			t.Fatalf("quorum gen[%d] = %d after join, want %d (unaffected member disturbed)", s, got, qGens[s])
		}
		if got := fm.Table().Gen(s); got != fGens[s] {
			t.Fatalf("fullmesh gen[%d] = %d after join, want %d", s, got, fGens[s])
		}
	}
	for s, c := range row100 {
		if q.Table().OutRow(100)[s] != c {
			t.Fatalf("stored row cost changed at entry %d across join", s)
		}
	}
	if got := q.Table().OutRow(100); len(got) != n+1 || got[n] != wire.InfCost {
		t.Fatalf("stored row not padded unreachable toward the new slot: len %d", len(got))
	}
	for s, e := range rowBefore {
		if p.Row()[s] != e {
			t.Fatalf("probe row entry %d changed across join", s)
		}
	}
	if got := len(p.Row()); got != n+1 {
		t.Fatalf("probe row length = %d after join, want %d", got, n+1)
	}

	// The leave: member 18 (slot 17) departs; the slot becomes a tombstone.
	v3 := slottedView(t, 3, n+1, []int{17}, wire.Member{
		ID: 9001, Slot: n,
		Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 99, 99, 1}), 4400),
	})
	if err := q.SetView(v3, self); err != nil {
		t.Fatal(err)
	}
	fm.SetView(v3, self)
	p.SetView(v3, self)

	if st := q.Stats(); st.ViewExtends != 2 || st.ViewRemaps != 0 {
		t.Fatalf("quorum leave: extends=%d remaps=%d, want 2/0", st.ViewExtends, st.ViewRemaps)
	}
	// Generations move for exactly: the retired slot (row dropped) and rows
	// holding a live cost toward it (origin 100). Origin 200 and 1999 held
	// no live entry about slot 17 and must be untouched.
	for _, tab := range []*lsdb.Table{q.Table(), fm.Table()} {
		if tab.Have(17) {
			t.Fatal("retired slot still has a stored row")
		}
		if !tab.Have(100) || tab.OutRow(100)[17] != wire.InfCost {
			t.Fatal("surviving row still names the departed member alive")
		}
	}
	for _, s := range []int{200, 1999, 44, 999, 1500} {
		if got := q.Table().Gen(s); got != qGens[s] {
			t.Fatalf("quorum gen[%d] = %d after leave, want %d (row without live cost to 17 disturbed)", s, got, qGens[s])
		}
	}
	if got := q.Table().Gen(100); got == qGens[100] {
		t.Fatal("quorum gen[100] did not advance although its row lost a live entry")
	}
	if p.Alive(17) {
		t.Fatal("probe still believes the tombstoned slot alive")
	}
}

// TestJoinShiftsFewRendezvousPairs quantifies the tentpole's O(1)-per-member
// churn claim at the grid level: one join at n = 2000 (slot space 2000 →
// 2001) may change the rendezvous server sets of at most a few grid lines —
// O(√n) slots fleet-wide, O(1) relationships per member — instead of
// remapping every pair the way the dense sorted-ID views did.
func TestJoinShiftsFewRendezvousPairs(t *testing.T) {
	const n = 2000
	g1, err := grid.New(n)
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]bool, n+1)
	for i := range occ {
		occ[i] = true
	}
	g2, err := grid.NewMasked(n+1, occ)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for s := 0; s < n; s++ {
		if !equalServerSets(g1.Servers(s), g2.Servers(s)) {
			changed++
		}
	}
	// The new slot's row and column plus blank-compensation adjustments:
	// generously, six grid lines.
	root := 1
	for root*root < n+1 {
		root++
	}
	if bound := 6 * root; changed > bound {
		t.Fatalf("join changed %d server sets, want ≤ %d (O(√n))", changed, bound)
	}
	if changed == 0 {
		t.Fatal("join changed no server sets; the new slot is not being served")
	}
	t.Logf("join at n=%d changed %d of %d server sets (bound %d)", n, changed, n, 6*root)
}

func equalServerSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
