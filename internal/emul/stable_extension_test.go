package emul

import (
	"net/netip"
	"slices"
	"testing"
	"time"

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
// unaffected member's state bit-for-bit untouched — stored lsdb rows with
// their sequence numbers and receive times, and the probe row — with both
// routers taking the stable-extension fast path (zero remaps). A follow-up
// leave tombstones one slot and must rewrite only the rows that actually
// held a live cost toward the departed member, and only in that column.
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

	// Seed stored rows for a spread of origins so preservation is checked
	// against real content, not just zeros. Origin 100's row holds a live
	// cost toward slot 17 (the later leave must rewrite that column);
	// origin 200's entry about 17 is dead (its row must hold).
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

	// rowState is everything a table holds for one slot, copied out.
	type rowState struct {
		have bool
		seq  uint32
		when time.Time
		out  []wire.Cost
	}
	snapshot := func(tab *lsdb.Table) []rowState {
		rows := make([]rowState, n)
		for s := range rows {
			rows[s] = rowState{have: tab.Have(s), seq: tab.Seq(s), when: tab.When(s)}
			if rows[s].have {
				rows[s].out = append([]wire.Cost(nil), tab.OutRow(s)...)
			}
		}
		return rows
	}
	// sameRows holds tab to a snapshot in every slot: the stored rows equal
	// want's, extended by padded unreachable entries, and no slot gained or
	// lost a row.
	sameRows := func(when, name string, tab *lsdb.Table, want []rowState, padded int) {
		t.Helper()
		for s, w := range want {
			if tab.Have(s) != w.have || tab.Seq(s) != w.seq || !tab.When(s).Equal(w.when) {
				t.Fatalf("%s %s: slot %d metadata = (%v, %d, %v), want (%v, %d, %v)",
					name, when, s, tab.Have(s), tab.Seq(s), tab.When(s), w.have, w.seq, w.when)
			}
			if !w.have {
				continue
			}
			got := tab.OutRow(s)
			if len(got) != len(w.out)+padded || !slices.Equal(got[:len(w.out)], w.out) {
				t.Fatalf("%s %s: stored row %d changed (len %d, want %d)", name, when, s, len(got), len(w.out)+padded)
			}
			for _, c := range got[len(w.out):] {
				if c != wire.InfCost {
					t.Fatalf("%s %s: stored row %d not padded unreachable toward the new slot", name, when, s)
				}
			}
		}
	}
	qRows, fRows := snapshot(q.Table()), snapshot(fm.Table())
	rowBefore := append([]wire.LinkEntry(nil), p.Row()...)

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
	sameRows("after join", "quorum", q.Table(), qRows, 1)
	sameRows("after join", "fullmesh", fm.Table(), fRows, 1)
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
	// Exactly one stored cost moves: origin 100's live cost toward the
	// retired slot (which held no row of its own). Origins 200 and 1999 held
	// no live entry about slot 17 and must be untouched, as must every slot
	// that never had a row.
	for _, w := range [][]rowState{qRows, fRows} {
		if w[100].out[17] == wire.InfCost {
			t.Fatal("origin 100 held no live cost toward slot 17 before the leave")
		}
		w[100].out[17] = wire.InfCost
	}
	sameRows("after leave", "quorum", q.Table(), qRows, 1)
	sameRows("after leave", "fullmesh", fm.Table(), fRows, 1)
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
