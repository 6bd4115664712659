package core

import (
	"reflect"
	"testing"
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// slotView builds a view whose slot s holds ids[s]; wire.NilNode leaves a
// tombstone.
func slotView(t *testing.T, version uint32, ids ...wire.NodeID) *membership.ViewInfo {
	t.Helper()
	v := wire.View{Epoch: 1, Version: version, Slots: uint16(len(ids))}
	for s, id := range ids {
		if id != wire.NilNode {
			v.Members = append(v.Members, wire.Member{ID: id, Slot: uint16(s)})
		}
	}
	vi, err := membership.NewViewInfo(v)
	if err != nil {
		t.Fatal(err)
	}
	return vi
}

// nonStableInstalls are the three ways a re-install can fail to be a stable
// extension of the 9-node static view {0..8} as seen by node 0 at slot 0.
// Each must leave a router exactly as a fresh one on the same view.
var nonStableInstalls = []struct {
	name string
	ids  []wire.NodeID
	self int
}{
	{"survivor moves slot", []wire.NodeID{0, 1, 2, 5, 4, 3, 6, 7, 8}, 0},
	{"slot space shrinks", []wire.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, 0},
	{"own slot changes", []wire.NodeID{wire.NilNode, 1, 2, 3, 4, 5, 6, 7, 8, 0}, 9},
}

func TestQuorumSetViewNonStableGoesCold(t *testing.T) {
	viewState := func(q *Quorum) []any {
		return []any{q.view, q.self, q.g, q.table, q.routes,
			q.rv, q.failovers, q.pendingAcks, q.live}
	}
	for _, tc := range nonStableInstalls {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 9, 5, "quorum", QuorumConfig{})
			c.nw.RunFor(2 * time.Minute)
			q := c.routers[0].(*Quorum)
			before, seq := q.Stats(), q.seq
			if before.LinkStatesSent == 0 || before.PairsComputed == 0 {
				t.Fatalf("router holds no state to lose: %+v", before)
			}
			q.failovers[4] = &failoverState{server: 7, tried: map[int]bool{7: true}}
			next := slotView(t, 2, tc.ids...)
			if err := q.SetView(next, tc.self); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewQuorum(q.env, q.cfg, next, tc.self)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := viewState(q), viewState(fresh); !reflect.DeepEqual(got, want) {
				t.Errorf("state after a non-stable install differs from a fresh router's:\n got %+v\nwant %+v", got, want)
			}
			before.ViewRemaps++
			if after := q.Stats(); after != before || q.seq != seq {
				t.Errorf("counters = %+v seq %d, want %+v seq %d", after, q.seq, before, seq)
			}
		})
	}
}

func TestFullMeshSetViewNonStableGoesCold(t *testing.T) {
	type counters struct{ sent, recomputes, extends, remaps, seq uint64 }
	read := func(f *FullMesh) (c counters) {
		c.sent, c.seq, c.recomputes = f.LinkStatesSent(), uint64(f.seq), f.stats.recomputes
		c.extends, c.remaps = f.ViewChangeStats()
		return c
	}
	for _, tc := range nonStableInstalls {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 9, 5, "fullmesh", QuorumConfig{})
			c.nw.RunFor(3 * time.Minute)
			f := c.routers[0].(*FullMesh)
			before := read(f)
			if before.sent == 0 || before.recomputes == 0 || !f.table.Have(1) {
				t.Fatalf("router holds no state to lose: %+v", before)
			}
			next := slotView(t, 2, tc.ids...)
			f.SetView(next, tc.self)
			fresh := NewFullMesh(f.env, f.cfg, next, tc.self)
			for _, r := range []*FullMesh{f, fresh} {
				r.SelfRow = func() []wire.LinkEntry { return make([]wire.LinkEntry, next.Slots()) }
			}
			if !reflect.DeepEqual(f.table, fresh.table) || !reflect.DeepEqual(f.routes, fresh.routes) {
				t.Error("state after a non-stable install differs from a fresh router's")
			}
			before.remaps++
			if after := read(f); after != before {
				t.Errorf("counters = %+v, want %+v", after, before)
			}
			// The scratch buffers are dead weight, not state: the next
			// recompute has a fresh router's result.
			f.recompute()
			fresh.recompute()
			if !reflect.DeepEqual(f.routes, fresh.routes) {
				t.Errorf("first recompute after a cold install differs from a fresh router's:\n got %+v\nwant %+v", f.routes, fresh.routes)
			}
		})
	}
}

// soloEnv returns an Env for node 0 of a network nobody else is on, and the
// network, whose RunFor moves the Env's clock.
func soloEnv() (*transport.SimEnv, *simnet.Network) {
	nw := simnet.New(1, 1)
	env := transport.NewSimEnv(nw, transport.NewRegistry(), 0, 1)
	env.SetLocalID(0)
	return env, nw
}

// aliveRow returns an n-entry row of self's, entry i alive at 10·(i+1) ms.
func aliveRow(n, self int) []wire.LinkEntry {
	row := make([]wire.LinkEntry, n)
	for i := range row {
		row[i] = wire.LinkEntry{Latency: uint16(10 * (i + 1)), Status: wire.MakeStatus(true, 0)}
	}
	return lsdb.SelfRow(self, row)
}

func TestQuorumSetViewStableKeepsState(t *testing.T) {
	env, nw := soloEnv()
	// A 3×3 grid seen from its corner: rows {0 1 2} {3 4 5} {6 7 8}.
	q, err := NewQuorum(env, QuorumConfig{Interval: 15 * time.Second}, slotView(t, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stored client rows and live routes: to ID 2 via ID 3, to ID 6 direct.
	began := env.Now()
	if !q.table.Put(3, lsdb.Row{Seq: 3, When: began, Entries: aliveRow(9, 3)}) ||
		!q.table.Put(6, lsdb.Row{Seq: 7, When: began, Entries: aliveRow(9, 6)}) {
		t.Fatal("rows not stored")
	}
	q.routes[2] = route{hop: 3, cost: 30, when: began.UnixNano(), from: 3, source: SourceRendezvous}
	q.routes[6] = route{hop: 6, cost: 40, when: began.UnixNano(), from: 3, source: SourceRendezvous}
	// Every pairing has been heard from since the view began, each at its own
	// moment, and an episode toward slot 8 has tried slots 2 and 5.
	nw.RunFor(10 * time.Second)
	for i := range q.rv.heard {
		q.rv.heard[i] = env.Now().UnixNano() + int64(i)
	}
	was, hadDeputy := clocks(q), q.rv.clock(5, 4) != nil
	q.failovers[8] = &failoverState{server: 5, heard: 77, tried: map[int]bool{2: true, 5: true}}
	q.failovers[3] = &failoverState{server: 4, tried: map[int]bool{4: true}}

	// ID 2 leaves behind a tombstone, ID 3 is replaced in its slot by ID 20,
	// ID 9 joins at a new slot: nobody moves.
	nw.RunFor(10 * time.Second)
	installed := env.Now().UnixNano()
	if err := q.SetView(slotView(t, 2, 0, 1, wire.NilNode, 20, 4, 5, 6, 7, 8, 9), 0); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.ViewExtends != 1 || st.ViewRemaps != 0 {
		t.Fatalf("extends=%d remaps=%d, want 1/0", st.ViewExtends, st.ViewRemaps)
	}
	// The route via the departed hop is dropped; the one it merely
	// recommended survives in place with its provenance cleared.
	if q.routes[2].entry().Source != SourceNone {
		t.Errorf("route through the departed hop survived: %+v", q.routes[2].entry())
	}
	if e := q.routes[6].entry(); e.Source != SourceRendezvous || e.Hop != 6 || e.Cost != 40 || e.From != -1 {
		t.Errorf("unaffected route = %+v, want hop 6 cost 40 from -1", e)
	}
	// The departed client's row is gone; the survivor's keeps its slot and
	// sequence number, reads the departed member dead and the newcomer
	// unknown, and everyone else as before.
	if q.table.Have(3) {
		t.Error("departed member's row survived")
	}
	if !q.table.Have(6) || q.table.Seq(6) != 7 || !q.table.When(6).Equal(began) {
		t.Fatalf("survivor's row: have %v seq %d when %v, want seq 7 received at %v",
			q.table.Have(6), q.table.Seq(6), q.table.When(6), began)
	}
	if r := q.table.OutRow(6); r[4] != 50 || r[3] != wire.InfCost || r[9] != wire.InfCost {
		t.Errorf("survivor's costs to 4/3/9 = %d/%d/%d, want 50/Inf/Inf", r[4], r[3], r[9])
	}
	if q.table.N() != 10 || cap(q.routes) != 10 || cap(q.failovers) != 10 || cap(q.live) != 10 {
		t.Errorf("slot space not extended to exactly 10: table %d routes %d failovers %d liveness %d",
			q.table.N(), cap(q.routes), cap(q.failovers), cap(q.live))
	}

	// The silence table is the new grid's common sets less this node. A
	// pairing both views hold, neither end retired, keeps its clock; every
	// other — toward or through the reused slot 3, toward the newcomer 9, a
	// deputy standing in for the tombstone — starts at the install.
	retired := map[int]bool{2: true, 3: true}
	kept, fresh := 0, 0
	for dst := 0; dst < 10; dst++ {
		var want []pairing
		for _, k := range q.g.Common(0, dst) {
			if k == 0 || dst == 2 {
				continue
			}
			heard := installed
			if old, ok := was[[2]int{dst, k}]; ok && !retired[dst] && !retired[k] {
				heard = old
			}
			if heard == installed {
				fresh++
			} else {
				kept++
			}
			want = append(want, pairing{slot: k, heard: heard})
		}
		if got := pairingsToward(q, dst); !reflect.DeepEqual(got, want) {
			t.Errorf("pairings toward slot %d = %v, want %v", dst, got, want)
		}
	}
	if kept == 0 || fresh == 0 {
		t.Fatalf("%d clocks kept, %d started: one arm never ran", kept, fresh)
	}
	for _, tc := range []struct {
		dst, k int
		keeps  bool
		why    string
	}{
		{4, 1, true, "survives the install"},
		{7, 6, true, "survives the install"},
		{4, 3, false, "the rendezvous's slot was reused"},
		{3, 6, false, "the destination's slot was reused"},
		{9, 1, false, "the destination is new"},
	} {
		p := q.rv.clock(tc.k, tc.dst)
		if p == nil {
			t.Fatalf("no pairing (%d, %d)", tc.dst, tc.k)
		}
		if (*p != installed) != tc.keeps {
			t.Errorf("pairing (%d, %d) heard %d, install at %d: %s", tc.dst, tc.k, *p, installed, tc.why)
		}
	}
	// Slot 5 stands in for the tombstone as column 2's deputy: a pairing the
	// old view did not have.
	if p := q.rv.clock(5, 4); hadDeputy || p == nil || *p != installed {
		t.Errorf("deputy pairing (4, 5) = %v (held before: %v), want a new one started at the install", p, hadDeputy)
	}

	// Failover episodes: the one toward the reused slot is gone, the other
	// keeps its server and clock and forgets only the retired slot it tried.
	if q.failovers[3] != nil || q.failovers[2] != nil {
		t.Error("an episode toward a retired slot survived")
	}
	if fo := q.failovers[8]; fo == nil || fo.server != 5 || fo.heard != 77 || !reflect.DeepEqual(fo.tried, map[int]bool{5: true}) {
		t.Errorf("surviving episode = %+v, want server 5 heard 77 tried {5}", fo)
	}
}

func TestFullMeshSetViewStableKeepsState(t *testing.T) {
	env, _ := soloEnv()
	f := NewFullMesh(env, FullMeshConfig{}, slotView(t, 1, 0, 1, 2), 0)
	now := env.Now()
	f.routes[1] = route{hop: 1, cost: 10, when: now.UnixNano(), from: -1, source: SourceSelf}
	f.routes[2] = route{hop: 2, cost: 25, when: now.UnixNano(), from: -1, source: SourceSelf}
	f.table.Put(2, lsdb.Row{Seq: 2, When: now, Entries: aliveRow(3, 2)})

	f.SetView(slotView(t, 2, 0, wire.NilNode, 2, 7), 0)
	if extends, remaps := f.ViewChangeStats(); extends != 1 || remaps != 0 {
		t.Fatalf("extends=%d remaps=%d, want 1/0", extends, remaps)
	}
	if f.routes[1].entry().Source != SourceNone {
		t.Errorf("route to the departed member survived: %+v", f.routes[1].entry())
	}
	if e := f.routes[2].entry(); e.Source != SourceSelf || e.Hop != 2 || e.Cost != 25 {
		t.Errorf("unaffected route = %+v", e)
	}
	if !f.table.Have(2) || f.table.Seq(2) != 2 || f.table.OutRow(2)[1] != wire.InfCost {
		t.Errorf("survivor's row: have %v seq %d costs %v", f.table.Have(2), f.table.Seq(2), f.table.OutRow(2))
	}
	if f.table.N() != 4 || len(f.routes) != 4 {
		t.Errorf("slot space not extended: table %d routes %d", f.table.N(), len(f.routes))
	}
}
