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

// rowsOf returns the row core a router embeds: the tests of its rules run
// over both routers.
func rowsOf(r Router) *rowCore {
	switch r := r.(type) {
	case *Quorum:
		return &r.rowCore
	case *FullMesh:
		return &r.rowCore
	}
	panic("unknown router")
}

// The non-stable install is one test over both routers: the row core's cold
// install is checked through each, and each router's own state beside it.
func TestQuorumSetViewNonStableGoesCold(t *testing.T) { testSetViewNonStableGoesCold(t, "quorum") }

func TestFullMeshSetViewNonStableGoesCold(t *testing.T) { testSetViewNonStableGoesCold(t, "fullmesh") }

func testSetViewNonStableGoesCold(t *testing.T, algo string) {
	for _, tc := range nonStableInstalls {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 9, 5, algo, QuorumConfig{})
			r, rows := c.routers[0], rowsOf(c.routers[0])
			env := &countingEnv{SimEnv: c.envs[0]}
			rows.env = env
			c.nw.RunFor(3 * time.Minute)
			seq, extends, remaps := rows.seq, rows.viewExtends, rows.viewRemaps
			if env.sent == 0 || !rows.table.Have(1) {
				t.Fatalf("router holds no state to lose: sent %d rows, holds slot 1's: %v", env.sent, rows.table.Have(1))
			}
			var stats QuorumStats
			var recomputes uint64
			switch r := r.(type) {
			case *Quorum:
				if stats = r.Stats(); stats.PairsComputed == 0 {
					t.Fatalf("router computed no pairs: %+v", stats)
				}
				r.failovers = []failoverState{{dst: 4, server: 7, tried: map[int]bool{7: true}}}
			case *FullMesh:
				if recomputes = r.recomputes; recomputes == 0 {
					t.Fatal("router never recomputed")
				}
			}
			next := slotView(t, 2, tc.ids...)
			if err := r.SetView(next, tc.self); err != nil {
				t.Fatal(err)
			}
			fresh := newRouter(t, algo, env, QuorumConfig{}, next, tc.self)
			freshRows := rowsOf(fresh)
			if got, want := []any{rows.view, rows.self, rows.table, rows.routes}, []any{freshRows.view, freshRows.self, freshRows.table, freshRows.routes}; !reflect.DeepEqual(got, want) {
				t.Errorf("rows after a non-stable install differ from a fresh router's:\n got %+v\nwant %+v", got, want)
			}
			if rows.seq != seq || rows.viewExtends != extends || rows.viewRemaps != remaps+1 {
				t.Errorf("seq %d extends %d remaps %d, want %d %d %d", rows.seq, rows.viewExtends, rows.viewRemaps, seq, extends, remaps+1)
			}
			switch r := r.(type) {
			case *Quorum:
				f := fresh.(*Quorum)
				if got, want := []any{r.g, r.rv, r.failovers, r.pendingAcks, r.live}, []any{f.g, f.rv, f.failovers, f.pendingAcks, f.live}; !reflect.DeepEqual(got, want) {
					t.Errorf("state after a non-stable install differs from a fresh router's:\n got %+v\nwant %+v", got, want)
				}
				stats.ViewRemaps++
				if after := r.Stats(); after != stats {
					t.Errorf("counters = %+v, want %+v", after, stats)
				}
			case *FullMesh:
				if r.recomputes != recomputes {
					t.Errorf("recomputes = %d, want %d", r.recomputes, recomputes)
				}
				// The scratch buffers are dead weight, not state: the next
				// recompute has a fresh router's result.
				for _, rows := range []*rowCore{rows, freshRows} {
					rows.SelfRow = func() []wire.LinkEntry { return make([]wire.LinkEntry, next.Slots()) }
				}
				r.recompute()
				fresh.(*FullMesh).recompute()
				if !reflect.DeepEqual(rows.routes, freshRows.routes) {
					t.Errorf("first recompute after a cold install differs from a fresh router's:\n got %+v\nwant %+v", rows.routes, freshRows.routes)
				}
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

// The stable install is one test over both routers: the row core keeps every
// row and route the change left alone and drops the rest, checked through
// each; the quorum's silence clocks and failover episodes are its own extra
// check.
func TestQuorumSetViewStableKeepsState(t *testing.T) { testSetViewStableKeepsState(t, "quorum") }

func TestFullMeshSetViewStableKeepsState(t *testing.T) { testSetViewStableKeepsState(t, "fullmesh") }

func testSetViewStableKeepsState(t *testing.T, algo string) {
	env, nw := soloEnv()
	// A 3×3 grid seen from its corner: rows {0 1 2} {3 4 5} {6 7 8}.
	r := newRouter(t, algo, env, QuorumConfig{Interval: 15 * time.Second}, slotView(t, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8), 0)
	rows := rowsOf(r)
	q, _ := r.(*Quorum) // nil for the full mesh
	// Stored rows and live routes: to ID 2 via ID 3, to ID 6 direct.
	began := env.Now()
	if !rows.table.Put(3, lsdb.Row{Seq: 3, When: began, Entries: aliveRow(9, 3)}) ||
		!rows.table.Put(6, lsdb.Row{Seq: 7, When: began, Entries: aliveRow(9, 6)}) {
		t.Fatal("rows not stored")
	}
	rows.routes[2] = route{hop: 3, cost: 30, when: began.UnixNano(), from: 3, source: SourceRendezvous}
	rows.routes[6] = route{hop: 6, cost: 40, when: began.UnixNano(), from: 3, source: SourceRendezvous}
	nw.RunFor(10 * time.Second)
	var was map[[2]int]int64
	var hadDeputy bool
	if q != nil {
		// Every pairing has been heard from since the view began, each at its
		// own moment, and an episode toward slot 8 has tried slots 2 and 5.
		for i := range q.rv.heard {
			q.rv.heard[i] = env.Now().UnixNano() + int64(i)
		}
		was, hadDeputy = clocks(q), q.rv.clock(5, 4) != nil
		q.failovers = []failoverState{
			{dst: 3, server: 4, tried: map[int]bool{4: true}},
			{dst: 8, server: 5, heard: 77, tried: map[int]bool{2: true, 5: true}},
		}
	}

	// ID 2 leaves behind a tombstone, ID 3 is replaced in its slot by ID 20,
	// ID 9 joins at a new slot: nobody moves.
	nw.RunFor(10 * time.Second)
	installed := env.Now().UnixNano()
	if err := r.SetView(slotView(t, 2, 0, 1, wire.NilNode, 20, 4, 5, 6, 7, 8, 9), 0); err != nil {
		t.Fatal(err)
	}
	if rows.viewExtends != 1 || rows.viewRemaps != 0 {
		t.Fatalf("extends=%d remaps=%d, want 1/0", rows.viewExtends, rows.viewRemaps)
	}
	// The route to the departed member, through the departed hop, is dropped;
	// the one the departed member merely recommended survives in place with
	// its provenance cleared.
	if rows.routes[2].entry().Source != SourceNone {
		t.Errorf("route through the departed hop survived: %+v", rows.routes[2].entry())
	}
	if e := rows.routes[6].entry(); e.Source != SourceRendezvous || e.Hop != 6 || e.Cost != 40 || e.From != -1 {
		t.Errorf("unaffected route = %+v, want hop 6 cost 40 from -1", e)
	}
	// The departed member's row is gone; the survivor's keeps its slot and
	// sequence number, reads the departed member dead and the newcomer
	// unknown, and everyone else as before.
	if rows.table.Have(3) {
		t.Error("departed member's row survived")
	}
	if !rows.table.Have(6) || rows.table.Seq(6) != 7 || !rows.table.When(6).Equal(began) {
		t.Fatalf("survivor's row: have %v seq %d when %v, want seq 7 received at %v",
			rows.table.Have(6), rows.table.Seq(6), rows.table.When(6), began)
	}
	if r := rows.table.OutRow(6); r[4] != 50 || r[3] != wire.InfCost || r[9] != wire.InfCost {
		t.Errorf("survivor's costs to 4/3/9 = %d/%d/%d, want 50/Inf/Inf", r[4], r[3], r[9])
	}
	if len(rows.table.OutRow(0)) != 10 || len(rows.routes) != 10 || cap(rows.routes) != 10 {
		t.Errorf("slot space not extended to exactly 10: table %d routes %d (cap %d)",
			len(rows.table.OutRow(0)), len(rows.routes), cap(rows.routes))
	}
	if q == nil {
		return
	}

	if st := q.Stats(); st.ViewExtends != 1 || st.ViewRemaps != 0 || cap(q.live) != 10 {
		t.Errorf("stats extends=%d remaps=%d, want 1/0; liveness %d slots, want 10", st.ViewExtends, st.ViewRemaps, cap(q.live))
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
	if len(q.failovers) != 1 {
		t.Errorf("episodes %+v, want only the one toward slot 8", q.failovers)
	}
	if i, ok := q.episode(8); !ok || q.failovers[i].server != 5 || q.failovers[i].heard != 77 || !reflect.DeepEqual(q.failovers[i].tried, map[int]bool{5: true}) {
		t.Errorf("surviving episodes = %+v, want toward 8: server 5 heard 77 tried {5}", q.failovers)
	}
}
