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
		return []any{q.view, q.self, q.g, q.table, q.routes, q.servers, q.defaults,
			q.lastRecAbout, q.failovers, q.pendingAcks, q.started}
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

// soloEnv returns an Env for node 0 of a network nobody else is on.
func soloEnv() *transport.SimEnv {
	env := transport.NewSimEnv(simnet.New(1, 1), transport.NewRegistry(), 0, 1)
	env.SetLocalID(0)
	return env
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
	env := soloEnv()
	q, err := NewQuorum(env, QuorumConfig{Interval: 15 * time.Second}, slotView(t, 1, 0, 1, 2, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stored client rows and live routes: to ID 2 via ID 1, to ID 3 direct.
	now := env.Now()
	if !q.table.Put(1, lsdb.Row{Seq: 3, When: now, Entries: aliveRow(4, 1)}) ||
		!q.table.Put(2, lsdb.Row{Seq: 7, When: now, Entries: aliveRow(4, 2)}) {
		t.Fatal("rows not stored")
	}
	q.routes[2] = RouteEntry{Hop: 1, Cost: 30, When: now, From: 1, Source: SourceRendezvous}
	q.routes[3] = RouteEntry{Hop: 3, Cost: 40, When: now, From: 1, Source: SourceRendezvous}
	q.lastRecAbout[1] = make([]time.Time, 4)
	q.lastRecAbout[2] = []time.Time{{}, now, {}, now}

	// ID 1 leaves behind a tombstone, ID 9 joins at a new slot: nobody moves.
	if err := q.SetView(slotView(t, 2, 0, wire.NilNode, 2, 3, 9), 0); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.ViewExtends != 1 || st.ViewRemaps != 0 {
		t.Fatalf("extends=%d remaps=%d, want 1/0", st.ViewExtends, st.ViewRemaps)
	}
	// The route via the departed hop is dropped; the one it merely
	// recommended survives in place with its provenance cleared.
	if q.routes[2].Source != SourceNone {
		t.Errorf("route through the departed hop survived: %+v", q.routes[2])
	}
	if e := q.routes[3]; e.Source != SourceRendezvous || e.Hop != 3 || e.Cost != 40 || e.From != -1 {
		t.Errorf("unaffected route = %+v, want hop 3 cost 40 from -1", e)
	}
	// The departed client's row and silence tracking are gone; the
	// survivor's row keeps its slot and sequence number, reads the departed
	// member dead and the newcomer unknown, and everyone else as before.
	if q.table.Have(1) {
		t.Error("departed member's row survived")
	}
	if _, ok := q.lastRecAbout[1]; ok {
		t.Error("lastRecAbout kept the departed rendezvous")
	}
	if about := q.lastRecAbout[2]; len(about) != 5 || !about[1].IsZero() || !about[3].Equal(now) {
		t.Errorf("surviving rendezvous's silence tracking = %v", about)
	}
	if !q.table.Have(2) || q.table.Seq(2) != 7 || !q.table.When(2).Equal(now) {
		t.Fatalf("survivor's row: have %v seq %d when %v, want seq 7 received at %v",
			q.table.Have(2), q.table.Seq(2), q.table.When(2), now)
	}
	if r := q.table.OutRow(2); r[3] != 40 || r[1] != wire.InfCost || r[4] != wire.InfCost {
		t.Errorf("survivor's costs to 3/1/4 = %d/%d/%d, want 40/Inf/Inf", r[3], r[1], r[4])
	}
	if q.table.N() != 5 || len(q.routes) != 5 || q.defaults[1] != nil || q.defaults[4] == nil {
		t.Errorf("slot space not extended: table %d routes %d", q.table.N(), len(q.routes))
	}
}

func TestFullMeshSetViewStableKeepsState(t *testing.T) {
	env := soloEnv()
	f := NewFullMesh(env, FullMeshConfig{}, slotView(t, 1, 0, 1, 2), 0)
	now := env.Now()
	f.routes[1] = RouteEntry{Hop: 1, Cost: 10, When: now, From: -1, Source: SourceSelf}
	f.routes[2] = RouteEntry{Hop: 2, Cost: 25, When: now, From: -1, Source: SourceSelf}
	f.table.Put(2, lsdb.Row{Seq: 2, When: now, Entries: aliveRow(3, 2)})

	f.SetView(slotView(t, 2, 0, wire.NilNode, 2, 7), 0)
	if extends, remaps := f.ViewChangeStats(); extends != 1 || remaps != 0 {
		t.Fatalf("extends=%d remaps=%d, want 1/0", extends, remaps)
	}
	if f.routes[1].Source != SourceNone {
		t.Errorf("route to the departed member survived: %+v", f.routes[1])
	}
	if e := f.routes[2]; e.Source != SourceSelf || e.Hop != 2 || e.Cost != 25 {
		t.Errorf("unaffected route = %+v", e)
	}
	if !f.table.Have(2) || f.table.Seq(2) != 2 || f.table.OutRow(2)[1] != wire.InfCost {
		t.Errorf("survivor's row: have %v seq %d costs %v", f.table.Have(2), f.table.Seq(2), f.table.OutRow(2))
	}
	if f.table.N() != 4 || len(f.routes) != 4 {
		t.Errorf("slot space not extended: table %d routes %d", f.table.N(), len(f.routes))
	}
}
