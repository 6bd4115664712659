package core

import (
	"reflect"
	"testing"
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/wire"
)

// parkRow encodes src's row at (version, seq) for view: an entry per member,
// member-packed, whose costs vary with src, seq, bias and the entry, a few
// dead.
func parkRow(view *membership.ViewInfo, src wire.NodeID, seq uint32, bias int) []byte {
	entries := make([]wire.LinkEntry, len(view.Members()))
	for i := range entries {
		v := int(src)*7 + int(seq)*13 + i*5 + bias
		entries[i] = wire.LinkEntry{Latency: uint16(1 + v%40), Status: wire.MakeStatus(v%11 != 0, 0)}
	}
	return wire.AppendLinkState(nil, src, wire.LinkState{ViewVersion: view.VersionNum(), Seq: seq, Entries: entries})
}

// TestParkedRowsAreUnobservable feeds a full mesh, which parks rows until its
// table is read, a scripted sequence of rows — a duplicate, a lower sequence
// number, an equal one arriving later with other costs, rows of a view with
// tombstones, a stable view extension and later a cold install between
// arrivals, and more rows than slots with no read in between — and a
// reference lsdb.Table the same rows the moment each arrives. Read through
// Table, the full mesh's table equals the reference after each install and
// at the end, and the tick's routes are the reference's.
func TestParkedRowsAreUnobservable(t *testing.T) {
	env, nw := soloEnv()
	view := slotView(t, 1, 0, 1, 2, 3, wire.NilNode, 5, 6, 7, 8)
	f := NewFullMesh(env, FullMeshConfig{}, view, 0)
	ref := lsdb.NewTable(view.Slots())
	ref.SetTombstones(view.Tombstones())

	deliver := func(src wire.NodeID, seq uint32, bias int) {
		t.Helper()
		msg := parkRow(view, src, seq, bias)
		h, body, err := wire.ParseHeader(msg)
		if err != nil {
			t.Fatal(err)
		}
		f.HandleLinkState(h, body)
		_, _, entries, err := wire.LinkStateBody(h.Type, body)
		slot, ok := view.SlotOf(src)
		if err != nil || !ok {
			t.Fatalf("row from %d: slot %d ok %v err %v", src, slot, ok, err)
		}
		ref.PutWire(slot, seq, env.Now(), entries)
		if len(f.parked) == 0 || cap(f.parked) != view.Slots() {
			t.Fatalf("after a row from %d, %d rows parked in a list of %d, view of %d slots", src, len(f.parked), cap(f.parked), view.Slots())
		}
	}
	same := func(when string) {
		t.Helper()
		if got := f.Table(); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: parked table differs from the eager one:\n got %+v\nwant %+v", when, got, ref)
		}
	}

	// Rows of a view with a tombstone at slot 4.
	nw.RunFor(time.Second)
	deliver(3, 5, 0)
	deliver(5, 2, 0)
	deliver(5, 2, 0) // a duplicate
	nw.RunFor(time.Second)
	deliver(3, 5, 0) // the same sequence number later, with the same costs
	deliver(6, 1, 0)
	deliver(3, 4, 0) // a lower sequence number
	nw.RunFor(time.Second)
	deliver(7, 3, 0)
	deliver(5, 2, 0)

	// A stable extension: 40 fills the tombstone, 6 leaves one, 9 joins at a
	// new slot. The rows parked under view 1 apply by its slots.
	view = slotView(t, 2, 0, 1, 2, 3, 40, 5, wire.NilNode, 7, 8, 9)
	if len(f.parked) != 8 {
		t.Fatalf("%d rows parked before the install, want 8", len(f.parked))
	}
	if err := f.SetView(view, 0); err != nil {
		t.Fatal(err)
	}
	ref.Grow(view.Slots())
	ref.RetireSlot(6)
	ref.SetTombstones(view.Tombstones())
	same("after the stable extension")

	nw.RunFor(time.Second)
	deliver(40, 1, 0)
	deliver(9, 1, 0)
	deliver(3, 6, 0)
	nw.RunFor(time.Second)
	deliver(3, 6, 1) // an equal sequence number later, now with other costs
	same("under the extended view")

	nw.RunFor(time.Second)
	deliver(5, 9, 0)
	deliver(8, 2, 0)

	// A cold install: the slot space shrinks and 3 and 5 trade slots.
	view = slotView(t, 3, 0, 1, 2, 5, 40, 3, 7, 8, 9)
	if err := f.SetView(view, 0); err != nil {
		t.Fatal(err)
	}
	ref = lsdb.NewTable(view.Slots())
	ref.SetTombstones(view.Tombstones())
	same("after the cold install")

	// Four rounds from every other member, out of order and twice over in
	// places — more rows than the view has slots — and nothing reads.
	for round := uint32(1); round <= 4; round++ {
		nw.RunFor(time.Second)
		for _, m := range view.Members() {
			if m.Slot == 0 {
				continue
			}
			deliver(m.ID, round*2, 0)
			if m.Slot%3 == 0 {
				deliver(m.ID, round*2-1, 0)
				deliver(m.ID, round*2, 0)
			}
		}
	}
	same("after more rows than slots")

	// With no route installed, BestHop's fallback reads the rows parked since,
	// and the tick's routes are the reference's best one-hop routes.
	self := aliveRow(view.Slots(), 0)
	selfCosts := lsdb.UnpackCosts(nil, self)
	f.SelfRow = func() []wire.LinkEntry { return self }
	nw.RunFor(time.Second)
	deliver(7, 9, 0)
	deliver(1, 9, 0)
	now := env.Now()
	for dst := 1; dst < view.Slots(); dst++ {
		hop, cost := ref.BestOneHopVia(selfCosts, dst, now, f.cfg.Staleness)
		if e, ok := f.BestHop(dst); !ok || e.Hop != hop || e.Cost != cost || e.Source != SourceFallback {
			t.Errorf("fallback to %d = %+v, reference hop %d cost %d", dst, e, hop, cost)
		}
	}
	deliver(8, 9, 0)
	f.Tick()
	ref.Expire(now, f.cfg.Staleness)
	out := make([]lsdb.HopCost, view.Slots())
	ref.BestOneHopViaAll(selfCosts, now, f.cfg.Staleness, out)
	got, relayed := f.Routes(), 0
	for dst, hc := range out {
		want := RouteEntry{}
		if dst != 0 && hc.Hop >= 0 {
			want = RouteEntry{Hop: hc.Hop, Cost: hc.Cost, When: now, From: -1, Source: SourceSelf}
		}
		if g := got[dst]; g.Hop != want.Hop || g.Cost != want.Cost || !g.When.Equal(want.When) || g.From != want.From || g.Source != want.Source {
			t.Errorf("route to %d = %+v, reference %+v", dst, g, want)
		}
		if hc.Hop >= 0 && hc.Hop != dst {
			relayed++
		}
	}
	if relayed == 0 {
		t.Errorf("no route goes through an intermediary, the rows decided nothing: %+v", out)
	}
}
