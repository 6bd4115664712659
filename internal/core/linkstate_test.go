package core

import (
	"slices"
	"testing"
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// countingEnv counts what its router sends, and sends it.
type countingEnv struct {
	*transport.SimEnv
	sent int
}

func (e *countingEnv) Send(to wire.NodeID, payload []byte) {
	e.sent++
	e.SimEnv.Send(to, payload)
}

// rowMessage encodes a k-entry row from src at (version, seq), every entry
// alive at cost: a TLinkStateAsym row when asym, else a TLinkState one.
func rowMessage(asym bool, src wire.NodeID, version, seq uint32, k int, cost uint16) []byte {
	if asym {
		entries := make([]wire.AsymEntry, k)
		for i := range entries {
			entries[i] = wire.AsymEntry{Out: cost, In: cost + 1}
		}
		return wire.AppendLinkStateAsym(nil, src, wire.LinkStateAsym{ViewVersion: version, Seq: seq, Entries: entries})
	}
	entries := make([]wire.LinkEntry, k)
	for i := range entries {
		entries[i] = wire.LinkEntry{Latency: cost}
	}
	return wire.AppendLinkState(nil, src, wire.LinkState{ViewVersion: version, Seq: seq, Entries: entries})
}

// TestStrangerLinkStateTouchesNothing: a link-state row that is not a current
// member's, in this router's row format, built against this view, with one
// entry per member, leaves both routers exactly as it found them — no table
// field or row byte, no ack, no allocation — and the sender is judged before
// anything of the body is. The view holds a tombstone, so a row with an entry
// per slot is malformed, and a row of another view with as many members is
// told apart by its version alone. A full mesh, which sends no deltas, drops
// a member's link-state ack the same way. A well-formed refresh of a row the
// table holds allocates nothing either.
func TestStrangerLinkStateTouchesNothing(t *testing.T) {
	const n, m, version = 9, 8, 5 // slots, members
	for _, tc := range []struct {
		name           string
		asym, reliable bool
		fullMesh       bool
	}{
		{name: "quorum", reliable: true},
		{name: "quorum-asym", asym: true, reliable: true},
		{name: "fullmesh", fullMesh: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, nw := soloEnv()
			env := &countingEnv{SimEnv: sim}
			view := slotView(t, version, 0, 1, 2, 3, wire.NilNode, 5, 6, 7, 8)
			var router Router
			var table func() *lsdb.Table // the table, every row delivered so far applied
			if tc.fullMesh {
				f := NewFullMesh(env, FullMeshConfig{}, view, 0)
				router, table = f, f.Table
			} else {
				q, err := NewQuorum(env, QuorumConfig{Asymmetric: tc.asym, ReliableLinkState: tc.reliable}, view, 0)
				if err != nil {
					t.Fatal(err)
				}
				router, table = q, q.Table
			}
			deliver := func(msg []byte) {
				h, body, err := wire.ParseHeader(msg)
				if err != nil {
					t.Fatal(err)
				}
				router.HandleLinkState(h, body)
			}
			type state struct {
				have         []bool
				seq          []uint32
				when         []time.Time
				out, in      [][]wire.Cost
				stored, sent int
			}
			snapshot := func() (s state) {
				for slot := 0; slot < n; slot++ {
					s.have = append(s.have, table().Have(slot))
					s.seq = append(s.seq, table().Seq(slot))
					s.when = append(s.when, table().When(slot))
					s.out = append(s.out, slices.Clone(table().OutRow(slot)))
					s.in = append(s.in, slices.Clone(table().InRow(slot)))
				}
				s.stored, s.sent = table().Stored(), env.sent
				return s
			}
			same := func(a, b state) bool {
				return slices.Equal(a.have, b.have) && slices.Equal(a.seq, b.seq) &&
					slices.EqualFunc(a.when, b.when, time.Time.Equal) &&
					slices.EqualFunc(a.out, b.out, slices.Equal[[]wire.Cost]) &&
					slices.EqualFunc(a.in, b.in, slices.Equal[[]wire.Cost]) &&
					a.stored == b.stored && a.sent == b.sent
			}

			// Slot 3's row is held, so there are bytes to leave alone.
			nw.RunFor(10 * time.Second)
			deliver(rowMessage(tc.asym, 3, version, 2, m, 40))
			if !table().Have(3) || table().Seq(3) != 2 || table().OutRow(3)[1] != 40 || table().OutRow(3)[5] != 40 || table().OutRow(3)[4] != wire.InfCost {
				t.Fatalf("a member's well-formed row was not stored slot by slot: %v", table().OutRow(3))
			}
			if acks := env.sent; (acks == 1) != tc.reliable {
				t.Fatalf("%d acks for an accepted row, reliable=%v", acks, tc.reliable)
			}
			nw.RunFor(time.Second)
			before := snapshot()

			// Each carries a higher sequence number than the table holds and
			// costs it does not: only the named defect stands between it and
			// the table.
			good := rowMessage(tc.asym, 3, version, 9, m, 77)
			hostiles := []struct {
				defect string
				msg    []byte
			}{
				{"unknown sender", rowMessage(tc.asym, 77, version, 9, m, 77)},
				{"self as sender", rowMessage(tc.asym, 0, version, 9, m, 77)},
				{"stale view version", rowMessage(tc.asym, 3, version-1, 9, m, 77)},
				{"future view version", rowMessage(tc.asym, 3, version+1, 9, m, 77)},
				{"another view with as many members", rowMessage(tc.asym, 3, version+7, 9, m, 77)},
				{"one entry per slot", rowMessage(tc.asym, 3, version, 9, n, 77)},
				{"one entry short", rowMessage(tc.asym, 3, version, 9, m-1, 77)},
				{"one entry long", rowMessage(tc.asym, 3, version, 9, m+1, 77)},
				{"truncated entries", good[:len(good)-1]},
				{"truncated header", good[:wire.HeaderLen+7]},
				{"wrong row format", rowMessage(!tc.asym, 3, version, 9, m, 77)},
			}
			if tc.fullMesh {
				hostiles = append(hostiles, struct {
					defect string
					msg    []byte
				}{"a link-state ack", wire.AppendLinkStateAck(nil, 3, 0)})
			}
			for _, hostile := range hostiles {
				h, body, err := wire.ParseHeader(hostile.msg)
				if err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(100, func() { router.HandleLinkState(h, body) })
				if after := snapshot(); !same(before, after) {
					t.Errorf("%s: the table or the send count changed:\n got %+v\nwant %+v", hostile.defect, after, before)
					before = after // judge the next defect on its own
				}
				if allocs != 0 {
					t.Errorf("%s: handling it allocates %.0f times, want 0", hostile.defect, allocs)
				}
			}

			// The same row without a defect is taken, acknowledged when that is
			// on, and — the ack aside — costs no allocation to take again.
			deliver(good)
			if table().Seq(3) != 9 || !table().When(3).Equal(env.Now()) || table().OutRow(3)[1] != 77 || table().Stored() != 1 {
				t.Errorf("refresh not stored: seq=%d when=%v row=%v", table().Seq(3), table().When(3), table().OutRow(3))
			}
			if acks := env.sent - before.sent; (acks == 1) != tc.reliable {
				t.Errorf("%d acks for the refresh, reliable=%v", acks, tc.reliable)
			}
			if q, ok := router.(*Quorum); ok {
				q.cfg.ReliableLinkState = false
			}
			h, body, _ := wire.ParseHeader(good)
			if allocs := testing.AllocsPerRun(100, func() { router.HandleLinkState(h, body) }); allocs != 0 {
				t.Errorf("refreshing a held row allocates %.0f times, want 0", allocs)
			}
		})
	}
}
