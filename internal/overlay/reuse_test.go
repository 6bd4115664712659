package overlay

import (
	"slices"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/membership"
	"allpairs/internal/wire"
)

// TestReusedSlotInheritsNothing hands slot 8 of a 3×3 quorum fleet from
// member A to member B in one step, the way a receiver that skipped the view
// in between (where the slot was a tombstone) sees it, and then delivers
// everything the fleet sent two receivers during A's last 20 s: A's last
// rows, recommendations and probe replies, the other members' rows and
// recommendations that speak of A, and a reply under B's ID to a probe sent
// to A (what B's host answers if it took over A's address). One receiver is
// already on B's view when the traffic arrives; the other is still on A's,
// and installs B's after it and then gets the traffic again. Neither may
// attribute anything of A's to B (inheritsNothing).
//
// Four gates keep it so, and removing any one of them fails this test: the
// view-version checks on rows (rowCore.ingest; a delta of A's finds no row
// before it held once the slot is retired) and on recommendations
// (Quorum.HandleRecommendation), the probe reply's match against the slot's
// current ID and awaited seq (Prober.HandleReply), and
// membership.StableExtension retiring a slot whose occupant changed.
func TestReusedSlotInheritsNothing(t *testing.T) {
	const (
		a, b = 8, 9 // A holds slot 8 in view 1, B in view 3
		s    = 8
		// The receivers share A's grid column, so A's rows and
		// recommendations reach both, and each is the other's rendezvous
		// for slot 8: its run-form recommendations name the slot by
		// position, not by ID.
		behind, current = 2, 5
	)
	nw, nodes := staticFleet(t, 9, AlgQuorum, 3)
	// Slow direct links to A make each receiver's best route to A a detour
	// through a third member, which a recommendation names by ID: a route
	// whose hop is A itself names an ID B's view does not hold.
	for _, r := range []int{behind, current} {
		nw.SetLatency(r, a, 300*time.Millisecond)
		nw.SetLatency(a, r, 300*time.Millisecond)
	}
	nw.RunFor(2 * time.Minute)

	// From here on everything sent to the receivers stays in flight; the
	// test keeps a copy and delivers it by hand.
	held := map[int][][]byte{}
	nw.OnSend = func(from, to int, payload []byte) {
		if to == behind || to == current {
			held[to] = append(held[to], slices.Clone(payload))
		}
	}
	for _, r := range []int{behind, current} {
		for x := range nodes {
			if x != r {
				nw.SetLatencyOneWay(x, r, time.Hour)
			}
		}
	}
	nw.RunFor(20 * time.Second)
	nodes[a].Halt()
	nw.OnSend = nil

	// B's host answers a probe it received at A's old address under its own
	// ID: add that reply beside each of A's.
	for _, r := range []int{behind, current} {
		fromA, fromOther := map[wire.MsgType]int{}, 0
		for _, p := range held[r] {
			h, body, err := wire.ParseHeader(p)
			if err == nil && h.Type == wire.TRecommendation && int(h.Src) == behind+current-r {
				fromOther++
			}
			if err != nil || h.Src != a {
				continue
			}
			fromA[h.Type]++
			if h.Type == wire.TProbeReply {
				reply, err := wire.ParseProbeReply(body)
				if err != nil {
					t.Fatal(err)
				}
				held[r] = append(held[r], wire.AppendProbeReply(nil, b, reply))
			}
		}
		fromA[wire.TLinkState] += fromA[wire.TLinkStateDelta] // a row after the view's first is a delta
		for _, typ := range []wire.MsgType{wire.TLinkState, wire.TRecommendation, wire.TProbeReply} {
			if fromA[typ] == 0 {
				t.Fatalf("receiver %d: A sent it no %v in its last 20 s", r, typ)
			}
		}
		if fromOther == 0 {
			t.Fatalf("receiver %d: the other receiver sent it no recommendation in A's last 20 s", r)
		}
	}
	deliver := func(r int) {
		for _, p := range held[r] {
			nodes[r].handlePacket(wire.NilNode, p)
		}
	}

	ids := make([]wire.NodeID, 9)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	ids[s] = b
	next := viewOf(t, 3, ids)

	if err := nodes[current].installView(next); err != nil {
		t.Fatal(err)
	}
	deliver(current)
	inheritsNothing(t, "receiver on B's view", nodes[current], s)

	// The receiver still on A's view takes A's traffic as A's; installing
	// B's view must then drop all of it.
	deliver(behind)
	q := nodes[behind].Router().(*core.Quorum)
	if !q.Table().Have(s) || q.Routes()[s].Source == core.SourceNone {
		t.Fatal("receiver on A's view did not take A's row and a route to A")
	}
	if err := nodes[behind].installView(next); err != nil {
		t.Fatal(err)
	}
	inheritsNothing(t, "receiver that installed B's view after A's traffic", nodes[behind], s)
	deliver(behind)
	inheritsNothing(t, "receiver that installed B's view, A's traffic again", nodes[behind], s)
}

// viewOf builds the epoch-1 view at version whose slot i holds ids[i].
func viewOf(t *testing.T, version uint32, ids []wire.NodeID) *membership.ViewInfo {
	t.Helper()
	v := wire.View{Epoch: 1, Version: version, Slots: uint16(len(ids))}
	for i, id := range ids {
		v.Members = append(v.Members, wire.Member{ID: id, Slot: uint16(i)})
	}
	vi, err := membership.NewViewInfo(v)
	if err != nil {
		t.Fatal(err)
	}
	return vi
}

// inheritsNothing is the invariant "nothing a slot's previous occupant sent
// is attributed to its next one", checked on a quorum node whose slot s
// holds an occupant that has sent it nothing yet: the node holds no row from
// s and no cost toward s in any row, no route to s, through s or
// recommended by s, and no measurement of its link to s.
func inheritsNothing(t *testing.T, who string, n *Node, s int) {
	t.Helper()
	table := n.Router().(*core.Quorum).Table()
	if table.Have(s) {
		t.Errorf("%s: holds a row for slot %d", who, s)
	}
	for slot := range n.View().Slots() {
		if table.Have(slot) && table.OutRow(slot)[s] != wire.InfCost {
			t.Errorf("%s: slot %d's row has cost %d toward slot %d", who, slot, table.OutRow(slot)[s], s)
		}
	}
	for dst, e := range n.Router().Routes() {
		if e.Source != core.SourceNone && (dst == s || e.Hop == s || e.From == s) {
			t.Errorf("%s: route to slot %d via %d from %d (%v) involves slot %d", who, dst, e.Hop, e.From, e.Source, s)
		}
	}
	if e := n.Prober().Row()[s]; e != (wire.LinkEntry{Status: wire.StatusDead}) {
		t.Errorf("%s: measured its link to slot %d: %+v", who, s, e)
	}
}
