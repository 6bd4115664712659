package membership

import (
	"encoding/binary"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// gossipTo hands one gossip envelope straight to a client, as if from the
// primary; Hops 0 keeps it from forwarding.
func gossipTo(cl *Client, d wire.ViewDelta) {
	h, body, _ := wire.ParseHeader(wire.AppendGossipDelta(nil, CoordinatorID, wire.GossipDelta{Delta: d}))
	cl.HandlePacket(h, body)
}

// TestPullReplyFitsADatagram: a peer whose log holds 16 deltas of 500 adds
// each (≈ 80 KB together) answers a pull with as many as fit one datagram,
// and the puller catches up over successive pulls without a refused send or
// a coordinator pull. A first delta too large for a datagram is answered with
// the snapshot instead.
func TestPullReplyFitsADatagram(t *testing.T) {
	const deltas, adds = wire.MaxPullDeltas, 500
	sc := newSimCluster(t, 2, ClientConfig{}, CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(5 * time.Second)
	base := sc.views[1]
	if base == nil || base.N() != 2 {
		t.Fatalf("warm-up view = %v", base)
	}
	// Every added member lives at client 1's endpoint, so whichever member
	// client 0 pulls, client 1 answers.
	log := make([]wire.ViewDelta, deltas)
	for i := range log {
		d := wire.ViewDelta{Epoch: base.Stamp().Epoch, BaseVersion: base.VersionNum() + uint32(i), Version: base.VersionNum() + uint32(i) + 1}
		for j := 0; j < adds; j++ {
			s := 2 + i*adds + j
			d.Adds = append(d.Adds, wire.Member{ID: wire.NodeID(100 + s), Slot: uint16(s), Addr: sc.envs[1].LocalAddr()})
		}
		log[i] = d
		gossipTo(sc.clients[1], d)
	}
	if whole := wire.ViewPullReplySize(log); whole <= wire.MaxDatagram {
		t.Fatalf("the whole log fits one reply (%d bytes); the shape tests nothing", whole)
	}
	want := sc.views[1].Stamp()
	largest := 0
	sc.nw.OnSend = func(from, to int, p []byte) { largest = max(largest, len(p)) }
	gossipTo(sc.clients[0], log[deltas-1]) // client 0 hears only the last
	sc.nw.RunFor(10 * time.Second)
	st := sc.clients[0].Stats()
	if got := sc.views[0].Stamp(); got != want {
		t.Fatalf("puller at %v, want %v; stats %+v", got, want, st)
	}
	if largest > wire.MaxDatagram || sc.envs[1].SendErrors() != 0 {
		t.Errorf("largest datagram %d bytes (ceiling %d), %d refused", largest, wire.MaxDatagram, sc.envs[1].SendErrors())
	}
	if st.PullsSent < 2 || st.FullViewRequests != 0 || st.GapsBridged != 1 {
		t.Errorf("caught up with %d peer pulls, %d coordinator pulls, %d gaps bridged; want ≥ 2, 0, 1", st.PullsSent, st.FullViewRequests, st.GapsBridged)
	}

	// One delta past the ceiling on its own: the answer is the snapshot.
	huge := wire.ViewDelta{Epoch: 1, BaseVersion: 1, Version: 2, Adds: make([]wire.Member, (wire.MaxDatagram+wire.ViewChunkMembers)/10)}
	vi := NewStaticView([]wire.NodeID{0, 1})
	packets := answerPull(0, wire.ViewStamp{Epoch: 1, Version: 2}, vi, []wire.ViewDelta{huge}, wire.ViewStamp{Epoch: 1, Version: 1})
	if len(packets) != 1 || wire.PeekType(packets[0]) != wire.TViewChunk {
		t.Errorf("a pull for one oversize delta got %d datagrams; want the one-chunk snapshot", len(packets))
	}
}

// TestGapsCloseFromPeerSnapshots: a gap no delta log can bridge — one that
// crosses an election, or reaches further back than deltaLogLen — closes
// from a peer's snapshot, without a pull to the coordinator.
func TestGapsCloseFromPeerSnapshots(t *testing.T) {
	t.Run("across an epoch", func(t *testing.T) {
		cfg := churnClientCfg()
		rc := newRepCluster(t, 3, 2, cfg, fastCoordCfg(t))
		routeEvery(rc.nw, rc.clients, rc.envs, 5*time.Second)
		for _, cl := range rc.clients {
			cl.Start()
		}
		rc.nw.RunFor(8 * time.Second)
		// Client 0 is cut off while rank 1 promotes, so it misses the new
		// reign's snapshot; its peers' routing versions tell it after the
		// heal.
		rc.nw.SetNodeDown(0, true)
		rc.coords[0].Stop()
		rc.nw.RunFor(15 * time.Second)
		if !rc.coords[1].IsPrimary() || rc.views[1].Stamp() != rc.coords[1].Stamp() {
			t.Fatalf("rank 1 primary=%v at %v, client 1 at %v", rc.coords[1].IsPrimary(), rc.coords[1].Stamp(), rc.views[1].Stamp())
		}
		if rc.views[0].Stamp().Epoch != 1 {
			t.Fatalf("client 0 saw the new reign while cut off: %v", rc.views[0].Stamp())
		}
		served := rc.coords[1].Stats().FullViewsSent
		rc.nw.SetNodeDown(0, false)
		rc.nw.RunFor(3 * cfg.Heartbeat)
		st := rc.clients[0].Stats()
		if got := rc.views[0].Stamp(); got != rc.coords[1].Stamp() || st.FullViewRequests != 0 || st.GapsBridged != 1 {
			t.Errorf("client 0 at %v (want %v) after %d coordinator pulls, %d gaps bridged; want 0 and 1",
				got, rc.coords[1].Stamp(), st.FullViewRequests, st.GapsBridged)
		}
		if got := rc.coords[1].Stats().FullViewsSent - served; got != 0 {
			t.Errorf("the primary served %d snapshots after the heal, want 0", got)
		}
	})
	t.Run("past the delta log", func(t *testing.T) {
		sc := newSimCluster(t, 3, ClientConfig{}, CoordinatorConfig{})
		for _, cl := range sc.clients {
			cl.Start()
		}
		sc.nw.RunFor(5 * time.Second)
		v := sc.views[0]
		// deltaLogLen + 8 versions that add and remove member 70 in turn;
		// clients 1 and 2 hear them all, client 0 only the last.
		var d wire.ViewDelta
		for i := 0; i < deltaLogLen+8; i++ {
			d = wire.ViewDelta{Epoch: v.Stamp().Epoch, BaseVersion: v.VersionNum() + uint32(i), Version: v.VersionNum() + uint32(i) + 1}
			if i%2 == 0 {
				d.Adds = []wire.Member{{ID: 70, Slot: 3, Addr: sc.envs[1].LocalAddr()}}
			} else {
				d.Removes = []wire.NodeID{70}
			}
			gossipTo(sc.clients[1], d)
			gossipTo(sc.clients[2], d)
		}
		gossipTo(sc.clients[0], d)
		sc.nw.RunFor(10 * time.Second)
		st := sc.clients[0].Stats()
		if got := sc.views[0].Stamp(); got != sc.views[1].Stamp() || st.FullViewRequests != 0 || st.GapsBridged != 1 {
			t.Errorf("client 0 at %v (want %v) after %d coordinator pulls, %d gaps bridged; want 0 and 1",
				got, sc.views[1].Stamp(), st.FullViewRequests, st.GapsBridged)
		}
	})
}

// TestQuietMemberSendsOnlyHeartbeats: once the view stops changing, a member
// learns of nothing newer, so for ten heartbeat intervals the only datagram
// any member sends is its heartbeat — no pull goes out on a timer.
func TestQuietMemberSendsOnlyHeartbeats(t *testing.T) {
	const k = 4
	cfg := churnClientCfg()
	sc := newSimCluster(t, k, cfg, CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(5 * time.Second)
	sent := map[wire.MsgType]int{}
	sc.nw.OnSend = func(from, to int, p []byte) {
		if from < k {
			sent[wire.PeekType(p)]++
		}
	}
	sc.nw.RunFor(10 * cfg.Heartbeat)
	for i, v := range sc.views {
		if v == nil || v.Stamp() != sc.coord.Stamp() || v.N() != k {
			t.Fatalf("client %d did not converge on the coordinator's %d-member view", i, k)
		}
	}
	if len(sent) != 1 || sent[wire.THeartbeat] < k*9 {
		t.Errorf("members sent %v over ten heartbeat intervals, want only heartbeats (≥ %d)", sent, k*9)
	}
}

// TestLostSnapshotPieceRepairsAtOnce: a member handed one piece of a newer
// two-piece snapshot — its sibling lost — knows a newer view exists. It pulls
// from the peer that sent the piece and converges within a second, long
// before the next heartbeat (5 minutes) could have told it.
func TestLostSnapshotPieceRepairsAtOnce(t *testing.T) {
	const k = wire.ViewChunkMembers + 2 // a two-piece snapshot
	sc := newSimCluster(t, k, ClientConfig{}, CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(5 * time.Second)
	v := sc.views[1]
	if v == nil || v.N() != k || sc.views[0].Stamp() != v.Stamp() {
		t.Fatalf("warm-up: client 1 holds %v", v)
	}
	// Client 1 moves one version ahead; client 0 gets only the first piece of
	// client 1's snapshot of it.
	gossipTo(sc.clients[1], wire.ViewDelta{Epoch: v.Stamp().Epoch, BaseVersion: v.VersionNum(), Version: v.VersionNum() + 1,
		Adds: []wire.Member{{ID: 500, Slot: k, Addr: sc.envs[1].LocalAddr()}}})
	holder := sc.envs[1].LocalID()
	pieces := snapshotPackets(holder, sc.views[1].Stamp(), sc.views[1])
	if len(pieces) != 2 {
		t.Fatalf("snapshot of %d members in %d pieces, want 2", k+1, len(pieces))
	}
	pulledFrom := -1
	sc.nw.OnSend = func(from, to int, p []byte) {
		if from == 0 && wire.PeekType(p) == wire.TViewPull && pulledFrom < 0 {
			pulledFrom = to
		}
	}
	h, body, _ := wire.ParseHeader(pieces[0])
	sc.clients[0].HandlePacket(h, body)
	sc.nw.RunFor(time.Second)
	st := sc.clients[0].Stats()
	if got := sc.views[0].Stamp(); got != sc.views[1].Stamp() || pulledFrom != 1 || st.FullViewRequests != 0 {
		t.Errorf("client 0 at %v (want %v) a second after the piece; first pull to endpoint %d (want 1), %d coordinator pulls",
			got, sc.views[1].Stamp(), pulledFrom, st.FullViewRequests)
	}
}

// TestFirstRungAsksTheEvidence: a routing message stamped with a newer view
// version proves its sender holds that view, so the ladder's first rung asks
// that member — not a random one, who would most likely be as far behind.
func TestFirstRungAsksTheEvidence(t *testing.T) {
	const k, holder = 8, 5
	sc := newSimCluster(t, k, ClientConfig{}, CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(5 * time.Second)
	v := sc.views[holder]
	gossipTo(sc.clients[holder], wire.ViewDelta{Epoch: v.Stamp().Epoch, BaseVersion: v.VersionNum(), Version: v.VersionNum() + 1,
		Adds: []wire.Member{{ID: 500, Slot: k, Addr: sc.envs[holder].LocalAddr()}}})
	var pulled []int
	sc.nw.OnSend = func(from, to int, p []byte) {
		if from == 0 && wire.PeekType(p) == wire.TViewPull {
			pulled = append(pulled, to)
		}
	}
	sc.clients[0].HeardVersion(sc.envs[holder].LocalID(), v.VersionNum()+1)
	sc.nw.RunFor(time.Second)
	if len(pulled) != 1 || pulled[0] != holder || sc.views[0].Stamp() != sc.views[holder].Stamp() {
		t.Errorf("client 0 pulled endpoints %v and holds %v; want one pull, to %d, and %v", pulled, sc.views[0].Stamp(), holder, sc.views[holder].Stamp())
	}
}

// TestHostilePullsAdvanceNothing drives a member and a primary with
// well-formed but hostile membership traffic: pulls from strangers, routing
// versions far in the future, pulls claiming a future epoch, pull replies
// whose runs have gaps, replay an older epoch or do not apply, and snapshots
// no newer than the receiver's view.
// Nothing panics, the member's view only ever advances along a valid chain,
// no datagram passes the ceiling, and a stranger gets nothing at all — not a
// reply, not a snapshot, not even for the retired 11-byte TViewRequest.
func TestHostilePullsAdvanceNothing(t *testing.T) {
	sc := newSimCluster(t, 3, ClientConfig{}, CoordinatorConfig{})
	sc.clients[0].Start()
	sc.clients[1].Start()
	sc.nw.RunFor(5 * time.Second)
	v := sc.views[0]
	if v == nil || v.N() != 2 {
		t.Fatalf("warm-up view = %v", v)
	}
	const hostile, coordEP = 2, 3 // client 2 never starts; its endpoint sends the forgeries
	const stranger wire.NodeID = 500
	sc.reg.Register(stranger, hostile)
	member := sc.envs[1].LocalID()
	toStranger, answered, largest := 0, 0, 0
	var pulled []int
	sc.nw.OnSend = func(from, to int, p []byte) {
		largest = max(largest, len(p))
		if to == hostile {
			toStranger++
		}
		if t := wire.PeekType(p); from != hostile && (t == wire.TViewChunk || t == wire.TViewPullReply) {
			answered++
		}
		if from == 0 && wire.PeekType(p) == wire.TViewPull {
			pulled = append(pulled, to)
		}
	}
	send := func(to int, p []byte) {
		sc.nw.Send(hostile, to, p)
		sc.nw.RunFor(5 * time.Second)
	}
	pull := func(src wire.NodeID, have wire.ViewStamp) []byte {
		return wire.AppendStamped(nil, wire.TViewPull, src, have)
	}
	expect := func(stage string, want wire.ViewStamp, n int) {
		t.Helper()
		if got := sc.views[0]; got.Stamp() != want || got.N() != n {
			t.Errorf("%s: view at %v with %d members, want %v with %d", stage, got.Stamp(), got.N(), want, n)
		}
	}

	// Strangers.
	send(0, pull(stranger, wire.ViewStamp{}))
	send(coordEP, pull(stranger, wire.ViewStamp{}))
	viewRequest := binary.BigEndian.AppendUint64(wire.AppendHeader(nil, wire.TViewRequest, stranger), 0)
	send(coordEP, viewRequest)
	if toStranger != 0 || answered != 0 {
		t.Errorf("strangers drew %d datagrams (%d answers)", toStranger, answered)
	}

	// Routing traffic stamped with a far-future view version. A stranger's
	// moves no want, arms no pull and allocates nothing; a member's — twice —
	// arms exactly one rung, and that rung asks the member.
	cl, far := sc.clients[0], v.VersionNum()+1<<20
	want := cl.want
	if allocs := testing.AllocsPerRun(10, func() { cl.HeardVersion(stranger, far) }); allocs != 0 || cl.want != want || cl.pullPending {
		t.Errorf("a stranger's version moved want %v → %v, armed a pull: %v, allocated %.0f", want, cl.want, cl.pullPending, allocs)
	}
	cl.HeardVersion(member, far)
	cl.HeardVersion(member, far+1)
	sc.nw.RunFor(pullBackoff * 5 / 4) // past the first rung's window, short of the second's earliest firing
	if len(pulled) != 1 || pulled[0] != 1 {
		t.Errorf("a member's version drew pulls to endpoints %v, want one, to endpoint 1", pulled)
	}
	sc.nw.RunFor(5 * time.Second)
	expect("far-future routing versions", v.Stamp(), 2)

	// A member claiming a future epoch is owed nothing, by member or
	// primary; the claim only sends the asker's peer pulling (and nobody
	// answers those either, since nobody holds that epoch).
	future := wire.ViewStamp{Epoch: v.Stamp().Epoch + 7, Version: 1}
	send(0, pull(member, future))
	send(coordEP, pull(member, future))
	if answered != 0 {
		t.Errorf("a future-epoch claim drew %d answers", answered)
	}
	expect("future-epoch pull", v.Stamp(), 2)

	// Pull replies: a run with a gap applies up to the gap; a run replaying
	// an older epoch, or one that does not apply to the view, applies nothing.
	e, b := v.Stamp().Epoch, v.VersionNum()
	add70 := wire.ViewDelta{Epoch: e, BaseVersion: b, Version: b + 1, Adds: []wire.Member{{ID: 70, Slot: 2, Addr: sc.envs[1].LocalAddr()}}}
	reply := func(ds ...wire.ViewDelta) []byte {
		return wire.AppendViewPullReply(nil, member, wire.ViewPullReply{Stamp: wire.ViewStamp{Epoch: e, Version: b + 9}, Deltas: ds})
	}
	send(0, reply(add70, wire.ViewDelta{Epoch: e, BaseVersion: b + 2, Version: b + 3}))
	expect("gapped run", wire.ViewStamp{Epoch: e, Version: b + 1}, 3)
	send(0, reply(wire.ViewDelta{Epoch: e - 1, BaseVersion: b + 1, Version: b + 2, Removes: []wire.NodeID{70}}))
	expect("older-epoch run", wire.ViewStamp{Epoch: e, Version: b + 1}, 3)
	send(0, reply(wire.ViewDelta{Epoch: e, BaseVersion: b + 1, Version: b + 2, Removes: []wire.NodeID{99}}))
	expect("run removing a non-member", wire.ViewStamp{Epoch: e, Version: b + 1}, 3)

	// Snapshots no newer than the view the member holds.
	for _, stamp := range []wire.ViewStamp{v.Stamp(), {Epoch: e, Version: b + 1}} {
		send(0, wire.AppendViewChunk(nil, member, wire.ViewChunk{Stamp: stamp, TotalSlots: 1, TotalMembers: 1, Count: 1,
			Members: []wire.Member{{ID: member, Addr: sc.envs[1].LocalAddr()}}}))
	}
	expect("stale snapshots", wire.ViewStamp{Epoch: e, Version: b + 1}, 3)

	if toStranger != 0 || largest > wire.MaxDatagram {
		t.Errorf("%d datagrams to the stranger, largest %d bytes", toStranger, largest)
	}
	for i, env := range sc.envs {
		if env.SendErrors() != 0 {
			t.Errorf("client %d refused %d oversize sends", i, env.SendErrors())
		}
	}
}
