package membership

import (
	"testing"
	"time"

	"allpairs/internal/wire"
)

// walkGossipTree simulates a loss-free epidemic: the primary seeds, every
// receiving slot forwards from its own tree position, and the delivery count
// per slot is returned. Both sides compute the tree independently — exactly
// what the coordinator and clients do over the wire.
func walkGossipTree(n, f int, version uint32, isAdded func(slot int) bool) []int {
	r := gossipRotation(version, f, n)
	recv := make([]int, n)
	frontier := gossipTargets(n, -1, f, r, isAdded)
	for _, slot := range frontier {
		recv[slot]++
	}
	for len(frontier) > 0 {
		slot := frontier[0]
		frontier = frontier[1:]
		p := ((slot-r)%n + n) % n
		for _, s2 := range gossipTargets(n, p, f, r, isAdded) {
			recv[s2]++
			frontier = append(frontier, s2)
		}
	}
	return recv
}

func TestGossipTreeCoversEverySlotExactlyOnce(t *testing.T) {
	// Every non-root position has exactly one parent, so a loss-free
	// epidemic delivers each slot exactly once — the tree neither starves a
	// slot nor relies on the dedup cache for its base cost.
	for _, n := range []int{1, 2, 3, 5, 16, 33, 100} {
		for _, f := range []int{1, 2, 3, 5} {
			for _, version := range []uint32{0, 1, 7, 1 << 20} {
				recv := walkGossipTree(n, f, version, nil)
				for slot, got := range recv {
					if got != 1 {
						t.Fatalf("n=%d f=%d v=%d: slot %d delivered %d times, want 1",
							n, f, version, slot, got)
					}
				}
			}
		}
	}
}

func TestGossipTreeRotatesWithVersion(t *testing.T) {
	// Consecutive versions must seed different root slots, so repeated loss
	// at one member does not starve the same subtree every flush.
	n, f := 30, 3
	r1 := gossipRotation(1, f, n)
	r2 := gossipRotation(2, f, n)
	if r1 == r2 {
		t.Fatalf("rotation is version-invariant (r=%d)", r1)
	}
}

func TestGossipTreeSkipsAddedSlots(t *testing.T) {
	// Slots holding just-added members (full-view recipients, no delta to
	// forward) are skipped over and their children inherited: the added
	// slots receive nothing, everyone else still exactly one copy.
	n, f := 20, 3
	const version = 5
	r := gossipRotation(version, f, n)
	added := map[int]bool{
		(0 + r) % n: true, // a root position
		(4 + r) % n: true, // an interior position
	}
	recv := walkGossipTree(n, f, version, func(slot int) bool { return added[slot] })
	for slot, got := range recv {
		want := 1
		if added[slot] {
			want = 0
		}
		if got != want {
			t.Errorf("slot %d delivered %d times, want %d", slot, got, want)
		}
	}
}

func TestGossipDuplicateDeltaSuppressed(t *testing.T) {
	// The dedup cache is the epidemic's terminator: a duplicated gossip
	// envelope (link-level duplication, or two tree paths) is counted,
	// applied at most once, and never re-forwarded.
	sc := newSimCluster(t, 3, ClientConfig{}, CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(10 * time.Second)
	cl := sc.clients[0]
	v := sc.views[0]
	if v == nil || v.N() != 3 {
		t.Fatalf("initial view = %+v", v)
	}
	d := wire.ViewDelta{
		Epoch:       v.Stamp().Epoch,
		BaseVersion: v.VersionNum(),
		Version:     v.VersionNum() + 1,
		// The new member's addr points at an existing endpoint so forwarded
		// copies stay inside the simulated network; slot 3 extends the
		// 3-member slot space the way the coordinator would.
		Adds: []wire.Member{{ID: 77, Slot: 3, Addr: sc.envs[1].LocalAddr()}},
	}
	pkt := wire.AppendGossipDelta(nil, CoordinatorID, wire.GossipDelta{Hops: 4, Delta: d})
	h, body, err := wire.ParseHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	cl.HandlePacket(h, body)
	if sc.views[0].VersionNum() != d.Version {
		t.Fatalf("delta not applied: version %d, want %d", sc.views[0].VersionNum(), d.Version)
	}
	forwards := cl.Stats().GossipForwards
	cl.HandlePacket(h, body) // the duplicated copy
	st := cl.Stats()
	if st.GossipSeen != 2 || st.GossipDups != 1 {
		t.Errorf("seen=%d dups=%d, want 2/1", st.GossipSeen, st.GossipDups)
	}
	if st.GossipForwards != forwards {
		t.Errorf("duplicate was re-forwarded (%d -> %d)", forwards, st.GossipForwards)
	}
	if sc.views[0].VersionNum() != d.Version {
		t.Errorf("duplicate reapplied: version %d", sc.views[0].VersionNum())
	}
}

func TestReorderedGossipBridgesThroughPull(t *testing.T) {
	// Client 0 hears version V+2 before V+1 (jitter reordering): the gap
	// must be bridged by pulling the missing increment from a peer's delta
	// log — zero coordinator full-view requests.
	sc := newSimCluster(t, 3, ClientConfig{}, CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(10 * time.Second)
	v := sc.views[0]
	if v == nil || v.N() != 3 {
		t.Fatalf("initial view = %+v", v)
	}
	d1 := wire.ViewDelta{
		Epoch:       v.Stamp().Epoch,
		BaseVersion: v.VersionNum(),
		Version:     v.VersionNum() + 1,
		Adds:        []wire.Member{{ID: 70, Slot: 3, Addr: sc.envs[1].LocalAddr()}},
	}
	d2 := wire.ViewDelta{
		Epoch:       v.Stamp().Epoch,
		BaseVersion: d1.Version,
		Version:     d1.Version + 1,
		Adds:        []wire.Member{{ID: 71, Slot: 4, Addr: sc.envs[2].LocalAddr()}},
	}
	deliver := func(cl *Client, d wire.ViewDelta) {
		pkt := wire.AppendGossipDelta(nil, CoordinatorID, wire.GossipDelta{Hops: 4, Delta: d})
		h, body, _ := wire.ParseHeader(pkt)
		cl.HandlePacket(h, body)
	}
	// Clients 1 and 2 hear both increments in order and log them; client 0
	// hears only the later one.
	deliver(sc.clients[1], d1)
	deliver(sc.clients[1], d2)
	deliver(sc.clients[2], d1)
	deliver(sc.clients[2], d2)
	deliver(sc.clients[0], d2)
	if sc.views[0].VersionNum() != v.VersionNum() {
		t.Fatalf("gapped delta applied out of order: version %d", sc.views[0].VersionNum())
	}
	sc.nw.RunFor(10 * time.Second) // pull backoff, request, reply
	st := sc.clients[0].Stats()
	if sc.views[0].VersionNum() != d2.Version {
		t.Fatalf("gap never bridged: version %d, want %d\nstats %+v",
			sc.views[0].VersionNum(), d2.Version, st)
	}
	if st.GapsBridged == 0 {
		t.Errorf("gap closed without crediting the pull plane: %+v", st)
	}
	if st.FullViewRequests != 0 {
		t.Errorf("pull repair leaked %d coordinator full-view requests", st.FullViewRequests)
	}
}

func TestGossipDisseminationUnderLossConverges(t *testing.T) {
	// The tentpole end-to-end: 5% loss, duplication, and jitter on every
	// link; a late joiner's admission delta must still reach every member
	// through the tree plus pull repair, inside the 90 s acceptance bound. A
	// member that lost its copy learns it is behind from its peers' routing
	// versions.
	k := 12
	sc := newSimCluster(t, k,
		ClientConfig{Heartbeat: 15 * time.Second},
		CoordinatorConfig{Coalesce: 500 * time.Millisecond})
	routeEvery(sc.nw, sc.clients, sc.envs, 5*time.Second)
	for a := 0; a <= k; a++ {
		for b := a + 1; b <= k; b++ {
			sc.nw.SetLoss(a, b, 0.05)
			sc.nw.SetDuplication(a, b, 0.02)
			sc.nw.SetJitter(a, b, 5*time.Millisecond)
		}
	}
	for i := 0; i < k-1; i++ {
		sc.clients[i].Start()
	}
	sc.nw.RunFor(30 * time.Second)
	sc.clients[k-1].Start()
	sc.nw.RunFor(90 * time.Second)
	want := sc.coord.Stamp()
	for i := 0; i < k; i++ {
		if sc.views[i] == nil || sc.views[i].Stamp() != want {
			t.Errorf("client %d stamp = %+v, want %+v", i, sc.views[i], want)
		}
	}
	var agg ClientStats
	for _, cl := range sc.clients {
		agg.Add(cl.Stats())
	}
	if agg.GossipForwards == 0 {
		t.Errorf("no member ever forwarded a delta: %+v", agg)
	}
	if cs := sc.coord.Stats(); cs.SeedsSent == 0 || cs.DeltasSent != 0 {
		t.Errorf("primary did not seed the tree (seeds=%d unicast deltas=%d)",
			cs.SeedsSent, cs.DeltasSent)
	}
}

// TestStaleJoinReplyNonceRejected: a node's standing is the view that lists
// its address, so a snapshot from before its eviction, delayed until after it
// rejoined under a fresh ID, cannot hand it its old ID back: the snapshot's
// stamp is older than the view the node holds. (The name is the retired join
// reply's, whose nonce guarded the same hazard.)
func TestStaleJoinReplyNonceRejected(t *testing.T) {
	ccfg := CoordinatorConfig{Timeout: 30 * time.Second, Sweep: 5 * time.Second, Coalesce: 500 * time.Millisecond}
	sc := newSimCluster(t, 2, ClientConfig{Heartbeat: 10 * time.Second, JoinRetry: 2 * time.Second}, ccfg)
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(5 * time.Second)
	oldID := sc.envs[0].LocalID()
	if !sc.clients[0].Joined() || oldID == wire.NilNode {
		t.Fatal("client 0 not admitted")
	}
	stale := snapshotPackets(CoordinatorID, sc.coord.Stamp(), sc.coord.lastView)

	sc.nw.SetNodeDown(0, true) // long enough to be expired
	sc.nw.RunFor(time.Minute)
	sc.nw.SetNodeDown(0, false)
	sc.nw.RunFor(30 * time.Second) // evicted: its heartbeat draws a newer stamp; rejoins
	newID, held := sc.envs[0].LocalID(), sc.clients[0].View().Stamp()
	if !sc.clients[0].Joined() || newID == oldID || held != sc.coord.Stamp() {
		t.Fatalf("client 0 joined=%v as %d at %v, want a fresh ID (was %d) at %v",
			sc.clients[0].Joined(), newID, held, oldID, sc.coord.Stamp())
	}

	for _, p := range stale {
		h, body, _ := wire.ParseHeader(p)
		sc.clients[0].HandlePacket(h, body)
	}
	if id := sc.envs[0].LocalID(); id != newID || sc.clients[0].View().Stamp() != held || sc.views[0].Stamp() != held {
		t.Fatalf("a pre-eviction snapshot moved client 0 to ID %d at %v (want %d at %v)", id, sc.clients[0].View().Stamp(), newID, held)
	}
}
