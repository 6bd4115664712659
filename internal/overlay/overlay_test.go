package overlay

import (
	"slices"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/membership"
	"allpairs/internal/probe"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// staticFleet builds n nodes with a pre-agreed view over a simulated
// network, the configuration the emulation harness uses.
func staticFleet(t *testing.T, n int, algo Algorithm, seed int64) (*simnet.Network, []*Node) {
	t.Helper()
	nw := simnet.New(n, seed)
	reg := transport.NewRegistry()
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	view := membership.NewStaticView(ids)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				nw.SetLatency(a, b, time.Duration(5+(a+b)%40)*time.Millisecond)
			}
		}
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		env := transport.NewSimEnv(nw, reg, i, seed+int64(i))
		env.SetLocalID(wire.NodeID(i)) // registers the endpoint mapping
		node := New(env, Config{
			Algorithm:  algo,
			Probe:      probe.Config{Interval: 10 * time.Second, ReplyTimeout: time.Second},
			Quorum:     core.QuorumConfig{Interval: 5 * time.Second},
			FullMesh:   core.FullMeshConfig{Interval: 10 * time.Second},
			StaticView: view,
			StaticID:   wire.NodeID(i),
		})
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nw, nodes
}

func TestStaticFleetConvergesQuorum(t *testing.T) {
	nw, nodes := staticFleet(t, 16, AlgQuorum, 1)
	nw.RunFor(2 * time.Minute)
	for i, node := range nodes {
		if !node.Ready() {
			t.Fatalf("node %d not ready", i)
		}
		table := node.RouteTable()
		if len(table) != 15 {
			t.Errorf("node %d has %d routes, want 15", i, len(table))
		}
		for _, r := range table {
			if r.Cost == wire.InfCost {
				t.Errorf("node %d route to %d unreachable", i, r.Dst)
			}
			// No route names its own source as the hop: the direct path is
			// Hop == Dst at both ends of a pair.
			if r.Hop == wire.NodeID(i) {
				t.Errorf("node %d routes to %d through itself", i, r.Dst)
			}
		}
	}
	// Routes should reflect measured RTTs: direct cost for a pair must be
	// near 2× the one-way latency.
	r, ok := nodes[0].BestHop(1)
	if !ok {
		t.Fatal("no route 0->1")
	}
	if r.Hop == 0 || r.Dst != 1 {
		t.Errorf("route = %+v", r)
	}
}

func TestStaticFleetConvergesFullMesh(t *testing.T) {
	nw, nodes := staticFleet(t, 9, AlgFullMesh, 2)
	nw.RunFor(2 * time.Minute)
	for i, node := range nodes {
		if got := len(node.RouteTable()); got != 8 {
			t.Errorf("node %d: %d routes", i, got)
		}
	}
}

func TestQuorumAndFullMeshAgreeOnCosts(t *testing.T) {
	nwq, qnodes := staticFleet(t, 12, AlgQuorum, 3)
	nwf, fnodes := staticFleet(t, 12, AlgFullMesh, 3)
	nwq.RunFor(3 * time.Minute)
	nwf.RunFor(3 * time.Minute)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if i == j {
				continue
			}
			rq, okq := qnodes[i].BestHop(wire.NodeID(j))
			rf, okf := fnodes[i].BestHop(wire.NodeID(j))
			if !okq || !okf {
				t.Fatalf("missing route %d->%d (q=%v f=%v)", i, j, okq, okf)
			}
			// EWMA measurement noise allows ±a few ms.
			diff := int(rq.Cost) - int(rf.Cost)
			if diff < -5 || diff > 5 {
				t.Errorf("cost mismatch %d->%d: quorum %d, fullmesh %d", i, j, rq.Cost, rf.Cost)
			}
		}
	}
}

// dynamicFleet builds n nodes with cfg on a simulated network whose endpoint
// n is a solo coordinator, and starts the first started of them.
func dynamicFleet(t *testing.T, n, started int, cfg Config) (*simnet.Network, *membership.Coordinator, []*Node) {
	t.Helper()
	nw := simnet.New(n+1, 7)
	reg := transport.NewRegistry()
	for a := 0; a <= n; a++ {
		for b := 0; b <= n; b++ {
			if a != b {
				nw.SetLatency(a, b, 10*time.Millisecond)
			}
		}
	}
	cenv := transport.NewSimEnv(nw, reg, n, 99)
	coord := membership.NewCoordinator(cenv, membership.CoordinatorConfig{})
	coord.Start()
	nodes := make([]*Node, n)
	for i := range nodes {
		env := transport.NewSimEnv(nw, reg, i, int64(i+1))
		env.SetPeer(membership.CoordinatorID, cenv.LocalAddr())
		nodes[i] = New(env, cfg)
		if i >= started {
			continue
		}
		if err := nodes[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	return nw, coord, nodes
}

// fastDynamic is the dynamic fleets' config: short probing and routing
// intervals, and a join retry short enough for a test.
var fastDynamic = Config{
	Algorithm:  AlgQuorum,
	Probe:      probe.Config{Interval: 10 * time.Second, ReplyTimeout: time.Second},
	Quorum:     core.QuorumConfig{Interval: 5 * time.Second},
	Membership: membership.ClientConfig{JoinRetry: 2 * time.Second},
}

func TestDynamicJoinThroughCoordinator(t *testing.T) {
	const n = 9
	nw, coord, nodes := dynamicFleet(t, n, n, fastDynamic)
	nw.RunFor(3 * time.Minute)

	if coord.MemberCount() != n {
		t.Fatalf("coordinator has %d members", coord.MemberCount())
	}
	for i, node := range nodes {
		if !node.Ready() {
			t.Fatalf("node %d never installed a view", i)
		}
		if node.View().N() != n {
			t.Errorf("node %d view has %d members", i, node.View().N())
		}
		if got := len(node.RouteTable()); got != n-1 {
			t.Errorf("node %d: %d routes after dynamic join", i, got)
		}
	}

	// A node leaves; the rest reconverge on an (n-1)-view.
	nodes[n-1].Stop()
	nw.RunFor(2 * time.Minute)
	for i := 0; i < n-1; i++ {
		if nodes[i].View().N() != n-1 {
			t.Errorf("node %d still has %d members after leave", i, nodes[i].View().N())
		}
	}
}

// TestMissedDeltaClosesFromRoutingVersion: with the 5-minute default
// heartbeat, a member that loses the gossip delta of a departure hears of it
// from the version stamped on its peers' link-state rows and recommendations,
// and converges within one routing interval plus the repair ladder. A
// stranger's routing messages, stamped far in the future, move nothing and
// allocate nothing on the way in.
func TestMissedDeltaClosesFromRoutingVersion(t *testing.T) {
	const n = 9
	nw, coord, nodes := dynamicFleet(t, n, n, Config{Membership: membership.ClientConfig{JoinRetry: 2 * time.Second}})
	nw.RunFor(3*time.Minute + 10*time.Second)
	if coord.MemberCount() != n || nodes[0].View().Stamp() != coord.Stamp() {
		t.Fatalf("warm-up: %d members, node 0 at %v, coordinator at %v", coord.MemberCount(), nodes[0].View().Stamp(), coord.Stamp())
	}

	// Node 0 loses the next gossip delta.
	lost := 0
	nodes[0].Env().Bind(func(from wire.NodeID, p []byte) {
		if wire.PeekType(p) == wire.TGossipDelta && lost == 0 {
			lost++
			return
		}
		nodes[0].handlePacket(from, p)
	})
	pulls := 0
	nw.OnSend = func(from, to int, p []byte) {
		if from == 0 && wire.PeekType(p) == wire.TViewPull {
			pulls++
		}
	}

	// A stranger's far-future routing messages come first.
	const stranger wire.NodeID = 500
	far := coord.Stamp().Version + 1<<20
	ls := wire.AppendLinkState(nil, stranger, wire.LinkState{ViewVersion: far, Seq: 1, Entries: make([]wire.LinkEntry, nodes[0].View().Slots())})
	rec := wire.AppendRecommendation(nil, stranger, wire.Recommendation{ViewVersion: far, Entries: []wire.RecEntry{{Dst: 1, Hop: 2, Cost: 3}}})
	if allocs := testing.AllocsPerRun(10, func() {
		nodes[0].handlePacket(stranger, ls)
		nodes[0].handlePacket(stranger, rec)
	}); allocs != 0 {
		t.Errorf("a stranger's routing messages allocated %.0f times", allocs)
	}
	nw.RunFor(time.Second)
	if pulls != 0 {
		t.Fatalf("a stranger's far-future version drew %d pulls", pulls)
	}

	nodes[n-1].Stop()
	nw.RunFor(2 * time.Second) // the coalesced departure is flushed
	want := coord.Stamp()
	if lost != 1 || nodes[0].View().Stamp() == want {
		t.Fatalf("node 0 at %v did not miss the delta to %v (%d lost)", nodes[0].View().Stamp(), want, lost)
	}
	nw.RunFor(nodes[0].Router().Interval() + time.Second)
	for i, node := range nodes[:n-1] {
		if got := node.View().Stamp(); got != want {
			t.Errorf("node %d at %v one routing interval after the departure, want %v", i, got, want)
		}
	}
	if pulls == 0 {
		t.Error("node 0 sent no pull")
	}
}

// TestLostAdmissionSnapshotRecovers: the view that lists a joiner is its
// admission, and its join retry repairs the loss of that view: the primary
// answers a re-join from a member its last view holds with that view again.
// A joiner whose admission snapshot is dropped holds a view that lists it,
// and routes, within one JoinRetry plus Coalesce plus a second of its join.
func TestLostAdmissionSnapshotRecovers(t *testing.T) {
	const n = 9
	const joiner, coordEP = n - 1, n
	nw, coord, nodes := dynamicFleet(t, n, n-1, fastDynamic)
	nw.RunFor(3 * time.Minute)

	dropped := 0
	nw.OnSend = func(from, to int, p []byte) {
		if from == coordEP && to == joiner && wire.PeekType(p) == wire.TViewChunk && !nw.Reachable(from, to) {
			dropped++
		}
	}
	if err := nodes[joiner].Start(); err != nil {
		t.Fatal(err)
	}
	nw.RunFor(500 * time.Millisecond) // the join is admitted
	nw.SetLinkDown(coordEP, joiner, true)
	nw.RunFor(time.Second) // the flush's snapshot to the joiner is lost
	nw.SetLinkDown(coordEP, joiner, false)
	if dropped == 0 || nodes[joiner].Ready() {
		t.Fatalf("the admission snapshot was not lost (%d chunks dropped, ready=%v)", dropped, nodes[joiner].Ready())
	}

	nw.RunFor(fastDynamic.Membership.JoinRetry + membership.DefaultCoalesce + time.Second - 1500*time.Millisecond)
	v := nodes[joiner].View()
	if v == nil || v.Stamp() != coord.Stamp() {
		t.Fatalf("joiner holds view %v, primary at %v", v, coord.Stamp())
	}
	if _, ok := v.SlotOf(nodes[joiner].Env().LocalID()); !ok || !nodes[joiner].Ready() {
		t.Fatalf("joiner's view does not list it as %d", nodes[joiner].Env().LocalID())
	}
	nw.RunFor(time.Minute)
	if got := len(nodes[joiner].RouteTable()); got != n-1 {
		t.Errorf("joiner has %d routes a minute after its admission, want %d", got, n-1)
	}
}

func TestBestHopUnknownDestination(t *testing.T) {
	nw, nodes := staticFleet(t, 4, AlgQuorum, 5)
	nw.RunFor(time.Minute)
	if _, ok := nodes[0].BestHop(99); ok {
		t.Error("route to non-member returned")
	}
	if _, ok := nodes[0].BestHop(0); ok {
		t.Error("route to self returned")
	}
}

// TestRoutesStampLearnTime checks that a running node's route table records
// when each route was last learned: every destination is routed after a
// minute, and no route is older than a few routing intervals.
func TestRoutesStampLearnTime(t *testing.T) {
	nw := simnet.New(4, 9)
	reg := transport.NewRegistry()
	ids := []wire.NodeID{0, 1, 2, 3}
	view := membership.NewStaticView(ids)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				nw.SetLatency(i, j, 5*time.Millisecond)
			}
		}
	}
	var first *Node
	for i := 0; i < 4; i++ {
		env := transport.NewSimEnv(nw, reg, i, int64(i+1))
		env.SetLocalID(wire.NodeID(i))
		node := New(env, Config{
			Algorithm:  AlgQuorum,
			Probe:      probe.Config{Interval: 5 * time.Second, ReplyTimeout: time.Second},
			Quorum:     core.QuorumConfig{Interval: 5 * time.Second},
			StaticView: view,
			StaticID:   wire.NodeID(i),
		})
		if i == 0 {
			first = node
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
	}
	nw.RunFor(time.Minute)
	for dst, e := range first.Router().Routes() {
		if dst == 0 {
			continue
		}
		if age := nw.Now().Sub(e.When); e.When.IsZero() || age > 3*5*time.Second {
			t.Errorf("route to %d learned at %v, %v ago", dst, e.When, age)
		}
	}
	if first.Slot() != 0 {
		t.Errorf("slot = %d", first.Slot())
	}
	if first.Router() == nil || first.Prober() == nil {
		t.Error("accessors returned nil")
	}
	if first.Env() == nil {
		t.Error("Env returned nil")
	}
}

// TestNodeDropsAHostileRideWhole holds back what a rendezvous k sends node r,
// a row riding behind each recommendation, and hands r by hand the first
// such datagram, whose row is a delta on the row r holds: with a delta of a
// changed entry cut inside its marks or its entries riding instead, with its
// row one byte long, or of another type than a delta or r's row form (a
// probe's, or the directional form's), r's dispatch drops it whole, so
// neither r's table nor its routes move; the datagram as sent is taken
// whole, the row and then the recommendation.
func TestNodeDropsAHostileRideWhole(t *testing.T) {
	const r, k = 0, 1 // one grid row: each is the other's rendezvous
	nw, nodes := staticFleet(t, 9, AlgQuorum, 5)
	nw.RunFor(time.Minute)
	nw.SetLatencyOneWay(k, r, time.Hour)
	q := nodes[r].Router().(*core.Quorum)
	var first []byte
	var ride wire.Ride
	nw.OnSend = func(from, to int, p []byte) {
		if h, body, err := wire.ParseHeader(p); from == k && to == r && err == nil && h.Type == wire.TRecommendation && first == nil {
			if _, ride, err = wire.SplitRecommendation(body, q.Shape()); err == nil && ride.Type == wire.TLinkStateDelta {
				first = slices.Clone(p)
			}
		}
	}
	nw.RunFor(12 * time.Second)
	nw.OnSend = nil
	if first == nil {
		t.Fatal("k sent r no delta riding behind a recommendation")
	}
	_, body, _ := wire.ParseHeader(first)
	at := wire.HeaderLen + recLen(body) // the row's type byte
	delta := wire.NewLinkStateDelta(k, ride.Row.ViewVersion, ride.Row.Seq, ride.Row.Seq-1, wire.TLinkState, ride.Row.Members, 1)
	wire.PutDeltaEntry(delta, 2, 0, []byte{0, 200, wire.StatusDead})
	changed := make([]byte, at+wire.RideSize(delta)) // marked by a 2-byte bitmap
	copy(changed, first[:at])
	wire.PutRide(changed[at:], delta)
	seq, routes := q.Table().Seq(k), q.Routes()
	typed := func(typ wire.MsgType) []byte {
		msg := slices.Clone(first)
		msg[at] = byte(typ)
		return msg
	}
	for _, hostile := range []struct {
		defect string
		msg    []byte
	}{
		{"a row cut inside its marks", changed[:at+4]}, // the type, the changed count and the bitmap's first byte
		{"a row cut inside its entries", changed[:len(changed)-1]},
		{"a row one byte long", append(slices.Clone(first), 0)},
		{"a probe's type byte", typed(wire.TProbe)},
		{"the directional form's type byte", typed(wire.TLinkStateAsym)},
	} {
		nodes[r].handlePacket(k, hostile.msg)
		if q.Table().Seq(k) != seq || !slices.Equal(q.Routes(), routes) {
			t.Errorf("%s: r took the datagram", hostile.defect)
		}
	}
	nodes[r].handlePacket(k, first)
	if q.Table().Seq(k) == seq || slices.Equal(q.Routes(), routes) {
		t.Errorf("r did not take the datagram as sent: row seq %d, was %d", q.Table().Seq(k), seq)
	}
}

// recLen returns the length of the recommendation that opens body, which its
// counts fix: where a row riding behind it starts.
func recLen(body []byte) int {
	n := 0
	for ; n < len(body); n++ {
		if _, err := wire.RecommendationBody(body[:n]); err == nil {
			break
		}
	}
	return n
}

// heardBefore is the view version dispatch handed the membership client for
// a routing datagram before the routers returned it: its own parse of the
// datagram, a recommendation split against at, the addressee's table,
// whoever sent it and whatever the router did with it.
func heardBefore(t wire.MsgType, body []byte, at wire.RowShape) (uint32, bool) {
	switch t {
	case wire.TLinkState, wire.TLinkStateAsym:
		v, _, _, err := wire.LinkStateBody(t, body)
		return v, err == nil
	case wire.TLinkStateDelta:
		d, err := wire.LinkStateDeltaBody(body)
		return d.ViewVersion, err == nil
	case wire.TRecommendation:
		r, _, err := wire.SplitRecommendation(body, at)
		return r.ViewVersion, err == nil
	}
	return 0, false
}

// TestRoutersReportTheVersionsDispatchHeard pins which routing datagrams hand
// the membership client a view version, now that the router's one parse
// supplies it: every row, delta and recommendation whose body parses — a
// stranger's, one stamped with another version and a row of the other form
// included, though the router keeps none of them — with a row riding behind
// a recommendation heard at the recommendation's version, and no ack or
// malformed body. Both routers are fed every datagram node 0 receives in a
// quorum fleet's first minute, as sent and altered each of those ways; then,
// in a dynamic fleet, a member's riding datagram that the router drops for
// its recommendation's far-future version draws a pull to that member, and a
// truncated copy and an ack draw none.
func TestRoutersReportTheVersionsDispatchHeard(t *testing.T) {
	type part struct {
		h    wire.Header
		body []byte
	}
	var parts []part
	nw, nodes := staticFleet(t, 9, AlgQuorum, 5)
	kinds := map[wire.MsgType]int{}
	nw.OnSend = func(from, to int, p []byte) {
		if h, body, err := wire.ParseHeader(p); err == nil && to == 0 {
			parts = append(parts, part{h, slices.Clone(body)})
			kinds[h.Type]++
			if _, ride, err := wire.SplitRecommendation(body, nodes[0].Router().Shape()); h.Type == wire.TRecommendation && err == nil {
				kinds[ride.Type]++
			}
		}
	}
	nw.RunFor(time.Minute)
	nw.OnSend = nil
	if kinds[wire.TLinkState] == 0 || kinds[wire.TLinkStateDelta] == 0 || kinds[wire.TRecommendation] == 0 {
		t.Fatalf("node 0 received %v: want rows, deltas and recommendations", kinds)
	}

	const stranger wire.NodeID = 500
	var fed []part
	for _, p := range parts {
		far := slices.Clone(p.body)
		far[0] ^= 0x40 // the version's high byte: another view
		other := p.h
		switch p.h.Type {
		case wire.TLinkState:
			other.Type = wire.TLinkStateAsym
		case wire.TLinkStateAsym:
			other.Type = wire.TLinkState
		}
		fed = append(fed, p,
			part{wire.Header{Type: p.h.Type, Src: stranger}, p.body},
			part{p.h, far},
			part{p.h, p.body[:len(p.body)-1]},
			part{other, p.body})
	}
	fed = append(fed, part{wire.Header{Type: wire.TLinkStateAck, Src: 1}, wire.AppendLinkStateAck(nil, 1, 0)[wire.HeaderLen:]})

	_, mesh := staticFleet(t, 9, AlgFullMesh, 5)
	for _, r := range []core.Router{nodes[0].Router(), mesh[0].Router()} {
		for i, p := range fed {
			var v uint32
			var ok bool
			if p.h.Type == wire.TRecommendation {
				if rec, ride, err := wire.SplitRecommendation(p.body, r.Shape()); err == nil {
					v, ok = r.HandleRide(p.h, rec, ride)
				}
			} else {
				v, ok = r.HandleLinkState(p.h, p.body)
			}
			if wv, wok := heardBefore(p.h.Type, p.body, r.Shape()); ok != wok || (ok && v != wv) {
				t.Errorf("%T, part %d (type %d from %d, %d B): reports (%d, %t), dispatch heard (%d, %t)", r, i, p.h.Type, p.h.Src, len(p.body), v, ok, wv, wok)
			}
		}
	}

	const n = 9
	dnw, coord, dyn := dynamicFleet(t, n, n, fastDynamic)
	dnw.RunFor(3 * time.Minute)
	if coord.MemberCount() != n {
		t.Fatalf("warm-up: %d members", coord.MemberCount())
	}
	var riding []byte // the first datagram node 0 is sent with a row riding in it
	pulls := 0
	dnw.OnSend = func(from, to int, p []byte) {
		h, body, err := wire.ParseHeader(p)
		switch {
		case err != nil:
		case from == 0 && h.Type == wire.TViewPull:
			pulls++
		case to == 0 && h.Type == wire.TRecommendation && riding == nil:
			if _, ride, err := wire.SplitRecommendation(body, dyn[0].Router().Shape()); err == nil && ride.Type != 0 {
				riding = slices.Clone(p)
			}
		}
	}
	dnw.RunFor(dyn[0].Router().Interval() + time.Second)
	if riding == nil {
		t.Fatal("node 0 was sent no row riding behind a recommendation")
	}
	h, _, _ := wire.ParseHeader(riding)
	dyn[0].handlePacket(h.Src, riding[:len(riding)-1])
	dyn[0].handlePacket(h.Src, wire.AppendLinkStateAck(nil, h.Src, 0))
	dnw.RunFor(time.Second)
	if pulls != 0 {
		t.Fatalf("a truncated riding datagram and an ack drew %d pulls", pulls)
	}
	riding[wire.HeaderLen] ^= 0x40 // the recommendation's version
	dyn[0].handlePacket(h.Src, riding)
	dnw.RunFor(time.Second)
	if pulls == 0 {
		t.Error("a member's riding datagram stamped with a far-future version drew no pull")
	}
}
