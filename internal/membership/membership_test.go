package membership

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

func TestNewViewInfoPlacesAndMaps(t *testing.T) {
	v := wire.View{Version: 3, Slots: 4, Members: []wire.Member{{ID: 9, Slot: 2}, {ID: 2, Slot: 0}, {ID: 5, Slot: 3}}}
	vi, err := NewViewInfo(v)
	if err != nil {
		t.Fatal(err)
	}
	if vi.VersionNum() != 3 || vi.N() != 3 || vi.Slots() != 4 {
		t.Fatalf("version=%d n=%d slots=%d", vi.VersionNum(), vi.N(), vi.Slots())
	}
	for i, id := range []wire.NodeID{2, wire.NilNode, 9, 5} {
		if vi.IDAt(i) != id || vi.Occupied(i) != (id != wire.NilNode) {
			t.Errorf("IDAt(%d) = %d occupied=%v, want %d", i, vi.IDAt(i), vi.Occupied(i), id)
		}
		if id == wire.NilNode {
			continue
		}
		if s, ok := vi.SlotOf(id); !ok || s != i {
			t.Errorf("SlotOf(%d) = %d,%v", id, s, ok)
		}
	}
	if _, ok := vi.SlotOf(99); ok {
		t.Error("SlotOf(99) found")
	}
	if got := vi.Members(); len(got) != 3 || got[0].ID != 2 || got[1].ID != 9 || got[2].ID != 5 {
		t.Errorf("Members() = %v, want slot order 2, 9, 5", got)
	}
	if got := vi.Tombstones(); !slices.Equal(got, []int{1}) {
		t.Errorf("Tombstones() = %v, want [1]", got)
	}
}

func TestNewViewInfoRejectsMalformed(t *testing.T) {
	for name, v := range map[string]wire.View{
		"duplicate ID":              {Slots: 2, Members: []wire.Member{{ID: 1, Slot: 0}, {ID: 1, Slot: 1}}},
		"duplicate slot":            {Slots: 2, Members: []wire.Member{{ID: 1, Slot: 1}, {ID: 2, Slot: 1}}},
		"nil ID":                    {Slots: 2, Members: []wire.Member{{ID: wire.NilNode, Slot: 0}}},
		"slot beyond the space":     {Slots: 2, Members: []wire.Member{{ID: 1, Slot: 0}, {ID: 2, Slot: 2}}},
		"members in a 0-slot space": {Slots: 0, Members: []wire.Member{{ID: 1}, {ID: 2}}},
	} {
		if _, err := NewViewInfo(v); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if vi, err := NewViewInfo(wire.View{Version: 1}); err != nil || vi.N() != 0 || vi.Slots() != 0 {
		t.Errorf("empty view: %v, %v", vi, err)
	}
}

func TestNewStaticView(t *testing.T) {
	vi := NewStaticView([]wire.NodeID{4, 0, 2})
	if vi.N() != 3 || vi.Slots() != 3 || vi.OccupiedMask() != nil || vi.Tombstones() != nil {
		t.Fatalf("static view wrong: %v", vi.Members())
	}
	// Unsorted IDs land in the sorted layout: the i-th smallest at slot i.
	for i, id := range []wire.NodeID{0, 2, 4} {
		if m := vi.Members()[i]; vi.IDAt(i) != id || m.ID != id || int(m.Slot) != i {
			t.Errorf("slot %d holds %d (member %+v), want %d", i, vi.IDAt(i), m, id)
		}
		if s, ok := vi.SlotOf(id); !ok || s != i {
			t.Errorf("SlotOf(%d) = %d,%v, want %d", id, s, ok, i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate static IDs should panic")
		}
	}()
	NewStaticView([]wire.NodeID{1, 1})
}

// TestSlotIndexDense holds SlotOf, over every 16-bit ID, to a scan of the
// slot array it indexes — for views whose IDs sit at the edges of the dense
// index: ID 0, gaps below the largest held ID, IDs above it, wire.NilNode, the
// coordinator range, and a member just under it (the largest index the type
// allows).
func TestSlotIndexDense(t *testing.T) {
	check := func(name string, vi *ViewInfo) {
		t.Helper()
		want := map[wire.NodeID]int{}
		for s := 0; s < vi.Slots(); s++ {
			if id := vi.IDAt(s); id != wire.NilNode {
				want[id] = s
			}
		}
		for id := 0; id <= 0xFFFF; id++ {
			s, ok := vi.SlotOf(wire.NodeID(id))
			ws, wok := want[wire.NodeID(id)]
			if ok != wok || (ok && s != ws) {
				t.Fatalf("%s: SlotOf(%d) = %d,%v, want %d,%v", name, id, s, ok, ws, wok)
			}
		}
		if size := 4 * len(vi.slotOf); size > 256<<10 {
			t.Errorf("%s: index holds %d bytes, over the 256 KB bound", name, size)
		}
	}
	low, err := NewViewInfo(wire.View{Epoch: 1, Version: 1, Slots: 5,
		Members: []wire.Member{{ID: 7, Slot: 0}, {ID: 0, Slot: 3}, {ID: 300, Slot: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	check("ID 0 and gaps", low)
	for _, id := range []wire.NodeID{1, 299, 301, wire.NilNode, CoordinatorID, CoordinatorIDAt(1), CoordinatorIDAt(2)} {
		if s, ok := low.SlotOf(id); ok {
			t.Errorf("SlotOf(%d) = %d on a view that does not hold it", id, s)
		}
	}
	if len(low.slotOf) != 301 {
		t.Errorf("index sized %d, want largest held ID + 1 = 301", len(low.slotOf))
	}
	check("empty", NewStaticView(nil))
	check("static", NewStaticView([]wire.NodeID{4, 0, 2}))

	// The largest ID a member can hold next to a three-replica coordinator
	// set still indexes correctly, and a delta keeps the index in step.
	high, err := low.ApplyDelta(wire.ViewDelta{Epoch: 1, BaseVersion: 1, Version: 2,
		Adds: []wire.Member{{ID: 0xFFFD, Slot: 1}, {ID: 8, Slot: 6}}, Removes: []wire.NodeID{300, 0}})
	if err != nil {
		t.Fatal(err)
	}
	check("0xFFFD after a delta", high)
	check("delta left its base alone", low)
	back, err := high.ApplyDelta(wire.ViewDelta{Epoch: 1, BaseVersion: 2, Version: 3, Removes: []wire.NodeID{0xFFFD}})
	if err != nil {
		t.Fatal(err)
	}
	check("index shrinks with the largest ID", back)
	if len(back.slotOf) != 9 {
		t.Errorf("index sized %d after the high ID left, want 9", len(back.slotOf))
	}
	// StableExtension consults the index for "did a survivor move": 7 holds
	// slot 0 throughout, 300 and 0 left, 0xFFFD and 8 started.
	retired, started, ok := StableExtension(low, 0, high, 0)
	if !ok || !slices.Equal(retired, []int{3, 4}) || !slices.Equal(started, []int{1, 6}) {
		t.Errorf("StableExtension = %v %v %v, want [3 4] [1 6] true", retired, started, ok)
	}

	if _, err := newViewInfo(1, 1, []wire.Member{{ID: 0, Slot: 0}, {ID: 5, Slot: 1}, {ID: 0, Slot: 2}}); err == nil {
		t.Error("newViewInfo accepted ID 0 twice")
	}
	if n := testing.AllocsPerRun(100, func() {
		low.SlotOf(0)
		low.SlotOf(300)
		low.SlotOf(wire.NilNode)
	}); n != 0 {
		t.Errorf("SlotOf allocates %v times", n)
	}
}

// simCluster wires a coordinator plus k clients over a simulated network.
type simCluster struct {
	nw      *simnet.Network
	reg     *transport.Registry
	coord   *Coordinator
	clients []*Client
	envs    []*transport.SimEnv
	views   []*ViewInfo
}

func newSimCluster(t testing.TB, k int, cfg ClientConfig, ccfg CoordinatorConfig) *simCluster {
	t.Helper()
	nw := simnet.New(k+1, 7)
	reg := transport.NewRegistry()
	for a := 0; a <= k; a++ {
		for b := 0; b <= k; b++ {
			if a != b {
				nw.SetLatency(a, b, 10*time.Millisecond)
			}
		}
	}
	sc := &simCluster{nw: nw, reg: reg, views: make([]*ViewInfo, k)}

	cenv := transport.NewSimEnv(nw, reg, k, 1)
	sc.coord = NewCoordinator(cenv, ccfg)
	sc.coord.Start()

	coordAddr := cenv.LocalAddr()
	for i := 0; i < k; i++ {
		i := i
		env := transport.NewSimEnv(nw, reg, i, int64(i+2))
		env.SetPeer(CoordinatorID, coordAddr)
		cl := NewClient(env, cfg, func(v *ViewInfo) { sc.views[i] = v })
		env.Bind(memberHandler(cl))
		sc.clients = append(sc.clients, cl)
		sc.envs = append(sc.envs, env)
	}
	return sc
}

// memberHandler dispatches a member's datagrams as the overlay node does:
// membership messages to the client, and the view version a routing message
// carries to HeardVersion (routeEvery sends the only ones).
func memberHandler(cl *Client) func(wire.NodeID, []byte) {
	return func(_ wire.NodeID, payload []byte) {
		h, body, err := wire.ParseHeader(payload)
		if err != nil {
			return
		}
		if h.Type != wire.TRecommendation {
			cl.HandlePacket(h, body)
		} else if rec, err := wire.RecommendationBody(body); err == nil {
			cl.HeardVersion(h.Src, rec.ViewVersion)
		}
	}
}

// routeEvery gives a harness the evidence a routing plane gives: every
// interval, each joined member sends every other member of its view an empty
// recommendation stamped with its view version.
func routeEvery(nw *simnet.Network, clients []*Client, envs []*transport.SimEnv, every time.Duration) {
	var tick func()
	tick = func() {
		for i, cl := range clients {
			if !cl.Joined() || cl.stopped {
				continue
			}
			self := envs[i].LocalID()
			msg := wire.AppendRecommendation(nil, self, wire.Recommendation{ViewVersion: cl.View().VersionNum()})
			for _, m := range cl.View().Members() {
				if m.ID != self {
					envs[i].Send(m.ID, msg)
				}
			}
		}
		nw.After(every, tick)
	}
	nw.After(every, tick)
}

func TestJoinAssignsIDsAndConsistentViews(t *testing.T) {
	sc := newSimCluster(t, 4, ClientConfig{}, CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(10 * time.Second)

	if sc.coord.MemberCount() != 4 {
		t.Fatalf("member count = %d", sc.coord.MemberCount())
	}
	for i, cl := range sc.clients {
		if !cl.Joined() {
			t.Fatalf("client %d not joined", i)
		}
		if sc.envs[i].LocalID() == wire.NilNode {
			t.Errorf("client %d has no ID", i)
		}
	}
	// All clients converge to the same final view.
	v0 := sc.views[0]
	if v0 == nil || v0.N() != 4 {
		t.Fatalf("view0 = %+v", v0)
	}
	for i, v := range sc.views {
		if v == nil || v.VersionNum() != v0.VersionNum() || v.N() != 4 {
			t.Errorf("client %d view = %+v", i, v)
		}
	}
	// Slot mapping is identical everywhere.
	for s := 0; s < 4; s++ {
		for i := 1; i < len(sc.views); i++ {
			if sc.views[i].IDAt(s) != v0.IDAt(s) {
				t.Errorf("slot %d differs between clients", s)
			}
		}
	}
}

func TestJoinRetryIsIdempotent(t *testing.T) {
	// Lose the first join; the retry must succeed without assigning two IDs.
	sc := newSimCluster(t, 1, ClientConfig{JoinRetry: time.Second}, CoordinatorConfig{})
	sc.nw.SetLoss(0, 1, 1.0) // client 0 <-> coordinator at endpoint 1
	sc.clients[0].Start()
	sc.nw.RunFor(2500 * time.Millisecond)
	sc.nw.SetLoss(0, 1, 0)
	sc.nw.RunFor(10 * time.Second)
	if !sc.clients[0].Joined() {
		t.Fatal("client never joined")
	}
	if sc.coord.MemberCount() != 1 {
		t.Errorf("member count = %d", sc.coord.MemberCount())
	}
	if got := sc.envs[0].LocalID(); got != 0 {
		t.Errorf("assigned ID = %d, want 0", got)
	}
}

func TestLeaveBroadcastsNewView(t *testing.T) {
	sc := newSimCluster(t, 3, ClientConfig{}, CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(5 * time.Second)
	sc.clients[2].Leave()
	sc.nw.RunFor(5 * time.Second)
	if sc.coord.MemberCount() != 2 {
		t.Fatalf("member count = %d after leave", sc.coord.MemberCount())
	}
	for i := 0; i < 2; i++ {
		if sc.views[i] == nil || sc.views[i].N() != 2 {
			t.Errorf("client %d view has %d members", i, sc.views[i].N())
		}
	}
}

func TestTimeoutExpiresSilentMembers(t *testing.T) {
	ccfg := CoordinatorConfig{Timeout: time.Minute, Sweep: 10 * time.Second}
	ccfg.Logf = t.Logf
	sc := newSimCluster(t, 2, ClientConfig{Heartbeat: 15 * time.Second}, ccfg)
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(5 * time.Second)
	if sc.coord.MemberCount() != 2 {
		t.Fatalf("member count = %d", sc.coord.MemberCount())
	}
	// Kill node 1's connectivity entirely; its heartbeats stop and it should
	// expire after the 1-minute timeout, while node 0 survives.
	sc.nw.SetNodeDown(1, true)
	sc.nw.RunFor(2 * time.Minute)
	if sc.coord.MemberCount() != 1 {
		t.Fatalf("member count = %d after timeout", sc.coord.MemberCount())
	}
	if sc.views[0] == nil || sc.views[0].N() != 1 {
		t.Errorf("survivor's view = %+v", sc.views[0])
	}
}

func TestStaleViewIgnored(t *testing.T) {
	sc := newSimCluster(t, 1, ClientConfig{}, CoordinatorConfig{})
	sc.clients[0].Start()
	sc.nw.RunFor(5 * time.Second)
	v := sc.views[0]
	if v == nil {
		t.Fatal("no view")
	}
	// Deliver a stale one-chunk snapshot directly.
	stale := wire.ViewChunk{Stamp: wire.ViewStamp{Epoch: 1}, TotalSlots: 2, TotalMembers: 2, Count: 1,
		Members: []wire.Member{{ID: 0, Slot: 0}, {ID: 7, Slot: 1}}}
	h, body, _ := wire.ParseHeader(wire.AppendViewChunk(nil, CoordinatorID, stale))
	sc.clients[0].HandlePacket(h, body)
	if sc.views[0] != v {
		t.Errorf("stale snapshot replaced the view at %v", v.Stamp())
	}
}

func TestClientLeaveWithoutJoinIsSafe(t *testing.T) {
	nw := simnet.New(1, 1)
	reg := transport.NewRegistry()
	env := transport.NewSimEnv(nw, reg, 0, 1)
	cl := NewClient(env, ClientConfig{}, nil)
	cl.Leave() // no ID yet: must not panic or send
	if cl.Joined() {
		t.Error("unjoined client reports joined")
	}
	if cl.View() != nil {
		t.Error("unjoined client has view")
	}
}

func TestCoordinatorIgnoresGarbage(t *testing.T) {
	nw := simnet.New(2, 1)
	reg := transport.NewRegistry()
	cenv := transport.NewSimEnv(nw, reg, 0, 1)
	coord := NewCoordinator(cenv, CoordinatorConfig{})
	coord.Start()
	// Raw garbage and truncated join.
	nw.Send(1, 0, []byte{byte(wire.TJoin), 0, 1, 2})
	nw.Send(1, 0, wire.AppendHeartbeat(nil, 55)) // unknown member heartbeat
	nw.RunFor(time.Second)
	if coord.MemberCount() != 0 {
		t.Errorf("member count = %d", coord.MemberCount())
	}
}

func TestJoinAddrConvention(t *testing.T) {
	// The sim addressing convention round-trips through the wire Join.
	addr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{}), 3)
	b := wire.AppendJoin(nil, wire.Join{Addr: addr})
	_, body, err := wire.ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	j, err := wire.ParseJoin(body)
	if err != nil || j.Addr.Port() != 3 {
		t.Errorf("join addr = %v err=%v", j.Addr, err)
	}
}

func TestApplyDelta(t *testing.T) {
	base := NewStaticView([]wire.NodeID{1, 2, 3})
	delta := func(adds []wire.Member, removes ...wire.NodeID) wire.ViewDelta {
		return wire.ViewDelta{Epoch: 1, BaseVersion: 1, Version: 2, Adds: adds, Removes: removes}
	}
	// A removal tombstones its slot in place; an addition lands where the
	// coordinator put it, extending the slot space when that is past the end
	// (slot 4 here, leaving slot 3 a never-assigned tombstone).
	vi, err := base.ApplyDelta(delta([]wire.Member{{ID: 9, Slot: 4}}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if vi.VersionNum() != 2 || vi.N() != 3 {
		t.Fatalf("version=%d n=%d", vi.VersionNum(), vi.N())
	}
	want := []wire.NodeID{1, wire.NilNode, 3, wire.NilNode, 9}
	if vi.Slots() != len(want) {
		t.Fatalf("slots = %d, want %d", vi.Slots(), len(want))
	}
	for i, id := range want {
		if vi.IDAt(i) != id {
			t.Errorf("IDAt(%d) = %d, want %d", i, vi.IDAt(i), id)
		}
	}
	if base.Slots() != 3 || base.IDAt(1) != 2 {
		t.Error("ApplyDelta modified its base")
	}
	// Removals apply first, so one delta may hand a vacated slot straight on.
	if vi, err := base.ApplyDelta(delta([]wire.Member{{ID: 9, Slot: 1}}, 2)); err != nil || vi.IDAt(1) != 9 {
		t.Errorf("remove-then-reuse of slot 1: %v", err)
	}
	for name, d := range map[string]wire.ViewDelta{
		"base mismatch":         {Epoch: 1, BaseVersion: 7, Version: 8},
		"epoch mismatch":        {Epoch: 2, BaseVersion: 1, Version: 2},
		"unknown removal":       delta(nil, 55),
		"add of a held ID":      delta([]wire.Member{{ID: 1, Slot: 3}}),
		"add onto a held slot":  delta([]wire.Member{{ID: 9, Slot: 0}}),
		"two adds to one slot":  delta([]wire.Member{{ID: 8, Slot: 3}, {ID: 9, Slot: 3}}),
		"add at a default slot": delta([]wire.Member{{ID: 9}}),
	} {
		if _, err := base.ApplyDelta(d); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestApplyDeltaSlotCeiling: a delta may add at most up to slot
// wire.MaxSlots−1, the ceiling the coordinator's allocator keeps; an add at
// wire.MaxSlots would build a view one slot past it, and that slot number is
// also what per-slot tables store as "none".
func TestApplyDeltaSlotCeiling(t *testing.T) {
	base := NewStaticView([]wire.NodeID{1, 2, 3})
	delta := func(slot uint16) wire.ViewDelta {
		return wire.ViewDelta{Epoch: 1, BaseVersion: 1, Version: 2, Adds: []wire.Member{{ID: 9, Slot: slot}}}
	}
	if vi, err := base.ApplyDelta(delta(wire.MaxSlots)); err == nil {
		t.Errorf("an add at slot %d accepted: a %d-slot view", wire.MaxSlots, vi.Slots())
	}
	vi, err := base.ApplyDelta(delta(wire.MaxSlots - 1))
	if err != nil || vi.Slots() != wire.MaxSlots || vi.IDAt(wire.MaxSlots-1) != 9 {
		t.Fatalf("an add at the last slot: %v", err)
	}
}

// TestViewTablesAtExactWidth: a view keeps one ID per slot and one member per
// occupant, each table exactly as long as its contents, however it was built;
// Members lists the occupants in slot order with their endpoints, and the
// coordinator's slot-indexed copy puts each at its slot.
func TestViewTablesAtExactWidth(t *testing.T) {
	addr := func(i byte) netip.AddrPort { return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, i}), 7) }
	check := func(name string, vi *ViewInfo, addrs bool) {
		t.Helper()
		if cap(vi.ids) != vi.Slots() || cap(vi.members) != vi.N() || (vi.tombs != nil && cap(vi.tombs) != len(vi.tombs)) {
			t.Errorf("%s: capacities %d/%d/%d for %d slots, %d members, %d tombstones",
				name, cap(vi.ids), cap(vi.members), cap(vi.tombs), vi.Slots(), vi.N(), len(vi.tombs))
		}
		slotted := vi.slotMembers(vi.Slots())
		for i, m := range vi.Members() {
			if i > 0 && m.Slot <= vi.Members()[i-1].Slot {
				t.Errorf("%s: members out of slot order: %v", name, vi.Members())
			}
			if vi.IDAt(int(m.Slot)) != m.ID || slotted[m.Slot] != m || (addrs && m.Addr != addr(byte(m.ID))) {
				t.Errorf("%s: member %+v, slot holds %d, slot-indexed copy %+v", name, m, vi.IDAt(int(m.Slot)), slotted[m.Slot])
			}
		}
		for _, s := range vi.Tombstones() {
			if slotted[s] != (wire.Member{ID: wire.NilNode}) {
				t.Errorf("%s: tombstone %d copies as %+v", name, s, slotted[s])
			}
		}
	}
	base, err := NewViewInfo(wire.View{Epoch: 1, Version: 1, Slots: 6, Members: []wire.Member{
		{ID: 5, Slot: 4, Addr: addr(5)}, {ID: 1, Slot: 0, Addr: addr(1)}, {ID: 3, Slot: 2, Addr: addr(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	check("wire view", base, true)
	next, err := base.ApplyDelta(wire.ViewDelta{Epoch: 1, BaseVersion: 1, Version: 2, Removes: []wire.NodeID{3},
		Adds: []wire.Member{{ID: 9, Slot: 9, Addr: addr(9)}, {ID: 4, Slot: 2, Addr: addr(4)}, {ID: 7, Slot: 1, Addr: addr(7)}}})
	if err != nil {
		t.Fatal(err)
	}
	check("after a delta", next, true)
	if got := next.Members(); len(got) != 5 || got[1].ID != 7 || got[2].ID != 4 || got[4].ID != 9 {
		t.Errorf("members after the delta: %+v", got)
	}
	check("static", NewStaticView([]wire.NodeID{4, 0, 2}), false)
	if n := testing.AllocsPerRun(100, func() { _ = next.Members() }); n != 0 {
		t.Errorf("Members allocates %v times", n)
	}
}

// TestStableExtension pins the one predicate every view consumer installs
// by: which old → next changes may be patched in place, and which slots they
// retire and start.
func TestStableExtension(t *testing.T) {
	view := func(version uint32, slots ...wire.NodeID) *ViewInfo {
		t.Helper()
		v := wire.View{Epoch: 1, Version: version, Slots: uint16(len(slots))}
		for s, id := range slots {
			if id != wire.NilNode {
				v.Members = append(v.Members, wire.Member{ID: id, Slot: uint16(s)})
			}
		}
		vi, err := NewViewInfo(v)
		if err != nil {
			t.Fatal(err)
		}
		return vi
	}
	const none = wire.NilNode
	old := view(1, 10, 11, none, 13)
	for _, tc := range []struct {
		name             string
		old              *ViewInfo
		oldSelf          int
		next             *ViewInfo
		self             int
		retired, started []int
		ok               bool
	}{
		{name: "identical", old: old, next: view(2, 10, 11, none, 13), ok: true},
		{name: "join appends", old: old, next: view(2, 10, 11, none, 13, 14), started: []int{4}, ok: true},
		{name: "join fills a tombstone", old: old, next: view(2, 10, 11, 12, 13), started: []int{2}, ok: true},
		{name: "leave tombstones", old: old, next: view(2, 10, none, none, 13), retired: []int{1}, ok: true},
		{name: "slot reused across the change", old: old, next: view(2, 10, 21, none, 13, 14),
			retired: []int{1}, started: []int{1, 4}, ok: true},
		{name: "first install", old: nil, next: view(2, 10, 11)},
		{name: "survivor moved", old: old, next: view(2, 10, 13, none, none, 11)},
		{name: "slot space shrank", old: old, next: view(2, 10, 11, none)},
		{name: "own slot changed", old: old, oldSelf: 1, next: view(2, 10, 11, none, 13), self: 0},
		{name: "own ID changed", old: old, next: view(2, 20, 11, none, 13)},
		{name: "own old slot past the old space", old: view(1, 10), oldSelf: 1, next: view(2, 10, 11), self: 1},
	} {
		retired, started, ok := StableExtension(tc.old, tc.oldSelf, tc.next, tc.self)
		if ok != tc.ok || !slices.Equal(retired, tc.retired) || !slices.Equal(started, tc.started) {
			t.Errorf("%s: got retired=%v started=%v ok=%v, want %v %v %v",
				tc.name, retired, started, ok, tc.retired, tc.started, tc.ok)
		}
	}
}

func TestDeltaApplicationOverWire(t *testing.T) {
	// Two clients join, then a third: the first two must receive a delta
	// (not a full view) and still converge on the same view.
	sc := newSimCluster(t, 3, ClientConfig{}, CoordinatorConfig{Coalesce: 500 * time.Millisecond})
	sc.clients[0].Start()
	sc.clients[1].Start()
	sc.nw.RunFor(5 * time.Second)
	v0 := sc.views[0]
	if v0 == nil || v0.N() != 2 {
		t.Fatalf("initial view = %+v", v0)
	}
	before := sc.coord.Stats()
	sc.clients[2].Start()
	sc.nw.RunFor(5 * time.Second)
	after := sc.coord.Stats()
	// With gossip on the incumbents get the delta as tree-seeded envelopes,
	// never as a primary unicast and never as a full view.
	if got := after.SeedsSent - before.SeedsSent; got != 2 {
		t.Errorf("gossip seeds sent for the third join = %d, want 2", got)
	}
	if got := after.DeltasSent - before.DeltasSent; got != 0 {
		t.Errorf("unicast deltas sent for the third join = %d, want 0", got)
	}
	if got := after.FullViewsSent - before.FullViewsSent; got != 1 {
		t.Errorf("full views sent for the third join = %d, want 1 (joiner only)", got)
	}
	for i := 0; i < 3; i++ {
		v := sc.views[i]
		if v == nil || v.N() != 3 || v.VersionNum() != sc.views[0].VersionNum() {
			t.Errorf("client %d view = %+v", i, v)
		}
	}
}

func TestVersionGapTriggersFullView(t *testing.T) {
	sc := newSimCluster(t, 2, ClientConfig{}, CoordinatorConfig{Coalesce: 100 * time.Millisecond})
	sc.clients[0].Start()
	sc.nw.RunFor(3 * time.Second)
	v := sc.views[0]
	if v == nil {
		t.Fatal("no initial view")
	}

	// A bogus future-base delta makes the client ask for a full view, but
	// it already holds the current version, so the coordinator suppresses
	// the redundant send and the client's view stays intact.
	full := sc.coord.Stats().FullViewsSent
	deliverDelta := func(d wire.ViewDelta) {
		b := wire.AppendGossipDelta(nil, CoordinatorID, wire.GossipDelta{Delta: d})
		h, body, _ := wire.ParseHeader(b)
		sc.clients[0].HandlePacket(h, body)
	}
	deliverDelta(wire.ViewDelta{
		Epoch:       1,
		BaseVersion: v.VersionNum() + 5,
		Version:     v.VersionNum() + 6,
		Adds:        []wire.Member{{ID: 77}},
	})
	sc.nw.RunFor(2 * time.Second)
	if got := sc.coord.Stats().FullViewsSent; got != full {
		t.Errorf("full views served = %d, want %d (up-to-date requester suppressed)", got, full)
	}
	if sc.views[0].N() != 1 {
		t.Errorf("view has %d members after bogus delta", sc.views[0].N())
	}

	// A genuine gap: client 0 misses the broadcast for client 1's join
	// (partitioned), then receives a delta built on the version it never
	// saw. The resulting full-view request must be served and converge it.
	sc.nw.SetNodeDown(0, true)
	sc.clients[1].Start()
	sc.nw.RunFor(3 * time.Second)
	sc.nw.SetNodeDown(0, false)
	if sc.coord.Version() == v.VersionNum() {
		t.Fatal("coordinator version did not advance")
	}
	deliverDelta(wire.ViewDelta{
		Epoch:       1,
		BaseVersion: sc.coord.Version(),
		Version:     sc.coord.Version() + 1,
		Adds:        []wire.Member{{ID: 88}},
	})
	sc.nw.RunFor(2 * time.Second)
	if sc.views[0] == nil || sc.views[0].N() != 2 {
		t.Errorf("gap recovery failed: view = %+v", sc.views[0])
	}
	if sc.views[0].VersionNum() != sc.coord.Version() {
		t.Errorf("recovered version = %d, want %d", sc.views[0].VersionNum(), sc.coord.Version())
	}
}

func TestJoinStormMessageComplexity(t *testing.T) {
	// n members settled, then k join inside one coalesce window: the
	// coordinator must send O(n + k) membership messages (k full views, n
	// deltas), not O(n·k).
	const n, k = 30, 10
	sc := newSimCluster(t, n+k, ClientConfig{}, CoordinatorConfig{Coalesce: time.Second})
	for i := 0; i < n; i++ {
		sc.clients[i].Start()
	}
	sc.nw.RunFor(10 * time.Second)
	if sc.coord.MemberCount() != n {
		t.Fatalf("settled member count = %d", sc.coord.MemberCount())
	}
	sent := countCoordSends(sc)
	*sent = 0
	for i := n; i < n+k; i++ {
		sc.clients[i].Start()
	}
	sc.nw.RunFor(10 * time.Second)
	if sc.coord.MemberCount() != n+k {
		t.Fatalf("member count = %d after storm", sc.coord.MemberCount())
	}
	// Linear bound with slack for a joiner's retried snapshot; the quadratic
	// alternative would be ≥ n·k = 300.
	if *sent > 2*(n+2*k) {
		t.Errorf("coordinator sent %d membership messages for a %d-node storm on %d members (want O(n+k))", *sent, k, n)
	}
	if got := sc.coord.Stats().Broadcasts; got > 3 {
		t.Errorf("storm produced %d broadcasts, want coalesced ≤ 3", got)
	}
}

// countCoordSends installs an OnSend hook counting membership-plane packets
// leaving the coordinator's endpoint and returns a pointer to the counter.
func countCoordSends(sc *simCluster) *int {
	count := new(int)
	coordEP := len(sc.clients) // coordinator is the last endpoint
	sc.nw.OnSend = func(from, to int, payload []byte) {
		if from == coordEP && wire.CategoryOf(wire.PeekType(payload)) == wire.CatMembership {
			*count++
		}
	}
	return count
}

func TestEvictedClientRejoins(t *testing.T) {
	ccfg := CoordinatorConfig{Timeout: 30 * time.Second, Sweep: 5 * time.Second, Coalesce: 500 * time.Millisecond}
	sc := newSimCluster(t, 2, ClientConfig{Heartbeat: 10 * time.Second, JoinRetry: 2 * time.Second}, ccfg)
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(5 * time.Second)
	if sc.coord.MemberCount() != 2 {
		t.Fatalf("member count = %d", sc.coord.MemberCount())
	}
	oldID := sc.envs[0].LocalID()

	// Partition node 0 long enough to be expired, then heal.
	sc.nw.SetNodeDown(0, true)
	sc.nw.RunFor(time.Minute)
	if sc.coord.MemberCount() != 1 {
		t.Fatalf("member count = %d during partition", sc.coord.MemberCount())
	}
	sc.nw.SetNodeDown(0, false)
	// The next heartbeat from the evicted ID draws the primary's stamp, newer
	// than the client's view; the client rejoins with a fresh ID.
	sc.nw.RunFor(30 * time.Second)
	if sc.coord.MemberCount() != 2 {
		t.Fatalf("member count = %d after heal, want 2 (rejoined)", sc.coord.MemberCount())
	}
	if !sc.clients[0].Joined() {
		t.Fatal("client 0 not rejoined")
	}
	if id := sc.envs[0].LocalID(); id == oldID || id == wire.NilNode {
		t.Errorf("rejoined with ID %d, want a fresh assignment (was %d)", id, oldID)
	}
	// Both clients converge on a 2-member view containing the new ID.
	for i := 0; i < 2; i++ {
		v := sc.views[i]
		if v == nil || v.N() != 2 {
			t.Errorf("client %d view = %+v", i, v)
			continue
		}
		if _, ok := v.SlotOf(sc.envs[0].LocalID()); !ok {
			t.Errorf("client %d view lacks the rejoined ID", i)
		}
	}
}

// Joined reports whether the node has been admitted and holds a view.
func (c *Client) Joined() bool { return c.joined && c.view != nil }

// View returns the current view, or nil before the first one arrives.
func (c *Client) View() *ViewInfo { return c.view }

// Version returns the current view version. Call from within env.Do.
func (c *Coordinator) Version() uint32 { return c.version }

// TestSlotSpaceAgreesWhenAJoinerLeavesInItsWindow: a joiner extends the slot
// space and leaves within one coalesce window while another joins. The flush
// must not broadcast the slot no view ever showed: a member fed the delta
// (which grows only to the highest added slot), a member fed the snapshot and
// the primary end with one slot count, so they derive one grid.
func TestSlotSpaceAgreesWhenAJoinerLeavesInItsWindow(t *testing.T) {
	sc := newSimCluster(t, 4, ClientConfig{}, CoordinatorConfig{})
	sc.clients[0].Start()
	sc.clients[1].Start()
	sc.nw.RunFor(3 * time.Second)
	if sc.coord.MemberCount() != 2 {
		t.Fatalf("member count = %d", sc.coord.MemberCount())
	}
	seeds := sc.coord.Stats().SeedsSent

	sc.clients[2].Start() // fed the snapshot, as an added member
	x := sc.envs[3]       // a joiner with no client: it joins, then leaves
	x.Send(CoordinatorID, wire.AppendJoin(nil, wire.Join{Addr: x.LocalAddr()}))
	sc.nw.RunFor(100 * time.Millisecond)
	s, ok := sc.coord.byAddr[x.LocalAddr()]
	if !ok {
		t.Fatal("the raw join was not admitted")
	}
	x.Send(CoordinatorID, wire.AppendLeave(nil, sc.coord.seats[s].ID))
	sc.nw.RunFor(3 * time.Second)

	if sc.coord.Stats().SeedsSent == seeds || sc.views[2] == nil {
		t.Fatalf("the window's flush was not a delta plus a snapshot (seeds %d → %d, snapshot %v)",
			seeds, sc.coord.Stats().SeedsSent, sc.views[2] != nil)
	}
	primary := len(sc.coord.Members())
	delta, snap := sc.views[0], sc.views[2]
	if delta.Stamp() != sc.coord.Stamp() || snap.Stamp() != sc.coord.Stamp() {
		t.Fatalf("views at %v and %v, primary at %v", delta.Stamp(), snap.Stamp(), sc.coord.Stamp())
	}
	if delta.Slots() != primary || snap.Slots() != primary || primary != 3 {
		t.Errorf("slots: delta-fed %d, snapshot-fed %d, primary %d; want 3 each", delta.Slots(), snap.Slots(), primary)
	}
}
