package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// cornerQuorum is the router at slot 0 of the 3×3 view {0..8} — rows {0 1 2}
// {3 4 5} {6 7 8}, so slot 4's default rendezvous are slots 1 and 3 — on a
// network of its own, holding a fully alive row, with alive deciding link
// liveness (nil: every link is up).
func cornerQuorum(t *testing.T, cfg QuorumConfig, alive func(slot int) bool) (*Quorum, func(time.Duration)) {
	t.Helper()
	env, nw := soloEnv()
	cfg.Interval = 15 * time.Second
	q, err := NewQuorum(env, cfg, slotView(t, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	q.SelfRow = func() []wire.LinkEntry { return aliveRow(q.view.Slots(), 0) }
	q.LinkAlive = func(slot int) bool { return alive == nil || alive(slot) }
	return q, nw.RunFor
}

// recommend delivers one single-entry recommendation from the member with ID
// from: a route to dst through hop.
func recommend(q *Quorum, from, dst, hop wire.NodeID) {
	msg := wire.AppendRecommendation(nil, from, wire.Recommendation{
		ViewVersion: q.view.VersionNum(),
		Entries:     []wire.RecEntry{{Dst: dst, Hop: hop, Cost: 25}},
	})
	h, body, _ := wire.ParseHeader(msg)
	q.HandleRecommendation(h, body)
}

// TestSilenceClockSurvivesStableInstall: a default rendezvous with a live link
// that never recommends a destination is declared failed one remoteSilence
// after the pairing began, however many stable installs land in between. A
// clock that restarted at each install — what the start-of-view grace did —
// would never expire under steady churn.
func TestSilenceClockSurvivesStableInstall(t *testing.T) {
	q, run := cornerQuorum(t, QuorumConfig{DisableFailover: true}, nil)
	doubles := func() int {
		q.detectFailures()
		return q.Stats().DoubleFailures
	}
	// Two stable installs, each replacing the occupant of slot 8.
	for v, id := range []wire.NodeID{20, 21} {
		run(15 * time.Second)
		if err := q.SetView(slotView(t, uint32(v+2), 0, 1, 2, 3, 4, 5, 6, 7, id), 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.Stats(); st.ViewExtends != 2 || st.ViewRemaps != 0 {
		t.Fatalf("extends=%d remaps=%d, want 2/0", st.ViewExtends, st.ViewRemaps)
	}
	run(5 * time.Second) // 35 s in: inside remoteSilence (38.5 s) for everyone
	if got := doubles(); got != 0 {
		t.Fatalf("%d double failures inside the grace period", got)
	}
	// 40 s in: slots 4, 5 and 7 have heard nothing since their pairings began;
	// slots 1, 2, 3, 6 are their own rendezvous (link liveness decides), and
	// slot 8's pairings began at its last reuse, 10 s ago.
	run(5 * time.Second)
	if got := doubles(); got != 3 {
		t.Errorf("%d double failures 40 s after the pairings began, want 3 (slots 4, 5, 7)", got)
	}
	// One word from a default rendezvous revives exactly its destination.
	recommend(q, 3, 4, 4)
	if got := doubles(); got != 2 {
		t.Errorf("%d double failures after slot 3 recommended slot 4, want 2", got)
	}
}

// TestStrangerRecommendationMovesNoClock: a recommendation from a member that
// is neither a default rendezvous of the entry's destination nor its recruited
// failover still installs its route (latest wins, footnote 11) but touches no
// §4.1 state and allocates nothing beyond the parsed message.
func TestStrangerRecommendationMovesNoClock(t *testing.T) {
	q, run := cornerQuorum(t, QuorumConfig{}, nil)
	run(10 * time.Second)
	before := slices.Clone(q.rv.heard)

	recommend(q, 8, 4, 5) // slot 8 serves neither slot 0 nor the pair (0, 4)
	if e := q.routes[4].entry(); e.Source != SourceRendezvous || e.From != 8 || e.Hop != 5 {
		t.Errorf("stranger's route not installed: %+v", e)
	}
	if !slices.Equal(q.rv.heard, before) {
		t.Errorf("a stranger's recommendation moved a silence clock:\n got %v\nwant %v", q.rv.heard, before)
	}
	for dst, fo := range q.failovers {
		if fo != nil {
			t.Errorf("a stranger's recommendation opened an episode toward slot %d", dst)
		}
	}

	msg := wire.AppendRecommendation(nil, 8, wire.Recommendation{ViewVersion: 1,
		Entries: []wire.RecEntry{{Dst: 4, Hop: 5, Cost: 25}, {Dst: 7, Hop: 7, Cost: 9}}})
	h, body, _ := wire.ParseHeader(msg)
	parse := testing.AllocsPerRun(100, func() { _, _ = wire.ParseRecommendation(body) })
	if handle := testing.AllocsPerRun(100, func() { q.HandleRecommendation(h, body) }); handle > parse {
		t.Errorf("handling a stranger's recommendation allocates %.0f times, parsing it %.0f", handle, parse)
	}

	// Nor does a full-size message — 36 entries, what a rendezvous of an 18×18
	// grid sends — from anybody: the body is walked in place, and with no
	// update hook set no RouteEntry is built.
	full := wire.NewRecommendation(8, 1, 36)
	for i := 0; i < 36; i++ {
		wire.PutRecEntry(full, i, wire.RecEntry{Dst: wire.NodeID(1 + i%7), Hop: wire.NodeID(1 + (i+3)%7), Cost: wire.Cost(10 + i)})
	}
	h, body, _ = wire.ParseHeader(full)
	if allocs := testing.AllocsPerRun(100, func() { q.HandleRecommendation(h, body) }); allocs != 0 {
		t.Errorf("handling a 36-entry recommendation allocates %.0f times, want 0", allocs)
	}
	if e := q.routes[7].entry(); e.Source != SourceRendezvous || e.From != 8 || e.Cost != 44 {
		t.Errorf("the 36-entry message's last word on slot 7 not installed: %+v", e)
	}

	// The same words from a default rendezvous move that pairing's clock only.
	recommend(q, 1, 4, 5)
	now := q.env.Now().UnixNano()
	for dst := 0; dst < 9; dst++ {
		for _, p := range pairingsToward(q, dst) {
			if want := dst == 4 && p.slot == 1; (p.heard == now) != want {
				t.Errorf("pairing (%d, %d) heard at %d, now %d", dst, p.slot, p.heard, now)
			}
		}
	}
}

// TestSelfHopRecommendationDropped: a route through the receiver itself is no
// route. Such an entry is dropped as malformed — though its sender was still
// heard from — and a symmetric round 2, which evaluates each pair once, names
// the direct path by the far end for both endpoints.
func TestSelfHopRecommendationDropped(t *testing.T) {
	q, run := cornerQuorum(t, QuorumConfig{}, nil)
	run(10 * time.Second)
	recommend(q, 1, 4, 0)
	if e := q.routes[4].entry(); e.Source != SourceNone {
		t.Errorf("route through the receiver installed: %+v", e)
	}
	if *q.rv.clock(1, 4) != q.env.Now().UnixNano() {
		t.Error("the dropped entry's sender was not heard from")
	}

	c := newCluster(t, 16, 5, "quorum", QuorumConfig{})
	c.nw.RunFor(2 * time.Minute)
	c.assertAllOptimal()
	direct := 0
	for i, r := range c.routers {
		for dst, e := range r.Routes() {
			if e.Source != SourceNone && e.Hop == i {
				t.Fatalf("node %d routes to %d through itself: %+v", i, dst, e)
			}
			if e.Source == SourceRendezvous && e.Hop == dst && dst < i {
				direct++ // the second endpoint of its pair, told "direct"
			}
		}
	}
	if direct == 0 {
		t.Error("no second endpoint was recommended a direct path: the check never ran")
	}
}

// TestReusedSlotIsNotTried: when a slot retires, every open failover episode
// forgets having tried it, so the member admitted into it can be recruited by
// an episode that outlives the change.
func TestReusedSlotIsNotTried(t *testing.T) {
	up := map[int]bool{4: true, 5: true} // of slot 8's candidates {2, 5, 6, 7}, only 5 is reachable
	q, _ := cornerQuorum(t, QuorumConfig{}, func(slot int) bool { return up[slot] })
	fo := &failoverState{server: 5, tried: map[int]bool{5: true}}
	q.failovers[8] = fo
	if err := q.SetView(slotView(t, 2, 0, 1, 2, 3, 4, 20, 6, 7, 8), 0); err != nil {
		t.Fatal(err)
	}
	if q.failovers[8] != fo || fo.server != -1 || len(fo.tried) != 0 {
		t.Fatalf("episode after its server's slot was reused = %+v, want no server and nothing tried", fo)
	}
	q.recruitFailover(8, fo)
	if fo.server != 5 || q.Stats().FailoverAttempts != 1 {
		t.Errorf("the new occupant of slot 5 was not recruited: %+v", fo)
	}
}

// TestFailoverGraceOneClock: a recruited failover is judged by the same clock
// as a default rendezvous, started at recruitment — silent for remoteSilence
// it is replaced, recommending the destination it is kept.
func TestFailoverGraceOneClock(t *testing.T) {
	// Both default rendezvous of slot 4 are unreachable: slots 5 and 7 remain
	// of its row and column.
	q, run := cornerQuorum(t, QuorumConfig{}, func(slot int) bool { return slot != 1 && slot != 3 })
	q.detectFailures()
	first := q.FailoverServer(4)
	if first != 5 && first != 7 {
		t.Fatalf("failover server %d, want 5 or 7", first)
	}
	second := 12 - first

	run(30 * time.Second)
	recommend(q, wire.NodeID(first), 4, 4)
	run(10 * time.Second) // 40 s after recruitment, 10 s after its last word
	q.detectFailures()
	if got := q.FailoverServer(4); got != first {
		t.Fatalf("failover server %d replaced by %d while it was recommending", first, got)
	}
	run(29 * time.Second) // 39 s of silence
	q.detectFailures()
	if got := q.FailoverServer(4); got != second {
		t.Fatalf("failover server %d after %d went silent, want %d", got, first, second)
	}
	// The replacement never speaks: its grace runs from its own recruitment.
	run(38 * time.Second)
	q.detectFailures()
	if got := q.FailoverServer(4); got != second {
		t.Errorf("failover server %d replaced by %d inside its grace period", second, got)
	}
	run(time.Second)
	q.detectFailures()
	if got, st := q.FailoverServer(4), q.Stats(); got == second || st.FailoverAttempts < 3 {
		t.Errorf("silent failover server %d kept past remoteSilence (attempts %d)", got, st.FailoverAttempts)
	}
}

// TestUnresolvedLinkIsUnknownNotDead: slot 4's default rendezvous, slots 1 and
// 3, are not alive. While no probe on those links has resolved, they still get
// round 1's row and are no proximal failure; once resolved dead, slot 4 is a
// double failure and a failover is recruited — as it is, from the first tick,
// when the router has no LinkResolved hook.
func TestUnresolvedLinkIsUnknownNotDead(t *testing.T) {
	for _, tc := range []struct {
		name     string
		resolved func(slot int) bool
		rows     uint64 // round-1 rows sent to servers {1, 2, 3, 6}
		doubles  int
	}{
		{"unresolved", func(slot int) bool { return slot != 1 && slot != 3 }, 4, 0},
		{"resolved", func(int) bool { return true }, 2, 1},
		{"nil hook", nil, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, _ := cornerQuorum(t, QuorumConfig{}, func(slot int) bool { return slot != 1 && slot != 3 })
			q.LinkResolved = tc.resolved
			q.sendLinkState()
			if rows := q.Stats().LinkStatesSent; rows != tc.rows {
				t.Errorf("round 1 sent %d rows, want %d", rows, tc.rows)
			}
			q.detectFailures()
			if doubles := q.Stats().DoubleFailures; doubles != tc.doubles {
				t.Errorf("%d double failures, want %d", doubles, tc.doubles)
			}
			if recruited := q.FailoverServer(4) >= 0; recruited != (tc.doubles > 0) {
				t.Errorf("failover toward slot 4 recruited: %v, want %v", recruited, tc.doubles > 0)
			}
		})
	}
}

// CheckSilenceState holds a router's §4.1 state to the bound no run can
// exceed: one run of clocks per server of this node, each listing slots in
// ascending order, and at most Slots()·(len(Servers(self))+2) pairings — and
// failover episodes exist, one each, only toward occupied destinations.
// Exported for the fleet-driving tests, which live in package core_test
// because package emul imports this one.
func CheckSilenceState(q *Quorum) error {
	n, rv := q.view.Slots(), &q.rv
	if !slices.Equal(rv.servers, q.servers) || len(rv.run) != len(q.servers)+1 || rv.run[0] != 0 ||
		int(rv.run[len(q.servers)]) != len(rv.slot) || len(rv.heard) != len(rv.slot) || len(q.failovers) != n {
		return fmt.Errorf("%d slots: %d runs for %d servers, %d slots and %d clocks, %d failover slots",
			n, len(rv.run)-1, len(q.servers), len(rv.slot), len(rv.heard), len(q.failovers))
	}
	for i, k := range q.servers {
		run := rv.slot[rv.run[i]:rv.run[i+1]]
		for j, dst := range run {
			if int(dst) >= n || int(dst) == q.self || (j > 0 && dst <= run[j-1]) {
				return fmt.Errorf("server %d's run %v is no ascending list of other slots", k, run)
			}
		}
	}
	if bound := n * (len(q.g.Servers(q.self)) + 2); len(rv.slot) > bound {
		return fmt.Errorf("%d pairings exceed Slots·(servers+2) = %d", len(rv.slot), bound)
	}
	for dst, fo := range q.failovers {
		if fo != nil && (dst == q.self || !q.view.Occupied(dst)) {
			return fmt.Errorf("failover episode toward slot %d, which holds no destination", dst)
		}
	}
	return nil
}

// clock returns rendezvous k's clock for dst, or nil when k is no server of
// this node or holds no row of dst.
func (t *silence) clock(k, dst int) *int64 {
	i, ok := slices.BinarySearch(t.servers, k)
	if !ok {
		return nil
	}
	slots, heard := t.server(i)
	if j, ok := slices.BinarySearch(slots, uint16(dst)); ok {
		return &heard[j]
	}
	return nil
}

// pairing is one default rendezvous of a destination and its clock.
type pairing struct {
	slot  int
	heard int64
}

// pairingsToward reads dst's pairings out of the clock runs, in slot order.
func pairingsToward(q *Quorum, dst int) []pairing {
	var out []pairing
	for _, k := range q.rv.servers {
		if c := q.rv.clock(k, dst); c != nil {
			out = append(out, pairing{slot: k, heard: *c})
		}
	}
	return out
}

// clocks snapshots every pairing's clock, keyed by (destination, rendezvous).
func clocks(q *Quorum) map[[2]int]int64 {
	out := map[[2]int]int64{}
	for dst := 0; dst < q.view.Slots(); dst++ {
		for _, p := range pairingsToward(q, dst) {
			out[[2]int{dst, p.slot}] = p.heard
		}
	}
	return out
}

// TestSilenceStateBound sizes the silence table on every node of dense views
// (same-line destinations share a whole line of rendezvous, everyone else
// two: under 4n + 2⌈√n⌉) and of views with 5–30 % tombstones, where deputies
// inherit whole lines and only the structural bound holds.
func TestSilenceStateBound(t *testing.T) {
	for _, n := range []int{9, 60, 200, 324} {
		for _, deadPct := range []int{0, 5, 15, 30} {
			ids := make([]wire.NodeID, n)
			rng := rand.New(rand.NewSource(int64(n + deadPct)))
			for s := range ids {
				ids[s] = wire.NodeID(s)
				if s > 0 && rng.Intn(100) < deadPct {
					ids[s] = wire.NilNode
				}
			}
			view := slotView(t, 1, ids...)
			env, _ := soloEnv()
			dense := 4*n + 2*int(math.Ceil(math.Sqrt(float64(n))))
			worst := 0
			for self, id := range ids {
				if id == wire.NilNode {
					continue
				}
				q, err := NewQuorum(env, QuorumConfig{}, view, self)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckSilenceState(q); err != nil {
					t.Fatalf("n=%d dead=%d%% self=%d: %v", n, deadPct, self, err)
				}
				worst = max(worst, len(q.rv.slot))
			}
			if deadPct == 0 && worst > dense {
				t.Errorf("n=%d dense: worst node holds %d pairings, bound %d", n, worst, dense)
			}
			t.Logf("n=%d dead=%d%%: worst node holds %d pairings (%.2f of the dense bound %d)",
				n, deadPct, worst, float64(worst)/float64(dense), dense)
		}
	}
}

// checkSilenceSlots holds the silence table to the grid: toward every
// destination, the pairings' slots are grid.Common(self, dst) less self, in
// order. pairRendezvous fills the table by walking this node's servers and
// their clients instead, which is right only while the relation is symmetric.
func checkSilenceSlots(t *testing.T, q *Quorum) {
	t.Helper()
	for dst := 0; dst < q.view.Slots(); dst++ {
		var want []int
		if q.view.Occupied(dst) {
			for _, k := range q.g.Common(q.self, dst) {
				if k != q.self {
					want = append(want, k)
				}
			}
		}
		var got []int
		for _, p := range pairingsToward(q, dst) {
			got = append(got, p.slot)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d self=%d: pairings toward slot %d are %v, Common less self is %v",
				q.view.Slots(), q.self, dst, got, want)
		}
	}
}

// TestSilenceTableMatchesCommon: after a cold install, and after a stable one
// that retires a member, reuses a tombstone and appends a slot, on dense and
// 5–30 %-tombstoned views.
func TestSilenceTableMatchesCommon(t *testing.T) {
	for _, n := range []int{9, 60, 200, 324} {
		for _, deadPct := range []int{0, 5, 15, 30} {
			ids := make([]wire.NodeID, n)
			rng := rand.New(rand.NewSource(int64(n + deadPct)))
			for s := range ids {
				ids[s] = wire.NodeID(s)
				if s > 0 && rng.Intn(100) < deadPct {
					ids[s] = wire.NilNode
				}
			}
			// The stable successor: the last member leaves, the first tombstone
			// (if any) is filled, one slot is appended.
			next := append(append([]wire.NodeID(nil), ids...), wire.NodeID(n))
			for s := n - 1; s > 0; s-- {
				if next[s] != wire.NilNode {
					next[s] = wire.NilNode
					break
				}
			}
			for s, id := range ids {
				if id == wire.NilNode {
					next[s] = wire.NodeID(n + 1)
					break
				}
			}
			view, nextView := slotView(t, 1, ids...), slotView(t, 2, next...)
			env, _ := soloEnv()
			for self := 0; self < n; self += max(1, n/24) {
				if ids[self] == wire.NilNode || next[self] == wire.NilNode {
					continue
				}
				q, err := NewQuorum(env, QuorumConfig{}, view, self)
				if err != nil {
					t.Fatal(err)
				}
				checkSilenceSlots(t, q)
				if err := q.SetView(nextView, self); err != nil {
					t.Fatal(err)
				}
				if q.Stats().ViewExtends != 1 {
					t.Fatalf("n=%d dead=%d%% self=%d: second install was not a stable extension", n, deadPct, self)
				}
				checkSilenceSlots(t, q)
			}
		}
	}
}

// TestQuorumStableInstallAllocs: a stable install allocates the tables it
// installs and one server set per rendezvous server, not a grid's worth of
// them. The measured op is BenchmarkViewRemap's: the last slot's member joins,
// then leaves.
func TestQuorumStableInstallAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates on its own")
			}
		}
	}
	const n = 500
	ids := make([]wire.NodeID, n+1)
	for s := range ids {
		ids[s] = wire.NodeID(s)
	}
	joined := slotView(t, 2, ids...)
	ids[n] = wire.NilNode
	left := slotView(t, 1, ids...)
	env, _ := soloEnv()
	q, err := NewQuorum(env, QuorumConfig{}, left, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if q.SetView(joined, 0) != nil || q.SetView(left, 0) != nil {
			t.Fatal("install failed")
		}
	})
	if st := q.Stats(); st.ViewRemaps != 0 {
		t.Fatalf("%d installs went cold", st.ViewRemaps)
	}
	if allocs > 300 {
		t.Errorf("%.0f allocations per join+leave at n=%d, want at most 300", allocs, n)
	}
}

// TestRecommendationWalkMatchesLookup: HandleRecommendation moves a clock by
// walking the message against its sender's run, so it must move exactly the
// clocks a per-entry lookup names — whatever the entries' order, duplicates,
// strangers and unknown IDs included, from servers and non-servers alike.
func TestRecommendationWalkMatchesLookup(t *testing.T) {
	const n = 49
	ids := make([]wire.NodeID, n)
	for s := range ids {
		ids[s] = wire.NodeID(s)
	}
	ids[12], ids[30] = wire.NilNode, wire.NilNode
	env, nw := soloEnv()
	q, err := NewQuorum(env, QuorumConfig{}, slotView(t, 1, ids...), 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 300; round++ {
		nw.RunFor(time.Second)
		from := rng.Intn(n)
		if ids[from] == wire.NilNode || from == q.self {
			continue
		}
		var dsts []int
		for dst := 0; dst < n+3; dst++ { // n, n+1 and n+2 are nobody's IDs
			if rng.Intn(3) == 0 {
				dsts = append(dsts, dst)
			}
		}
		switch rng.Intn(3) {
		case 0: // what a rendezvous sends: its clients ascending, then itself
			dsts = append(slices.DeleteFunc(dsts, func(d int) bool { return d == from }), from)
		case 1:
			rng.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
		default:
			dsts = append(dsts, dsts...)
		}
		want := clocks(q)
		now := env.Now().UnixNano()
		rec := wire.Recommendation{ViewVersion: 1}
		for _, dst := range dsts {
			rec.Entries = append(rec.Entries, wire.RecEntry{Dst: wire.NodeID(dst), Hop: wire.NodeID(dst), Cost: 10})
			if _, ok := want[[2]int{dst, from}]; ok {
				want[[2]int{dst, from}] = now
			}
		}
		h, body, _ := wire.ParseHeader(wire.AppendRecommendation(nil, wire.NodeID(from), rec))
		q.HandleRecommendation(h, body)
		if got := clocks(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: %d's entries %v moved the clocks wrongly", round, from, dsts)
		}
	}
}

// TestAckOutsideReliableModeIgnored: a router not in reliable mode keeps no
// pending-ack table, and an ack that reaches it anyway is dropped without a
// panic or an allocation.
func TestAckOutsideReliableModeIgnored(t *testing.T) {
	q, _ := cornerQuorum(t, QuorumConfig{}, nil)
	if q.pendingAcks != nil {
		t.Fatalf("a best-effort router keeps %d pending-ack slots", len(q.pendingAcks))
	}
	h, body, _ := wire.ParseHeader(wire.AppendLinkStateAck(nil, 3, 1))
	if allocs := testing.AllocsPerRun(100, func() { q.HandleLinkStateAck(h, body) }); allocs != 0 {
		t.Errorf("dropping an ack allocates %.0f times, want 0", allocs)
	}
	reliable, _ := cornerQuorum(t, QuorumConfig{ReliableLinkState: true}, nil)
	reliable.sendLinkState()
	if reliable.pendingAcks[3] != reliable.seq {
		t.Fatalf("reliable router awaits seq %d from slot 3, want %d", reliable.pendingAcks[3], reliable.seq)
	}
	reliable.HandleLinkStateAck(h, body)
	if reliable.pendingAcks[3] != 0 {
		t.Error("reliable router did not clear the acknowledged row")
	}
}
