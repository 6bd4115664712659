package membership

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"testing"
	"time"

	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// repCluster wires m coordinator replicas plus k clients over a simulated
// network: clients at endpoints 0..k-1, replicas at k..k+m-1 in rank order.
type repCluster struct {
	nw      *simnet.Network
	reg     *transport.Registry
	coords  []*Coordinator
	cenvs   []*transport.SimEnv
	clients []*Client
	envs    []*transport.SimEnv
	views   []*ViewInfo
}

func newRepCluster(t *testing.T, k, m int, cfg ClientConfig, ccfg CoordinatorConfig) *repCluster {
	t.Helper()
	nw := simnet.New(k+m, 7)
	reg := transport.NewRegistry()
	for a := 0; a < k+m; a++ {
		for b := 0; b < k+m; b++ {
			if a != b {
				nw.SetLatency(a, b, 10*time.Millisecond)
			}
		}
	}
	rc := &repCluster{nw: nw, reg: reg, views: make([]*ViewInfo, k)}

	ids := CoordinatorIDs(m)
	ccfg.Coordinators = ids
	cfg.Coordinators = ids
	for r := 0; r < m; r++ {
		rc.cenvs = append(rc.cenvs, transport.NewSimEnv(nw, reg, k+r, int64(100+r)))
	}
	for r := 0; r < m; r++ {
		for o := 0; o < m; o++ {
			if r != o {
				rc.cenvs[r].SetPeer(ids[o], rc.cenvs[o].LocalAddr())
			}
		}
		c := ccfg
		c.Rank = r
		rc.coords = append(rc.coords, NewCoordinator(rc.cenvs[r], c))
	}
	for _, c := range rc.coords {
		c.Start()
	}
	for i := 0; i < k; i++ {
		i := i
		env := transport.NewSimEnv(nw, reg, i, int64(i+2))
		for r, id := range ids {
			env.SetPeer(id, rc.cenvs[r].LocalAddr())
		}
		cl := NewClient(env, cfg, func(v *ViewInfo) { rc.views[i] = v })
		env.Bind(memberHandler(cl))
		rc.clients = append(rc.clients, cl)
		rc.envs = append(rc.envs, env)
	}
	return rc
}

// restartCoordinator models a process restart of rank r: a fresh Coordinator
// on the same endpoint (Bind replaces the dead one's handler).
func (rc *repCluster) restartCoordinator(r int, ccfg CoordinatorConfig) *Coordinator {
	ids := CoordinatorIDs(len(rc.coords))
	ccfg.Coordinators = ids
	ccfg.Rank = r
	c := NewCoordinator(rc.cenvs[r], ccfg)
	rc.coords[r] = c
	c.Start()
	return c
}

// churnClientCfg keeps the heartbeat and join clocks fast enough for short
// test runs.
func churnClientCfg() ClientConfig {
	return ClientConfig{Heartbeat: 5 * time.Second, JoinRetry: time.Second}
}

func fastCoordCfg(t *testing.T) CoordinatorConfig {
	return CoordinatorConfig{
		Coalesce:       200 * time.Millisecond,
		BeaconInterval: time.Second,
		Logf:           t.Logf,
	}
}

// TestHeartbeatAnswers: a member's heartbeat renews its lease and draws
// nothing; one from an ID no seat holds draws one datagram, the primary's
// stamp, however many chunks the view's snapshot would take.
func TestHeartbeatAnswers(t *testing.T) {
	const k = wire.ViewChunkMembers + 2
	sc := newSimCluster(t, k, churnClientCfg(), CoordinatorConfig{})
	for _, cl := range sc.clients {
		cl.Start()
	}
	sc.nw.RunFor(10 * time.Second)
	if sc.coord.MemberCount() != k {
		t.Fatalf("%d members seated, want %d", sc.coord.MemberCount(), k)
	}
	var answers [][]byte
	sc.nw.OnSend = func(from, to int, p []byte) {
		if from == k {
			answers = append(answers, p)
		}
	}
	member := sc.envs[0].LocalID()
	lease := sc.coord.seats[sc.coord.slotOf[member]].at
	sc.envs[0].Send(CoordinatorID, wire.AppendHeartbeat(nil, member))
	sc.nw.RunFor(time.Second)
	if renewed := sc.coord.seats[sc.coord.slotOf[member]].at; len(answers) != 0 || !renewed.After(lease) {
		t.Errorf("a member's heartbeat drew %d datagrams and renewed its lease %v → %v; want none and renewed", len(answers), lease, renewed)
	}

	const stranger = wire.NodeID(60000)
	sc.reg.Register(stranger, 0)
	sc.envs[0].Send(CoordinatorID, wire.AppendHeartbeat(nil, stranger))
	sc.nw.RunFor(time.Second)
	if len(answers) != 1 || len(answers[0]) != wire.HeaderLen+8 || wire.PeekType(answers[0]) != wire.THeartbeatAck {
		t.Fatalf("a stranger's heartbeat drew %d datagrams, want one of %d bytes", len(answers), wire.HeaderLen+8)
	}
	_, body, _ := wire.ParseHeader(answers[0])
	if st, err := wire.ParseStamped(body); err != nil || st != sc.coord.Stamp() {
		t.Errorf("the answer carries %v (%v), want the primary's stamp %v", st, err, sc.coord.Stamp())
	}
}

func TestStandbyReplicatesView(t *testing.T) {
	rc := newRepCluster(t, 3, 2, churnClientCfg(), fastCoordCfg(t))
	// The clients send everything to both replicas, but never hear from the
	// standby.
	k, standbySent := len(rc.clients), 0
	rc.nw.OnSend = func(from, to int, _ []byte) {
		if from == k+1 && to < k { // rank 1 to a client
			standbySent++
		}
	}
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(10 * time.Second)
	if !rc.coords[0].IsPrimary() || rc.coords[1].IsPrimary() {
		t.Fatalf("roles wrong: rank0=%v rank1=%v", rc.coords[0].IsPrimary(), rc.coords[1].IsPrimary())
	}
	if got := rc.coords[1].MemberCount(); got != 3 {
		t.Errorf("standby replica holds %d members, want 3", got)
	}
	if rc.coords[1].Stamp() != rc.coords[0].Stamp() {
		t.Errorf("standby stamp %+v != primary stamp %+v", rc.coords[1].Stamp(), rc.coords[0].Stamp())
	}
	if standbySent != 0 {
		t.Errorf("standby sent %d datagrams to clients, want none", standbySent)
	}
}

func TestFailoverOnPrimaryCrash(t *testing.T) {
	rc := newRepCluster(t, 4, 3, churnClientCfg(), fastCoordCfg(t))
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(10 * time.Second)
	for i, cl := range rc.clients {
		if !cl.Joined() {
			t.Fatalf("client %d not joined before crash", i)
		}
	}
	oldStamp := rc.coords[0].Stamp()
	oldNext := rc.coords[0].nextID
	ids := make([]wire.NodeID, len(rc.clients))
	for i, env := range rc.envs {
		ids[i] = env.LocalID()
	}

	rc.coords[0].Stop() // crash the primary
	// Rank 1's election timeout is 3·beacon + 1·beacon = 4 s, plus the 2 s
	// pre-vote wait (rank 0 is dead and rank 2 shares the silence, so nobody
	// vetoes); allow the promotion broadcast plus the heartbeat interval in
	// which every client's heartbeat, sent to all three replicas, renews its
	// lease at rank 1.
	var promoted time.Time
	for range 200 {
		rc.nw.RunFor(100 * time.Millisecond)
		if promoted.IsZero() && rc.coords[1].IsPrimary() {
			promoted = rc.nw.Now()
		}
	}

	if !rc.coords[1].IsPrimary() {
		t.Fatal("rank 1 did not promote")
	}
	if rc.coords[2].IsPrimary() {
		t.Error("rank 2 promoted despite rank 1 being alive")
	}
	st := rc.coords[1].Stamp()
	if st.Epoch != oldStamp.Epoch+1 {
		t.Errorf("epoch = %d, want %d", st.Epoch, oldStamp.Epoch+1)
	}
	if st.Version < oldStamp.Version+versionSkip {
		t.Errorf("version = %d, want ≥ %d (skip across reigns)", st.Version, oldStamp.Version+versionSkip)
	}
	if rc.coords[1].nextID < oldNext+idSkip {
		t.Errorf("nextID = %d, want ≥ %d", rc.coords[1].nextID, oldNext+idSkip)
	}
	if got := rc.coords[1].MemberCount(); got != 4 {
		t.Errorf("new primary holds %d members, want 4", got)
	}
	// Every client converged to the new reign under its old ID, and rank 1
	// renewed its lease after promoting.
	for i, cl := range rc.clients {
		if !cl.Joined() || rc.envs[i].LocalID() != ids[i] {
			t.Errorf("client %d joined=%v as node %d across failover, want still node %d", i, cl.Joined(), rc.envs[i].LocalID(), ids[i])
			continue
		}
		if got := cl.View().Stamp(); got != st {
			t.Errorf("client %d view stamp %+v, want %+v", i, got, st)
		}
		s, seated := rc.coords[1].slotOf[ids[i]]
		if !seated || !rc.coords[1].seats[s].at.After(promoted) {
			t.Errorf("client %d: seated=%v at rank 1, lease not renewed since the promotion at %v", i, seated, promoted)
		}
	}
	// IDs assigned by the new reign cannot collide with the old one's.
	rc.clients = append(rc.clients, nil)
	rc.views = append(rc.views, nil)
	env := transport.NewSimEnv(rc.nw, rc.reg, 4, 99)
	_ = env
}

// TestLostAckCostsOneHeartbeat: one lost heartbeat costs one Heartbeat of gap
// at the primary, whatever the replica count: every heartbeat goes to every
// replica and the next one is on time. (The name is the retired ack's.)
func TestLostAckCostsOneHeartbeat(t *testing.T) {
	for _, k := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("replicas=%d", k), func(t *testing.T) {
			cfg := churnClientCfg()
			rc := newRepCluster(t, 1, k, cfg, fastCoordCfg(t))
			const member, primary = 0, 1 // endpoints: the client, then rank 0
			var beats []time.Duration
			dropped := false
			rc.nw.OnSend = func(from, to int, p []byte) {
				if !dropped && from == member && to == primary && wire.PeekType(p) == wire.THeartbeat && rc.nw.Elapsed() > 20*time.Second {
					// The link fails as this heartbeat leaves, so it is lost.
					dropped = true
					rc.nw.SetLinkDown(member, primary, true)
					rc.nw.After(200*time.Millisecond, func() { rc.nw.SetLinkDown(member, primary, false) })
				}
			}
			rc.nw.OnDeliver = func(from, to int, p []byte) {
				if from == member && to == primary && wire.PeekType(p) == wire.THeartbeat {
					beats = append(beats, rc.nw.Elapsed())
				}
			}
			rc.clients[0].Start()
			rc.nw.RunFor(60 * time.Second)
			if !dropped || !rc.clients[0].Joined() {
				t.Fatalf("dropped=%v joined=%v: no heartbeat was lost", dropped, rc.clients[0].Joined())
			}
			// The run's end closes the last gap, so a member that stops
			// heartbeating fails too.
			beats = append(beats, rc.nw.Elapsed())
			var worst time.Duration
			for i := 1; i < len(beats); i++ {
				worst = max(worst, beats[i]-beats[i-1])
			}
			if worst <= cfg.Heartbeat || worst > 2*cfg.Heartbeat {
				t.Errorf("widest gap between heartbeats at the primary = %v, want the lost one's: in (%v, %v]", worst, cfg.Heartbeat, 2*cfg.Heartbeat)
			}
		})
	}
}

// TestStaleAckDeadlineKeepsTheNewPrimary: after the primary crashes and rank 1
// promotes, every client installs the new reign, and once it has, it never
// leaves it — no heartbeat that the dead ex-primary or a standby leaves
// unanswered costs it the membership the new primary holds.
func TestStaleAckDeadlineKeepsTheNewPrimary(t *testing.T) {
	const k = 16
	rc := newRepCluster(t, k, 3, churnClientCfg(), fastCoordCfg(t))
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(10 * time.Second)
	epoch := rc.coords[0].Stamp().Epoch
	rc.coords[0].Stop()
	attached := make([]time.Duration, k) // when each client first installed the new reign
	for step := 0; step < 400; step++ {
		rc.nw.RunFor(50 * time.Millisecond)
		now := rc.nw.Elapsed()
		for i, cl := range rc.clients {
			onReign := cl.Joined() && cl.View().Stamp().Epoch > epoch
			switch {
			case attached[i] == 0 && onReign:
				attached[i] = now
			case attached[i] > 0 && !onReign:
				t.Errorf("client %d left the new reign at %v, %v after it installed it", i, now, now-attached[i])
				attached[i] = -1
			}
		}
	}
	if !rc.coords[1].IsPrimary() {
		t.Fatal("rank 1 did not promote")
	}
	for i, at := range attached {
		if at == 0 {
			t.Errorf("client %d never attached to the new reign", i)
		}
	}
}

func TestRestartedPrimaryStepsDown(t *testing.T) {
	rc := newRepCluster(t, 2, 2, churnClientCfg(), fastCoordCfg(t))
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(8 * time.Second)
	rc.coords[0].Stop()
	rc.nw.RunFor(12 * time.Second)
	if !rc.coords[1].IsPrimary() {
		t.Fatal("rank 1 did not promote")
	}
	st := rc.coords[1].Stamp()

	// Rank 0 restarts and boots believing itself primary (epoch 1); rank 1's
	// higher-epoch beacon must demote it within about one beacon interval,
	// and it must resync its view replica from the winner.
	restarted := rc.restartCoordinator(0, fastCoordCfg(t))
	rc.nw.RunFor(5 * time.Second)
	if restarted.IsPrimary() {
		t.Fatal("restarted rank 0 still thinks it is primary")
	}
	if !rc.coords[1].IsPrimary() {
		t.Fatal("rank 1 lost primacy to a stale restart")
	}
	if got := restarted.Stats().Demotions; got != 1 {
		t.Errorf("demotions = %d, want 1", got)
	}
	if restarted.MemberCount() != 2 {
		t.Errorf("restarted replica holds %d members, want 2", restarted.MemberCount())
	}
	if got := restarted.Stamp(); got.Epoch != rc.coords[1].Stamp().Epoch || got.Version < st.Version {
		t.Errorf("restarted replica stamp %+v, want resynced to ≥ %+v", got, st)
	}
	for i, cl := range rc.clients {
		if !cl.Joined() {
			t.Errorf("client %d lost membership across restart", i)
		}
	}
}

func TestAmnesiacPrimaryIsDeposed(t *testing.T) {
	// Rank 0 crashes and a supervisor restarts it one second later — inside
	// every standby's election timeout, so nobody missed it. It boots
	// "primary" over an empty table at stamp {1, 0} and beacons at once. The
	// standbys' replicas are ahead of that stamp: they must not follow it,
	// and its vouching for itself must not veto the election.
	rc := newRepCluster(t, 3, 3, churnClientCfg(), fastCoordCfg(t))
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(10 * time.Second)
	held := rc.coords[1].Stamp()
	if rc.coords[1].MemberCount() != 3 || !held.After(wire.ViewStamp{Epoch: 1}) {
		t.Fatalf("standby replica not ahead of a cold boot: %d members at %+v", rc.coords[1].MemberCount(), held)
	}
	rc.coords[0].Stop()
	rc.nw.RunFor(time.Second)
	amnesiac := rc.restartCoordinator(0, fastCoordCfg(t))

	// Rank 1 last heard a real beacon at most one interval before the crash:
	// election timeout (4 s) plus pre-vote wait (2 s) from there, and one
	// more beacon for the new epoch to reach rank 0.
	ccfg := CoordinatorConfig{BeaconInterval: time.Second, Rank: 1}
	rc.nw.RunFor(ccfg.electionTimeout() + ccfg.preVoteWait() + ccfg.BeaconInterval)
	if !rc.coords[1].IsPrimary() {
		t.Fatal("rank 1 kept following a primary behind its own replica")
	}
	if amnesiac.IsPrimary() || amnesiac.Stats().Demotions != 1 {
		t.Errorf("restarted rank 0: primary=%v demotions=%d, want a demoted standby",
			amnesiac.IsPrimary(), amnesiac.Stats().Demotions)
	}
	if rc.coords[2].IsPrimary() {
		t.Error("rank 2 promoted as well")
	}
	st := rc.coords[1].Stamp()
	if st.Epoch != held.Epoch+1 || rc.coords[1].MemberCount() != 3 {
		t.Errorf("new reign %+v holds %d members, want epoch %d and all 3", st, rc.coords[1].MemberCount(), held.Epoch+1)
	}
	if amnesiac.Stamp() != st || amnesiac.MemberCount() != 3 {
		t.Errorf("ex-primary replica at %+v with %d members, want resynced to %+v with 3",
			amnesiac.Stamp(), amnesiac.MemberCount(), st)
	}
	rc.nw.RunFor(3 * churnClientCfg().Heartbeat)
	for i, cl := range rc.clients {
		if !cl.Joined() || cl.View().Stamp() != rc.coords[1].Stamp() {
			t.Errorf("client %d joined=%v at %+v, want the new reign's %+v", i, cl.Joined(), cl.View().Stamp(), rc.coords[1].Stamp())
		}
	}
}

func TestSplitBrainHealsToOneReign(t *testing.T) {
	// Three replicas, rank 0 crashed. A partition separates {client0, rank1}
	// from {client1, rank2}: both standbys promote under epoch 2 with
	// different version skips. After the heal, rank 1 wins on rank, absorbs
	// rank 2's higher version, and rebroadcasts; rank 2 demotes; every
	// client lands on the single surviving stamp.
	rc := newRepCluster(t, 2, 3, churnClientCfg(), fastCoordCfg(t))
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(8 * time.Second)
	rc.coords[0].Stop()

	// Endpoints: clients 0,1; coordinators 2,3,4 (ranks 0,1,2).
	sideA := []int{0, 3}
	sideB := []int{1, 4}
	setSplit := func(down bool) {
		for _, a := range sideA {
			for _, b := range sideB {
				rc.nw.SetLinkDown(a, b, down)
				rc.nw.SetLinkDown(b, a, down)
			}
		}
	}
	setSplit(true)
	rc.nw.RunFor(20 * time.Second)
	if !rc.coords[1].IsPrimary() || !rc.coords[2].IsPrimary() {
		t.Fatalf("split brain not established: rank1=%v rank2=%v",
			rc.coords[1].IsPrimary(), rc.coords[2].IsPrimary())
	}
	v1, v2 := rc.coords[1].Stamp(), rc.coords[2].Stamp()
	if v1.Epoch != v2.Epoch {
		t.Logf("reign epochs diverged: %+v vs %+v", v1, v2)
	}
	if v2.Version <= v1.Version {
		t.Fatalf("expected rank 2's skip to outrun rank 1: %+v vs %+v", v2, v1)
	}

	setSplit(false)
	rc.nw.RunFor(15 * time.Second)
	if !rc.coords[1].IsPrimary() {
		t.Fatal("rank 1 not primary after heal")
	}
	if rc.coords[2].IsPrimary() {
		t.Fatal("rank 2 did not demote after heal")
	}
	final := rc.coords[1].Stamp()
	if final.Version <= v2.Version {
		t.Errorf("winner did not absorb the loser's version: %+v ≤ %+v", final, v2)
	}
	for i, cl := range rc.clients {
		if !cl.Joined() {
			t.Errorf("client %d lost membership across split brain", i)
			continue
		}
		if got := cl.View().Stamp(); got != final {
			t.Errorf("client %d stamp %+v, want %+v", i, got, final)
		}
	}
}

func TestFullViewRequestHerdSuppression(t *testing.T) {
	rc := newRepCluster(t, 1, 1, churnClientCfg(), fastCoordCfg(t))
	rc.clients[0].Start()
	rc.nw.RunFor(5 * time.Second)
	v := rc.views[0]
	if v == nil {
		t.Fatal("no initial view")
	}
	pulls := 0
	rc.nw.OnSend = func(from, to int, payload []byte) {
		if from == 0 && wire.PeekType(payload) == wire.TViewPull {
			pulls++
		}
	}
	// Two gap deltas in quick succession arm the repair ladder once. The
	// client is the only member, so there is no peer to ask: the first rung
	// asks the coordinator.
	deliver := func(d wire.ViewDelta) {
		b := wire.AppendGossipDelta(nil, CoordinatorIDAt(0), wire.GossipDelta{Delta: d})
		h, body, _ := wire.ParseHeader(b)
		rc.clients[0].HandlePacket(h, body)
	}
	gap := wire.ViewDelta{
		Epoch:       1,
		BaseVersion: v.VersionNum() + 5,
		Version:     v.VersionNum() + 6,
		Adds:        []wire.Member{{ID: 77}},
	}
	deliver(gap)
	gap.Version++
	deliver(gap)
	served := rc.coords[0].Stats().FullViewsSent
	rc.nw.RunFor(3 * time.Second)
	st := rc.clients[0].Stats()
	if pulls != 1 || st.FullViewRequests != 1 || st.PullsSent != 0 {
		t.Errorf("pulls sent = %d (%d to the coordinator, %d to peers), want exactly one coordinator pull", pulls, st.FullViewRequests, st.PullsSent)
	}
	// The client was already current, so the coordinator answered nothing
	// and the view stands. The ladder has stopped: with no new evidence, no
	// further pull goes out.
	if got := rc.coords[0].Stats().FullViewsSent; got != served || rc.views[0] != v {
		t.Errorf("coordinator served %d snapshots to a current client; view %v, was %v", got-served, rc.views[0].Stamp(), v.Stamp())
	}
	rc.nw.RunFor(4 * churnClientCfg().Heartbeat)
	if pulls != 1 {
		t.Errorf("pulls sent = %d after the ladder stopped, want still 1", pulls)
	}
	// New evidence re-arms it.
	gap.Version++
	deliver(gap)
	rc.nw.RunFor(3 * time.Second)
	if pulls != 2 {
		t.Errorf("pulls sent = %d after new evidence, want 2", pulls)
	}
}

// TestStandbyCompletesSnapshotAfterLostChunk: a restarted standby resyncs
// through the same chunked snapshot members get. When one piece of it is
// lost, the standby stays behind, the next beacon's resync re-serves the
// snapshot, and the replica completes.
func TestStandbyCompletesSnapshotAfterLostChunk(t *testing.T) {
	const k = wire.ViewChunkMembers + 6 // a two-chunk snapshot
	rc := newRepCluster(t, k, 2, churnClientCfg(), fastCoordCfg(t))
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(5 * time.Second)
	prim := rc.coords[0]
	if prim.MemberCount() != k || rc.coords[1].Stamp() != prim.Stamp() {
		t.Fatalf("warm-up: primary holds %d members, standby at %v, primary at %v", prim.MemberCount(), rc.coords[1].Stamp(), prim.Stamp())
	}
	standby := rc.restartCoordinator(1, fastCoordCfg(t))
	dropped := 0
	rc.cenvs[1].Bind(func(from wire.NodeID, p []byte) {
		if h, body, err := wire.ParseHeader(p); err == nil && h.Type == wire.TViewChunk && dropped == 0 {
			if vc, err := wire.ParseViewChunk(body); err == nil && vc.Index == 1 {
				dropped++
				return
			}
		}
		standby.handle(from, p)
	})
	served := prim.Stats().FullViewsSent
	rc.nw.RunFor(5 * time.Second)
	if dropped != 1 || standby.Stamp() != prim.Stamp() || standby.MemberCount() != k {
		t.Fatalf("after %d lost chunk(s) the standby holds %d members at %v, want %d at %v",
			dropped, standby.MemberCount(), standby.Stamp(), k, prim.Stamp())
	}
	if got := prim.Stats().FullViewsSent - served; got != 2 {
		t.Errorf("resync took %d snapshots, want 2 (the one that lost a chunk, the one that completed it)", got)
	}
}

// ceilingEnv is a coordinator's Env that records the largest datagram its
// coordinator sends and carries only those addressed to a replica or to
// member: most of a view's members here are addresses, not endpoints.
type ceilingEnv struct {
	*transport.SimEnv
	largest *int
	member  wire.NodeID
}

func (e ceilingEnv) Send(to wire.NodeID, p []byte) {
	*e.largest = max(*e.largest, len(p))
	if to >= CoordinatorIDAt(1) || to == e.member {
		e.SimEnv.Send(to, p)
	}
}

// TestGossipDeltaFitsADatagram: 6 600 joins in one coalesce window into a
// one-member overlay make a delta smaller than the full view but an envelope
// (66 020 bytes) past wire.MaxDatagram. The flush must send the full view
// instead, so every datagram fits and the incumbent reaches the new stamp.
func TestGossipDeltaFitsADatagram(t *testing.T) {
	const joins = 6600
	nw := simnet.New(3, 1) // coordinator, the incumbent, and where the joins come from
	nw.SetLatency(0, 1, 10*time.Millisecond)
	nw.SetLatency(1, 0, 10*time.Millisecond)
	reg := transport.NewRegistry()
	largest := 0
	cenv := ceilingEnv{transport.NewSimEnv(nw, reg, 0, 1), &largest, 0}
	coord := NewCoordinator(cenv, CoordinatorConfig{Coalesce: 200 * time.Millisecond})
	coord.Start()
	env := transport.NewSimEnv(nw, reg, 1, 2)
	env.SetPeer(CoordinatorID, cenv.LocalAddr())
	var view *ViewInfo
	cl := NewClient(env, ClientConfig{}, func(v *ViewInfo) { view = v })
	env.Bind(func(_ wire.NodeID, p []byte) {
		if h, body, err := wire.ParseHeader(p); err == nil {
			cl.HandlePacket(h, body)
		}
	})
	cl.Start()
	nw.RunFor(time.Second)
	if view == nil || view.N() != 1 || env.LocalID() != 0 {
		t.Fatalf("incumbent not admitted as member 0: id %d, view %v", env.LocalID(), view)
	}
	if size := wire.GossipDeltaSize(joins, 0); size <= wire.MaxDatagram || wire.ViewDeltaSize(joins, 0) >= wire.ViewSize(joins+1) {
		t.Fatalf("shape no longer tests the ceiling: envelope %d bytes", size)
	}
	for i := 0; i < joins; i++ {
		addr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), 2)
		nw.Send(2, 0, wire.AppendJoin(nil, wire.Join{Addr: addr}))
	}
	nw.RunFor(time.Second)
	if coord.MemberCount() != joins+1 || view.Stamp() != coord.Stamp() || view.N() != joins+1 {
		t.Errorf("incumbent at %v with %d members, primary at %v with %d", view.Stamp(), view.N(), coord.Stamp(), coord.MemberCount())
	}
	if largest > wire.MaxDatagram || env.SendErrors() != 0 {
		t.Errorf("largest datagram %d bytes (ceiling %d), %d refused by the incumbent", largest, wire.MaxDatagram, env.SendErrors())
	}
}

// TestReplicaPlaneFitsADatagram: at 7 000 members — past the 6 550 where a
// single-datagram full view would exceed wire.MaxDatagram — every datagram a
// full-view flush, a delta flush, a replica resync and a promotion send fits
// one, and the standby follows the whole way.
func TestReplicaPlaneFitsADatagram(t *testing.T) {
	const n = 7000
	nw := simnet.New(3, 1) // ranks 0 and 1; endpoint 2 is where the joins come from
	nw.SetLatency(0, 1, 10*time.Millisecond)
	reg := transport.NewRegistry()
	ids := CoordinatorIDs(2)
	largest := 0
	envs := make([]ceilingEnv, 2)
	for r := range envs {
		envs[r] = ceilingEnv{transport.NewSimEnv(nw, reg, r, int64(r+1)), &largest, wire.NilNode}
	}
	envs[0].SetPeer(ids[1], envs[1].LocalAddr())
	envs[1].SetPeer(ids[0], envs[0].LocalAddr())
	boot := func(r int) *Coordinator {
		c := NewCoordinator(envs[r], CoordinatorConfig{Coordinators: ids, Rank: r, Coalesce: 200 * time.Millisecond, BeaconInterval: time.Second})
		c.Start()
		return c
	}
	prim, standby := boot(0), boot(1)
	join := func(i int) {
		addr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), 2)
		nw.Send(2, 0, wire.AppendJoin(nil, wire.Join{Addr: addr}))
	}
	check := func(stage string, want int) {
		t.Helper()
		if standby.MemberCount() != want || standby.Stamp() != prim.Stamp() {
			t.Fatalf("%s: standby holds %d members at %v, want %d at %v", stage, standby.MemberCount(), standby.Stamp(), want, prim.Stamp())
		}
	}
	for i := 0; i < n-1; i++ {
		join(i)
	}
	nw.RunFor(time.Second)
	check("full-view flush", n-1)
	join(n - 1)
	nw.RunFor(time.Second)
	check("delta flush", n)
	standby.Stop()
	standby = boot(1)
	nw.RunFor(3 * time.Second)
	check("resync of a restarted standby", n)
	prim.Stop()
	nw.RunFor(10 * time.Second)
	if !standby.IsPrimary() || standby.MemberCount() != n {
		t.Fatalf("promotion: primary=%v with %d members, want %d", standby.IsPrimary(), standby.MemberCount(), n)
	}
	if largest > wire.MaxDatagram {
		t.Errorf("largest datagram %d bytes, over wire.MaxDatagram (%d)", largest, wire.MaxDatagram)
	}
}

func TestPreVoteBlocksPromotionUnderOneWayStall(t *testing.T) {
	// Endpoints: client 0; coordinators 1, 2, 3 (ranks 0, 1, 2). The
	// primary's beacons toward rank 1 are delayed far past the test horizon —
	// a stalled path, not a dead primary. Rank 1's election timeout fires,
	// but its pre-vote reaches rank 2, which still hears beacons and vetoes;
	// rank 1 must keep re-arming instead of splitting the epoch.
	rc := newRepCluster(t, 1, 3, churnClientCfg(), fastCoordCfg(t))
	rc.clients[0].Start()
	rc.nw.RunFor(8 * time.Second)
	if !rc.coords[0].IsPrimary() {
		t.Fatal("rank 0 not primary before the stall")
	}
	rc.nw.SetLatencyOneWay(1, 2, 10*time.Minute)
	rc.nw.RunFor(30 * time.Second)

	if rc.coords[1].IsPrimary() {
		t.Fatal("starved standby promoted despite a live primary")
	}
	if rc.coords[2].IsPrimary() {
		t.Fatal("rank 2 promoted with a live primary")
	}
	if !rc.coords[0].IsPrimary() {
		t.Fatal("primary deposed by a one-way stall")
	}
	if got := rc.coords[1].Stats().PreVotesVetoed; got == 0 {
		t.Error("no pre-vote veto recorded; election never reached the peers")
	}
	if got := rc.coords[1].Stamp().Epoch; got != 1 {
		t.Errorf("starved standby advanced to epoch %d, want 1", got)
	}

	// The same configuration must still fail over on a genuine crash: with
	// the primary stopped, nobody vouches for it and a standby promotes
	// after its timeout plus the pre-vote wait. (The stall perturbed the
	// standbys' rank stagger, so which of the two wins is timing-dependent;
	// what matters is exactly one reign emerges.)
	rc.coords[0].Stop()
	rc.nw.RunFor(20 * time.Second)
	p1, p2 := rc.coords[1].IsPrimary(), rc.coords[2].IsPrimary()
	if p1 == p2 {
		t.Fatalf("want exactly one promoted standby after the crash, got rank1=%v rank2=%v", p1, p2)
	}
	winner := rc.coords[1]
	if p2 {
		winner = rc.coords[2]
	}
	if got := winner.Stamp().Epoch; got != 2 {
		t.Errorf("post-crash epoch = %d, want 2", got)
	}
}

func TestStaleVouchDoesNotStallPromotion(t *testing.T) {
	// Endpoints: client 0; coordinators 1, 2, 3 (ranks 0, 1, 2). The primary
	// first stalls one-way toward rank 1, then crashes ~2.5 s later. When
	// rank 1's election timeout fires, rank 2's freshest beacon is about two
	// beacon intervals old — recent-looking evidence of a primary that is in
	// fact dead. Under the old 3·beacon vouching window rank 2 vouched on
	// that stale beacon and vetoed rank 1 into a second full election cycle
	// (a one-way-stall variant of PERF.md's "stalled just under the election
	// timeout" class); with the 1.5·beacon window the vouch is refused and
	// promotion completes in a single pre-vote round.
	rc := newRepCluster(t, 1, 3, churnClientCfg(), fastCoordCfg(t))
	rc.clients[0].Start()
	rc.nw.RunFor(8 * time.Second)
	if !rc.coords[0].IsPrimary() {
		t.Fatal("rank 0 not primary before the stall")
	}
	rc.nw.SetLatencyOneWay(1, 2, 10*time.Minute)
	rc.nw.RunFor(2500 * time.Millisecond)
	rc.coords[0].Stop() // crash: rank 2 is left holding a fresh-but-stale beacon

	// Rank 1's election fires ≤ 4 s after its last direct beacon (≤ 1.5 s
	// before the crash), and the pre-vote verdict lands within the pre-vote wait
	// (2 s). 7 s is enough for exactly one election + pre-vote round; the
	// stale-vouch veto cycle needed a second ~6 s round.
	rc.nw.RunFor(7 * time.Second)
	if !rc.coords[1].IsPrimary() {
		t.Fatal("rank 1 not promoted after one pre-vote round; stale vouch stalled the election")
	}
	if rc.coords[2].IsPrimary() {
		t.Fatal("rank 2 promoted over the lower-ranked candidate")
	}
	if got := rc.coords[1].Stamp().Epoch; got != 2 {
		t.Errorf("promoted standby epoch = %d, want 2", got)
	}
}

func TestClientJoinFailsOverToStandbyLessPrimary(t *testing.T) {
	// Rank 0 is dead, so no join is answered until rank 1 promotes; the
	// retry loop, which sends each join to both replicas, must then join
	// every client through it.
	rc := newRepCluster(t, 2, 2, churnClientCfg(), fastCoordCfg(t))
	rc.coords[0].Stop()
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(20 * time.Second)
	if !rc.coords[1].IsPrimary() {
		t.Fatal("rank 1 did not promote")
	}
	for i, cl := range rc.clients {
		if !cl.Joined() {
			t.Errorf("client %d did not join via the promoted standby", i)
		}
	}
}

func TestDeterministicFailover(t *testing.T) {
	// Two identically-seeded runs of a crash-failover sequence produce
	// byte-identical view stamps and member counts.
	run := func() (wire.ViewStamp, int, uint64) {
		rc := newRepCluster(t, 3, 2, churnClientCfg(), CoordinatorConfig{
			Coalesce:       200 * time.Millisecond,
			BeaconInterval: time.Second,
		})
		for _, cl := range rc.clients {
			cl.Start()
		}
		rc.nw.RunFor(8 * time.Second)
		rc.coords[0].Stop()
		rc.nw.RunFor(20 * time.Second)
		st := rc.coords[1].Stamp()
		return st, rc.coords[1].MemberCount(), rc.coords[1].Stats().FullViewsSent
	}
	s1, m1, f1 := run()
	s2, m2, f2 := run()
	if s1 != s2 || m1 != m2 || f1 != f2 {
		t.Errorf("nondeterministic failover: (%+v,%d,%d) vs (%+v,%d,%d)", s1, m1, f1, s2, m2, f2)
	}
}

// TestNodeIDAllocatorSkipsReservedAndHeld walks the allocator across the top
// of the 16-bit ID space, which ~65 k admissions reach: it must step over the
// replicas' well-known IDs and wire.NilNode, wrap, and step over members
// still holding low IDs, instead of handing a joiner a replica's identity
// (whose SetPeer would overwrite the replica's address) or a live member's.
func TestNodeIDAllocatorSkipsReservedAndHeld(t *testing.T) {
	rc := newRepCluster(t, 5, 3, churnClientCfg(), fastCoordCfg(t))
	rc.clients[0].Start()
	rc.clients[1].Start()
	rc.nw.RunFor(3 * time.Second)
	if a, b := rc.envs[0].LocalID(), rc.envs[1].LocalID(); a+b != 1 {
		t.Fatalf("first two members hold IDs %d and %d, want 0 and 1", a, b)
	}
	primary := rc.coords[0]
	primary.nextID = CoordinatorIDAt(2) - 2 // two assignable IDs below the reserved range
	for i, want := range []wire.NodeID{0xFFFA, 0xFFFB, 2} {
		rc.clients[2+i].Start()
		rc.nw.RunFor(3 * time.Second)
		if got := rc.envs[2+i].LocalID(); got != want {
			t.Errorf("joiner %d assigned ID %#x, want %#x", i, got, want)
		}
	}
	// The replica plane is intact: standbys still receive the primary's
	// stream, and every member converged on its view.
	rc.nw.RunFor(5 * time.Second)
	for r, c := range rc.coords {
		if c.MemberCount() != 5 || c.Stamp() != primary.Stamp() {
			t.Errorf("rank %d holds %d members at %v, want 5 at %v", r, c.MemberCount(), c.Stamp(), primary.Stamp())
		}
	}
	for i, v := range rc.views {
		if v == nil || v.Stamp() != primary.Stamp() || v.N() != 5 {
			t.Errorf("client %d did not converge on the primary's 5-member view", i)
		}
	}

	// With every assignable ID (all below the replicas' range) seated the
	// join is refused, not aliased.
	for id := range CoordinatorIDAt(2) {
		if _, held := primary.slotOf[id]; !held {
			addr := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, byte(id >> 8), byte(id)}), 1)
			primary.seats = append(primary.seats, seat{})
			primary.occupy(wire.Member{ID: id, Slot: uint16(len(primary.seats) - 1), Addr: addr}, rc.nw.Now())
		}
	}
	if id, ok := primary.allocID(); ok {
		t.Errorf("allocator handed out %#x from a full ID space", id)
	}
	primary.remove(777, "test")
	if id, ok := primary.allocID(); !ok || id != 777 {
		t.Errorf("allocator returned %#x,%v, want the one free ID 777", id, ok)
	}
}

// TestSlotAllocatorRefusesPastWireCeiling fills the slot space to the wire's
// 16-bit ceiling (View.Slots is a uint16): the join that would need slot
// 65 535 must be refused like an ID-exhausted one — no reply, no slot —
// instead of broadcasting a view whose slot count encodes as 0. A tombstone
// is free only once a flush has shown it free: the same joiner is refused
// before that flush and admitted into the lowest such slot at its first
// retry after it.
func TestSlotAllocatorRefusesPastWireCeiling(t *testing.T) {
	ccfg := fastCoordCfg(t)
	cfg := churnClientCfg()
	rc := newRepCluster(t, 3, 1, cfg, ccfg)
	primary := rc.coords[0]
	// Room for exactly two joins before the first flush: every other slot
	// is a tombstone no broadcast view has shown free yet.
	for range math.MaxUint16 - 2 {
		primary.seats = append(primary.seats, seat{Member: wire.Member{ID: wire.NilNode}})
	}
	for _, cl := range rc.clients {
		cl.Start()
	}
	rc.nw.RunFor(ccfg.Coalesce / 2)
	if !primary.flushPending || primary.MemberCount() != 2 || len(primary.seats) != math.MaxUint16 {
		t.Fatalf("setup: %d members over %d slots before the first flush, want 2 over %d", primary.MemberCount(), len(primary.seats), math.MaxUint16)
	}
	if rc.clients[2].Joined() || rc.envs[2].LocalID() != wire.NilNode {
		t.Fatalf("join past the ceiling: joined=%v as node %d", rc.clients[2].Joined(), rc.envs[2].LocalID())
	}

	// The flush shows the tombstones free; until client 2 retries, nothing
	// takes them.
	rc.nw.RunFor(ccfg.Coalesce)
	if primary.lastView.Slots() != math.MaxUint16 || primary.lastView.IDAt(0) != wire.NilNode || primary.seats[0].ID != wire.NilNode {
		t.Fatalf("after the first flush: %d broadcast slots, slot 0 shows %d, seat 0 holds %d", primary.lastView.Slots(), primary.lastView.IDAt(0), primary.seats[0].ID)
	}
	rc.nw.RunFor(cfg.JoinRetry)
	slot, ok := primary.slotOf[rc.envs[2].LocalID()]
	if !rc.clients[2].Joined() || !ok || slot != 0 || len(primary.seats) != math.MaxUint16 {
		t.Fatalf("the first retry after the flush: joined=%v slot=%d,%v, want slot 0 of %d", rc.clients[2].Joined(), slot, ok, math.MaxUint16)
	}
	rc.nw.RunFor(3 * time.Second)
	for i, v := range rc.views {
		if v == nil || v.Stamp() != primary.Stamp() || v.N() != 3 || v.Slots() != math.MaxUint16 {
			t.Errorf("client %d did not converge on the primary's 3-member, %d-slot view", i, math.MaxUint16)
		}
	}
}

// TestLeaseTableInvariants drives a 3-replica set through joins, leaves,
// lease expiries (two at once) and a primary crash, and every 100 ms of
// virtual time checks the current primary's lease table: no ID or address
// holds two seats, the ID and address lookups agree with the seats, the table
// equals the last broadcast view whenever no flush is pending, and no slot is
// re-occupied in the view that freed it, in either reign — the table never
// seats a member where the last broadcast view shows another, and no two
// successive broadcast views show two different members in one slot. Flushes
// are at least one coalesce window (200 ms) apart, so the checks see every
// broadcast view.
func TestLeaseTableInvariants(t *testing.T) {
	const every = 100 * time.Millisecond
	ccfg := fastCoordCfg(t)
	ccfg.Timeout = 10 * time.Second
	ccfg.Sweep = time.Second
	rc := newRepCluster(t, 11, 3, churnClientCfg(), ccfg)
	leave := func(i int) {
		rc.clients[i].Leave()
		rc.clients[i].Stop()
	}
	events := []struct {
		at time.Duration
		do func()
	}{
		{0, func() {
			for i := range 6 {
				rc.clients[i].Start()
			}
		}},
		{3 * time.Second, func() { leave(0) }},
		// Members heartbeat at 1 s and every 5 s after.
		{4 * time.Second, func() { rc.clients[1].Stop() }},  // expires at 12 s
		{9 * time.Second, func() { rc.clients[6].Start() }}, // takes slot 0, shown free since the flush after 3 s
		// No slot is free now, and a join in the coalesce window that frees
		// slot 5 must not take it: it extends the slot space.
		{10 * time.Second, func() { leave(5); rc.clients[10].Start() }},
		{14 * time.Second, func() { rc.clients[7].Start() }},                      // slot 1
		{15 * time.Second, func() { rc.clients[2].Stop(); rc.clients[3].Stop() }}, // both expire at 22 s
		{22 * time.Second, func() { rc.clients[8].Start() }},                      // slot 5
		{27 * time.Second, func() { rc.coords[0].Stop() }},
		{34 * time.Second, func() { rc.clients[9].Start() }}, // slots 2 and 3 were freed before the crash
		{40 * time.Second, func() { leave(6) }},
	}

	// hist follows each slot's seat across reigns as the checks see it: its
	// last occupant, and whether a check has seen it freed since.
	type slotHist struct {
		id    wire.NodeID
		freed bool
	}
	var hist []slotHist
	var shown *ViewInfo // the last broadcast view a check saw
	lastRank, reused := -1, make([]int, len(rc.coords))
	for step := time.Duration(0); step <= 60*time.Second; step += every {
		for len(events) > 0 && events[0].at <= step {
			events[0].do()
			events = events[1:]
		}
		rc.nw.RunFor(every)
		now := rc.nw.Elapsed()
		for r, p := range rc.coords {
			if !p.IsPrimary() {
				continue
			}
			lastRank = r
			last := p.lastView
			if shown != nil && last.Stamp().Epoch == shown.Stamp().Epoch && last.VersionNum() == shown.VersionNum()+1 {
				for s := range min(last.Slots(), shown.Slots()) {
					if a, b := shown.IDAt(s), last.IDAt(s); a != wire.NilNode && b != wire.NilNode && a != b {
						t.Fatalf("%v rank %d: view %v moved slot %d from node %d to %d", now, r, last.Stamp(), s, a, b)
					}
				}
			}
			shown = last
			members := 0
			for s, st := range p.seats {
				if st.ID != wire.NilNode {
					members++
					if int(st.Slot) != s || p.slotOf[st.ID] != s || p.byAddr[st.Addr] != s {
						t.Fatalf("%v rank %d: seat %d holds %+v, lookups say slot %d / %d",
							now, r, s, st.Member, p.slotOf[st.ID], p.byAddr[st.Addr])
					}
					if s < last.Slots() && last.IDAt(s) != wire.NilNode && last.IDAt(s) != st.ID {
						t.Fatalf("%v rank %d: seat %d holds node %d where the last broadcast view shows node %d", now, r, s, st.ID, last.IDAt(s))
					}
				}
				if s == len(hist) {
					hist = append(hist, slotHist{id: st.ID, freed: st.ID == wire.NilNode})
					continue
				}
				h := &hist[s]
				switch {
				case st.ID == wire.NilNode:
					h.freed = true
					continue
				case !h.freed && st.ID != h.id:
					t.Fatalf("%v rank %d: slot %d went from node %d to %d between two checks", now, r, s, h.id, st.ID)
				case h.freed && st.ID != h.id:
					// (The same ID back is a promotion that restored a member
					// whose removal never reached the new primary's replica.)
					reused[r]++
				}
				h.id, h.freed = st.ID, false
			}
			if len(p.slotOf) != members || len(p.byAddr) != members {
				t.Fatalf("%v rank %d: %d seated members, %d IDs and %d addresses looked up",
					now, r, members, len(p.slotOf), len(p.byAddr))
			}
			if !p.flushPending && !slices.Equal(p.view(), last.slotMembers(last.Slots())) {
				t.Fatalf("%v rank %d: table differs from the last broadcast view with no flush pending", now, r)
			}
		}
	}
	if rc.coords[1].Stats().Promotions != 1 || lastRank != 1 {
		t.Fatalf("rank 1 promotions = %d, last primary rank %d; want 1 and 1", rc.coords[1].Stats().Promotions, lastRank)
	}
	if reused[0] != 3 || reused[1] == 0 {
		t.Errorf("freed slots reused %v times per rank, want 3 before the crash and some after", reused)
	}
}
