package emul

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/membership"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

func shortChurnOpts(scenario ChurnScenario) ChurnOptions {
	return ChurnOptions{
		DynamicFleetOptions: DynamicFleetOptions{Seed: 7},
		N:                   20,
		Scenario:            scenario,
		Warmup:              2 * time.Minute,
		Duration:            4 * time.Minute,
	}
}

func TestChurnDeterminism(t *testing.T) {
	// Two identical-seed churn runs must produce byte-identical metrics
	// output — the regression gate for map-iteration nondeterminism
	// anywhere in the membership, probing, or routing planes.
	a := RunChurn(shortChurnOpts(ChurnPoisson)).Format()
	b := RunChurn(shortChurnOpts(ChurnPoisson)).Format()
	if a != b {
		t.Fatalf("identical-seed churn runs diverged:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

func TestChurnPoissonAvailability(t *testing.T) {
	res := RunChurn(shortChurnOpts(ChurnPoisson))
	if res.Joins <= res.Opt.N {
		t.Errorf("no churn joins happened (joins=%d)", res.Joins)
	}
	if res.Leaves+res.Crashes == 0 {
		t.Error("no departures happened")
	}
	// At n=20 a single Bernoulli burst can remove 20% of the overlay in one
	// step (far beyond the nominal 5% rate), so the min bound is loose; the
	// >95% acceptance criterion is asserted at n=500 by the churn
	// experiment, where the relative burst size concentrates to the rate.
	if res.MeanAvailability < 0.95 {
		t.Errorf("mean availability = %.4f, want ≥ 0.95\n%s", res.MeanAvailability, res.Format())
	}
	if res.MinAvailability < 0.80 {
		t.Errorf("min availability = %.4f, want ≥ 0.80\n%s", res.MinAvailability, res.Format())
	}
	if res.MeanStretch <= 0 || res.MeanStretch > 1.5 {
		t.Errorf("mean stretch = %.4f, want ≈ 1", res.MeanStretch)
	}
	if res.Seeds == 0 {
		t.Error("churn produced no gossip-seeded deltas")
	}
}

func TestChurnFlashCrowd(t *testing.T) {
	opt := shortChurnOpts(ChurnFlashCrowd)
	opt.Burst = 10
	res := RunChurn(opt)
	if res.FinalMembers != opt.N+opt.Burst {
		t.Errorf("final members = %d, want %d", res.FinalMembers, opt.N+opt.Burst)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Availability < 0.95 {
		t.Errorf("post-crowd availability = %.4f\n%s", last.Availability, res.Format())
	}
}

func TestChurnMassDeparture(t *testing.T) {
	opt := shortChurnOpts(ChurnMassDeparture)
	opt.Burst = 5
	res := RunChurn(opt)
	if res.FinalMembers != opt.N-opt.Burst {
		t.Errorf("final members = %d, want %d", res.FinalMembers, opt.N-opt.Burst)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Availability < 0.95 {
		t.Errorf("post-departure availability among survivors = %.4f\n%s", last.Availability, res.Format())
	}
}

func TestChurnCoordCrashFailover(t *testing.T) {
	// The primary coordinator crashes mid-run and restarts two minutes
	// later. The rank-1 standby must take over, every client must converge
	// onto its reign within the 3-heartbeat bound, and the restarted
	// ex-primary must step back down without disturbing the overlay.
	opt := shortChurnOpts(ChurnCoordCrash)
	opt.Duration = 6 * time.Minute
	res := RunChurn(opt)
	if res.CoordCrashes != 1 || res.CoordRestarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", res.CoordCrashes, res.CoordRestarts)
	}
	if !res.Converged {
		t.Fatalf("clients never converged after the failover\n%s", res.Format())
	}
	if res.ConvergedAfter > res.ConvergeBound {
		t.Errorf("converged after %s, bound %s\n%s", res.ConvergedAfter, res.ConvergeBound, res.Format())
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Primary != 1 {
		t.Errorf("final primary rank = %d, want 1 (standby keeps the lead)\n%s", last.Primary, res.Format())
	}
	if last.Views != 1 {
		t.Errorf("final distinct views = %d, want 1\n%s", last.Views, res.Format())
	}
	if res.MeanAvailability < 0.95 {
		t.Errorf("mean availability = %.4f through a coordinator crash, want ≥ 0.95\n%s",
			res.MeanAvailability, res.Format())
	}
}

func TestChurnFinalMembersReadTheLatestPrimary(t *testing.T) {
	// experiments churn -n 8 -scenario coord-crash -minutes 3 -seed 1
	// -coords 3: the crashed ex-primary restarts, with no state, at the run's
	// last instant and claims primary at its stale stamp beside the standby
	// that leads at the newer one. The result reads the standby's members and
	// flags the second claim.
	res := RunChurn(ChurnOptions{DynamicFleetOptions: DynamicFleetOptions{Seed: 1, Coordinators: 3},
		N: 8, Scenario: ChurnCoordCrash, Duration: 3 * time.Minute, PartitionFor: time.Minute, CoordRestartAfter: 2 * time.Minute})
	out := res.Format()
	if res.FinalMembers != 8 || !strings.Contains(out, "final_members=8") {
		t.Errorf("final members = %d, want 8: the primary at the stale stamp was read\n%s", res.FinalMembers, out)
	}
	if res.PrimaryClaims != 2 || !strings.Contains(out, "# WARNING: 2 replicas claim primary") {
		t.Errorf("%d primary claims at the end, want the restarted replica's beside the standby's, flagged\n%s", res.PrimaryClaims, out)
	}
}

func TestRestartedReplicaAnswersHeartbeatsWithoutSnapshots(t *testing.T) {
	// experiments churn -n 100 -scenario coord-crash -minutes 8 -seed 42:
	// the ex-primary restarts with no state and claims primary over its
	// empty table until rank 1's beacon demotes it. Each member heartbeat
	// it hears meanwhile draws its stale stamp, which the member ignores,
	// not a snapshot of its empty view.
	res, f := runChurn(ChurnOptions{DynamicFleetOptions: DynamicFleetOptions{Seed: 42}, N: 100, Scenario: ChurnCoordCrash, Duration: 8 * time.Minute})
	restarted := f.Coordinator(0)
	if got := restarted.Stats().FullViewsSent; res.CoordRestarts != 1 || got != 0 || res.LiveMissing != 0 {
		t.Errorf("restarts=%d: the restarted rank 0 sent %d snapshots, %d live members missing; want 1, 0, 0\n%s",
			res.CoordRestarts, got, res.LiveMissing, res.Format())
	}
}

func TestChurnPartitionSplitBrainHeals(t *testing.T) {
	// The acceptance fault: primary crash plus a 60 s grid-row partition.
	// Both sides elect a primary; the heal must merge them back to one
	// reign within 3 heartbeat intervals, and availability among
	// physically-connected pairs must hold.
	opt := shortChurnOpts(ChurnPartition)
	opt.Duration = 6 * time.Minute
	res := RunChurn(opt)
	if res.CoordCrashes != 1 {
		t.Fatalf("coord crashes = %d, want 1", res.CoordCrashes)
	}
	if res.PartitionSize < 2 {
		t.Fatalf("partition size = %d, want a grid row plus a standby", res.PartitionSize)
	}
	split, excluded := false, false
	for _, s := range res.Samples {
		if s.Views >= 2 {
			split = true
		}
		if s.Excluded > 0 {
			excluded = true
		}
	}
	if !split {
		t.Errorf("no sample observed the split-brain (views ≥ 2)\n%s", res.Format())
	}
	if !excluded {
		t.Errorf("no sample excluded cross-partition pairs\n%s", res.Format())
	}
	if !res.Converged {
		t.Fatalf("views never re-converged after the heal\n%s", res.Format())
	}
	if res.ConvergedAfter > res.ConvergeBound {
		t.Errorf("converged %s after heal, bound %s\n%s", res.ConvergedAfter, res.ConvergeBound, res.Format())
	}
	if res.MeanAvailability < 0.95 {
		t.Errorf("mean availability = %.4f through the partition, want ≥ 0.95\n%s",
			res.MeanAvailability, res.Format())
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Views != 1 {
		t.Errorf("final distinct views = %d, want 1\n%s", last.Views, res.Format())
	}
}

func TestChurnPartitionDeterminism(t *testing.T) {
	// The full fault-injection path — election, split-brain, heal,
	// convergence polling — must stay byte-deterministic.
	opt := shortChurnOpts(ChurnPartition)
	opt.Duration = 5 * time.Minute
	a := RunChurn(opt).Format()
	b := RunChurn(opt).Format()
	if a != b {
		t.Fatalf("identical-seed partition runs diverged:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

func TestChurnRegionalFailure(t *testing.T) {
	opt := shortChurnOpts(ChurnRegional)
	opt.Duration = 6 * time.Minute
	res := RunChurn(opt)
	if res.Crashes != opt.N/5 {
		t.Errorf("crashes = %d, want %d (one region)", res.Crashes, opt.N/5)
	}
	if res.FinalMembers != opt.N-opt.N/5 {
		t.Errorf("final members = %d, want %d", res.FinalMembers, opt.N-opt.N/5)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Availability < 0.95 {
		t.Errorf("post-failure availability among survivors = %.4f\n%s", last.Availability, res.Format())
	}
}

func TestChurnLossyGossipJoinStorm(t *testing.T) {
	// A flash-crowd join storm over the adversarial fault plane (5% loss,
	// duplication, jitter): the admission deltas must travel the gossip
	// tree, drops must be bridged by peer pulls, and every member must
	// converge within the 90 s acceptance bound — with the primary's
	// per-flush egress staying O(fanout) and no coordinator full-view
	// request herd.
	opt := shortChurnOpts(ChurnLossyGossip)
	opt.Burst = 10
	opt.Duration = 5 * time.Minute
	res := RunChurn(opt)
	if res.FinalMembers != opt.N+opt.Burst {
		t.Errorf("final members = %d, want %d", res.FinalMembers, opt.N+opt.Burst)
	}
	if !res.Converged {
		t.Fatalf("members never converged after the lossy join storm\n%s", res.Format())
	}
	if res.ConvergedAfter > res.ConvergeBound {
		t.Errorf("converged after %s, bound %s\n%s", res.ConvergedAfter, res.ConvergeBound, res.Format())
	}
	if res.Seeds == 0 || res.Gossip.GossipForwards == 0 {
		t.Errorf("dissemination never used the gossip tree (seeds=%d forwards=%d)\n%s",
			res.Seeds, res.Gossip.GossipForwards, res.Format())
	}
	// O(fanout) primary egress: each flush seeds at most the skip-over cap,
	// never the member count.
	if maxSeeds := res.Broadcasts * uint64(4*membership.DefaultGossipFanout); res.Seeds > maxSeeds {
		t.Errorf("primary egress not O(fanout): seeds=%d over %d broadcasts (cap %d)\n%s",
			res.Seeds, res.Broadcasts, maxSeeds, res.Format())
	}
	// Herd suppression: a full-view request is legitimate only when a lost
	// admission view leaves a joiner blind; the population at large must
	// repair through peers, not stampede the coordinator.
	if herd := res.Gossip.FullViewRequests; herd > uint64(opt.Burst) {
		t.Errorf("full-view request herd: %d requests from %d members\n%s",
			herd, opt.N+opt.Burst, res.Format())
	}
}

func TestChurnLossyJoinStormChunkedSnapshots(t *testing.T) {
	// The same flash-crowd storm at a fleet size past ViewChunkMembers (64):
	// every joiner's admission snapshot and every pull-repair fallback now
	// exceeds one datagram and must travel as reassembled chunks. Loss,
	// duplication, and jitter apply to the chunks individually — a dropped
	// piece voids the whole snapshot and is repaired by the client's
	// existing retry — and convergence must still land inside the bound.
	if testing.Short() {
		t.Skip("large lossy churn run")
	}
	opt := shortChurnOpts(ChurnLossyGossip)
	opt.N = 60
	opt.Burst = 10
	opt.Duration = 5 * time.Minute
	res := RunChurn(opt)
	if res.FinalMembers != opt.N+opt.Burst {
		t.Errorf("final members = %d, want %d", res.FinalMembers, opt.N+opt.Burst)
	}
	if !res.Converged {
		t.Fatalf("members never converged after the chunked join storm\n%s", res.Format())
	}
	if res.ConvergedAfter > res.ConvergeBound {
		t.Errorf("converged after %s, bound %s\n%s", res.ConvergedAfter, res.ConvergeBound, res.Format())
	}
	if res.ViewChunks == 0 {
		t.Errorf("no chunked snapshots at %d members (> ViewChunkMembers=%d)\n%s",
			opt.N+opt.Burst, wire.ViewChunkMembers, res.Format())
	}
}

func TestChurnLossyGossipDeterminism(t *testing.T) {
	// The adversarial plane draws extra randomness (duplication, jitter,
	// per-pull backoff); identically-seeded runs must still be
	// byte-identical end to end.
	opt := shortChurnOpts(ChurnLossyGossip)
	opt.Burst = 8
	a := RunChurn(opt).Format()
	b := RunChurn(opt).Format()
	if a != b {
		t.Fatalf("identical-seed lossy-gossip runs diverged:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

func TestChurnGossipCrashMidDissemination(t *testing.T) {
	// The primary fail-stops one coalesce interval after a departure burst,
	// with that delta's gossip envelopes still hopping the tree over a
	// lossy plane. The rank-1 standby holds the delta via replication and
	// must take over; every survivor converges onto its reign within 90 s.
	opt := shortChurnOpts(ChurnGossipCrash)
	opt.Burst = 5
	opt.Duration = 6 * time.Minute
	res := RunChurn(opt)
	if res.CoordCrashes != 1 {
		t.Fatalf("coord crashes = %d, want 1", res.CoordCrashes)
	}
	if !res.Converged {
		t.Fatalf("survivors never converged after the mid-dissemination crash\n%s", res.Format())
	}
	if res.ConvergedAfter > res.ConvergeBound {
		t.Errorf("converged after %s, bound %s\n%s", res.ConvergedAfter, res.ConvergeBound, res.Format())
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Primary != 1 {
		t.Errorf("final primary rank = %d, want 1 (standby keeps the lead)\n%s", last.Primary, res.Format())
	}
	if last.Views != 1 {
		t.Errorf("final distinct views = %d, want 1\n%s", last.Views, res.Format())
	}
}

// TestReplicatedChurnKeepsLiveMembers holds three runs under three replicas
// on a lossy plane where a live member whose heartbeat or ack is lost must
// still renew its lease at whichever replica leads. Each row must converge
// within its bound and end with every live node in the primary's view.
func TestReplicatedChurnKeepsLiveMembers(t *testing.T) {
	rows := []struct {
		scenario ChurnScenario
		seed     int64
	}{
		{ChurnGossipCrash, 10},
		{ChurnLossyGossip, 4},
		{ChurnStraggler, 10},
	}
	for _, r := range rows {
		res := RunChurn(ChurnOptions{DynamicFleetOptions: DynamicFleetOptions{Seed: r.seed, Coordinators: 3}, N: 60, Scenario: r.scenario, Duration: 10 * time.Minute})
		if !res.Converged || res.ConvergedAfter > res.ConvergeBound || res.LiveMissing > 0 {
			t.Errorf("experiments churn -n 60 -scenario %s -minutes 10 -seed %d -coords 3: converged=%v after=%s bound=%s, %d live nodes missing from the primary's view\n%s",
				r.scenario, r.seed, res.Converged, res.ConvergedAfter, res.ConvergeBound, res.LiveMissing, res.Format())
		}
	}
}

func TestChurnStragglerPullRepair(t *testing.T) {
	// Burst-loss windows black out a few members while Poisson churn keeps
	// versioning the view past them. Once the windows close the stragglers
	// are generations behind; the first message that reveals it — a peer's
	// routing row, a gossiped delta, a heartbeat ack — arms the pull ladder,
	// which must bridge them back through peers without leaning on
	// coordinator full views.
	opt := shortChurnOpts(ChurnStraggler)
	opt.Duration = 6 * time.Minute
	res := RunChurn(opt)
	if !res.Converged {
		t.Fatalf("stragglers never converged after the blackout\n%s", res.Format())
	}
	if res.ConvergedAfter > res.ConvergeBound {
		t.Errorf("converged after %s, bound %s\n%s", res.ConvergedAfter, res.ConvergeBound, res.Format())
	}
	if res.Gossip.PullsSent == 0 || res.Gossip.PullsServed == 0 {
		t.Errorf("no repair pulls happened (sent=%d served=%d)\n%s",
			res.Gossip.PullsSent, res.Gossip.PullsServed, res.Format())
	}
	if res.Gossip.GapsBridged == 0 {
		t.Errorf("no version gap was bridged by a peer\n%s", res.Format())
	}
}

func TestEndpointFreeListReusesQuarantined(t *testing.T) {
	// A departed endpoint is recycled for a fresh joiner once its quarantine
	// (membership timeout + two sweeps) has elapsed — bounding endpoint
	// growth under sustained churn — but never before, so the reused address
	// cannot resurrect the expired member's ID.
	const n = 6
	f := NewDynamicFleet(n, DynamicFleetOptions{
		MaxN: n + 2,
		Seed: 13,
		Membership: membership.ClientConfig{
			Heartbeat: 10 * time.Second,
			JoinRetry: 2 * time.Second,
		},
		Coordinator: membership.CoordinatorConfig{
			Timeout: 30 * time.Second,
			Sweep:   5 * time.Second,
		},
	})
	f.Run(time.Minute)
	if f.Coord.MemberCount() != n {
		t.Fatalf("members = %d after warmup", f.Coord.MemberCount())
	}
	oldID := f.envs[0].LocalID()
	f.Depart(0, false)

	// Before the 40 s quarantine elapses a spawn must take a fresh endpoint.
	f.Run(10 * time.Second)
	if ep := f.Spawn(); ep != n {
		t.Fatalf("spawn during quarantine took endpoint %d, want fresh endpoint %d", ep, n)
	}

	// After the quarantine the freed endpoint is recycled.
	f.Run(40 * time.Second)
	if ep := f.Spawn(); ep != 0 {
		t.Fatalf("spawn after quarantine took endpoint %d, want recycled endpoint 0", ep)
	}
	f.Run(time.Minute)
	if got := f.Coord.MemberCount(); got != n+1 {
		t.Fatalf("members = %d, want %d (crash expired, two joiners added)", got, n+1)
	}
	if !f.Node(0).Ready() {
		t.Fatal("recycled node not ready")
	}
	if newID := f.envs[0].LocalID(); newID == oldID || newID == wire.NilNode {
		t.Errorf("recycled endpoint got ID %d (old %d), want a fresh assignment", newID, oldID)
	}
}

// trafficHash runs a static quorum fleet under loss, reliable link-state,
// and injected rendezvous failures (so the failover and retransmission maps
// are actually populated), hashing every transmitted packet in order.
func trafficHash(seed int64) [32]byte {
	const n = 25
	env := traces.Generate(n, seed, traces.Config{BadNodeFrac: 0.0001})
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				env.Loss[a][b] = 0.10
			}
			env.DownFrac[a][b] = 0
		}
	}
	f := NewFleet(FleetOptions{
		N: n, Algorithm: overlay.AlgQuorum, Seed: seed, Env: env,
		Probe:  probe.Config{Interval: 30 * time.Second},
		Quorum: core.QuorumConfig{Interval: 15 * time.Second, ReliableLinkState: true},
	})
	h := sha256.New()
	prevSend := f.Net.OnSend
	f.Net.OnSend = func(from, to int, payload []byte) {
		prevSend(from, to, payload)
		fmt.Fprintf(h, "%d %d %d %x\n", f.Net.Elapsed(), from, to, payload)
	}
	f.Run(2 * time.Minute)
	// Kill node 0's links to both default rendezvous of several pairs: the
	// resulting double failures drive failover recruitment, populating the
	// maps whose iteration order the determinism fix pins.
	f.Net.SetLinkDown(0, 1, true)
	f.Net.SetLinkDown(0, 5, true)
	f.Net.SetLinkDown(0, 6, true)
	f.Run(4 * time.Minute)
	var out [32]byte
	h.Sum(out[:0])
	if f.QuorumStats(0).FailoverAttempts == 0 {
		panic("scenario failed to trigger failovers") // test invariant
	}
	return out
}

func TestDeterministicTrafficWithFailoversActive(t *testing.T) {
	// Identical seeds must produce identical packet schedules even with
	// failovers recruited and reliable-mode retransmissions pending — the
	// paths that used to iterate Go maps in send order.
	if trafficHash(3) != trafficHash(3) {
		t.Fatal("identical-seed runs produced different traffic")
	}
}

func TestEvictedNodeRejoinsAndRegainsRoutes(t *testing.T) {
	// A node partitioned past the membership timeout is expired by the
	// coordinator. On heal it must discover the eviction (its heartbeat
	// answered with a stamp newer than its view), rejoin under a fresh ID,
	// and regain working routes to the rest of the overlay.
	const n = 9
	f := NewDynamicFleet(n, DynamicFleetOptions{
		MaxN: n,
		Seed: 11,
		Membership: membership.ClientConfig{
			Heartbeat: 10 * time.Second,
			JoinRetry: 2 * time.Second,
		},
		Coordinator: membership.CoordinatorConfig{
			Timeout: 30 * time.Second,
			Sweep:   5 * time.Second,
		},
	})
	f.Run(2 * time.Minute)
	if f.Coord.MemberCount() != n {
		t.Fatalf("members = %d after warmup", f.Coord.MemberCount())
	}
	oldID := f.envs[0].LocalID()

	f.Net.SetNodeDown(0, true)
	f.Run(time.Minute)
	if f.Coord.MemberCount() != n-1 {
		t.Fatalf("members = %d during partition, want %d", f.Coord.MemberCount(), n-1)
	}
	f.Net.SetNodeDown(0, false)
	f.Run(2 * time.Minute)

	if f.Coord.MemberCount() != n {
		t.Fatalf("members = %d after heal, want %d (rejoin)", f.Coord.MemberCount(), n)
	}
	newID := f.envs[0].LocalID()
	if newID == oldID || newID == wire.NilNode {
		t.Errorf("rejoined with ID %d (old %d), want a fresh assignment", newID, oldID)
	}
	node := f.Node(0)
	if !node.Ready() {
		t.Fatal("rejoined node not ready")
	}
	if _, ok := node.View().SlotOf(newID); !ok {
		t.Fatal("rejoined node's view lacks its own ID")
	}
	// Routes flow again in both directions.
	routed := 0
	for ep := 1; ep < n; ep++ {
		if r, ok := node.BestHop(f.envs[ep].LocalID()); ok && r.Cost != wire.InfCost {
			routed++
		}
	}
	if routed < n-2 {
		t.Errorf("rejoined node routes to %d/%d peers", routed, n-1)
	}
	back := 0
	for ep := 1; ep < n; ep++ {
		if r, ok := f.Node(ep).BestHop(newID); ok && r.Cost != wire.InfCost {
			back++
		}
	}
	if back < n-2 {
		t.Errorf("%d/%d peers route back to the rejoined node", back, n-1)
	}
}

func TestDynamicFleetJoinStormIsLinear(t *testing.T) {
	// Acceptance criterion: a join storm of k nodes generates O(n + k)
	// coordinator messages, not O(n·k).
	const n, k = 40, 12
	f := NewDynamicFleet(n, DynamicFleetOptions{MaxN: n + k, Seed: 5})
	f.Run(time.Minute)
	if f.Coord.MemberCount() != n {
		t.Fatalf("members = %d after warmup", f.Coord.MemberCount())
	}
	before := f.CoordMembershipPackets()
	for i := 0; i < k; i++ {
		f.Spawn()
	}
	f.Run(30 * time.Second)
	if f.Coord.MemberCount() != n+k {
		t.Fatalf("members = %d after storm", f.Coord.MemberCount())
	}
	sent := f.CoordMembershipPackets() - before
	// k full views + n deltas, plus heartbeat-window slack;
	// the quadratic regime would be ≥ n·k = 480.
	if sent > uint64(2*(n+2*k)) {
		t.Errorf("join storm cost %d coordinator messages (n=%d k=%d), want O(n+k)", sent, n, k)
	}
}

// TestNoNodeSendsRetiredViewForms: full views travel only as chunks, deltas
// only as gossip envelopes or pull replies, and every request for missed
// views is a TViewPull, for members and replicas alike, and a joiner learns
// its ID from the view that lists it — through a primary crash and restart,
// and through a split brain and its heal, no node sends a TView, a
// TViewDelta, a TViewRequest or a TJoinReply.
func TestNoNodeSendsRetiredViewForms(t *testing.T) {
	for _, sc := range []ChurnScenario{ChurnCoordCrash, ChurnPartition} {
		o := ChurnOptions{DynamicFleetOptions: DynamicFleetOptions{Seed: 3, Coordinators: 3}, N: 40, Scenario: sc, Duration: 5 * time.Minute}
		steps := o.fill()
		f := NewDynamicFleet(o.N, DynamicFleetOptions{Seed: o.Seed, Coordinators: o.Coordinators,
			Membership: o.Membership, Coordinator: o.Coordinator})
		retired, replicaChunks := 0, 0
		account := f.Net.OnSend
		f.Net.OnSend = func(from, to int, p []byte) {
			account(from, to, p)
			switch wire.PeekType(p) {
			case wire.TView, wire.TViewDelta, wire.TViewRequest, wire.TJoinReply:
				retired++
			case wire.TViewChunk:
				if to >= f.CoordEndpointAt(0) {
					replicaChunks++
				}
			}
		}
		f.Run(o.Warmup)
		converged, _ := f.Play(steps, o.Duration, rand.New(rand.NewSource(o.Seed)), 0, nil)
		if retired != 0 || replicaChunks == 0 || !converged {
			t.Errorf("%v: %d retired-form datagrams, %d snapshot chunks to replicas, converged=%v; want 0, some, true",
				sc, retired, replicaChunks, converged)
		}
	}
}

func TestRestartedStandbyResyncsPastChunkThreshold(t *testing.T) {
	// A restarted standby holds nothing and asks the primary for the view.
	// Past wire.ViewChunkMembers the answer is several chunks, which the
	// standby must reassemble as a member does: a standby that cannot stays
	// empty while the primary re-sends them at every beacon — and promoting
	// it would evict the whole overlay.
	const n = wire.ViewChunkMembers + 36
	const beacon = 2 * time.Second
	f := NewDynamicFleet(n, DynamicFleetOptions{
		Seed:         5,
		Coordinators: 2,
		Membership:   membership.ClientConfig{Heartbeat: 10 * time.Second, JoinRetry: 2 * time.Second},
		Coordinator:  membership.CoordinatorConfig{BeaconInterval: beacon},
	})
	f.Run(time.Minute)
	prim := f.Coordinator(0)
	if !prim.IsPrimary() || prim.MemberCount() != n || !f.ViewsConverged() {
		t.Fatalf("warm-up: primary=%v members=%d converged=%v", prim.IsPrimary(), prim.MemberCount(), f.ViewsConverged())
	}
	ids := make([]wire.NodeID, n)
	for ep := range ids {
		ids[ep] = f.envs[ep].LocalID()
	}

	f.CrashCoordinator(1)
	f.Run(10 * time.Second)
	sent := prim.Stats().FullViewsSent
	f.RestartCoordinator(1)
	f.Run(3 * beacon)
	standby := f.Coordinator(1)
	if standby.Stamp() != prim.Stamp() || standby.MemberCount() != n {
		t.Fatalf("restarted standby holds stamp %v and %d members after %d full views, primary has %v and %d",
			standby.Stamp(), standby.MemberCount(), prim.Stats().FullViewsSent-sent, prim.Stamp(), n)
	}
	if got := prim.Stats().FullViewsSent - sent; got != 1 {
		t.Errorf("resync took %d full views, want 1", got)
	}

	// The resynced standby now inherits the overlay intact.
	f.CrashCoordinator(0)
	f.Run(time.Minute)
	if !standby.IsPrimary() || standby.MemberCount() != n {
		t.Fatalf("after the primary's crash: standby primary=%v with %d members, want %d", standby.IsPrimary(), standby.MemberCount(), n)
	}
	for ep, id := range ids {
		if got := f.envs[ep].LocalID(); got != id {
			t.Fatalf("endpoint %d was evicted by the promotion: ID %d, now %d", ep, id, got)
		}
	}
	if f.Joins != n || !f.ViewsConverged() {
		t.Errorf("joins=%d (want %d) converged=%v under the promoted standby", f.Joins, n, f.ViewsConverged())
	}
}

// TestChurnedFleetFailsOverTowardTheLiving: a crashed member keeps its seat
// until its lease runs out, and every node that still sees it in the view
// finds both its default rendezvous silent about it. §4.1's guard, run before
// an episode's first recruitment, sends no node after a member that neither
// its probe nor a fresh client row shows alive. The fleet is the seeded
// 45-member one of TestBandwidthLaw's churned row, on clean links, with half
// of each minute's leavers crashing. Every node ever spawned is counted, the
// departed ones at their departure: 88 recruitments, against 317 while the
// guard ran only once an episode had tried a server.
func TestChurnedFleetFailsOverTowardTheLiving(t *testing.T) {
	const (
		n       = 45
		rate    = 0.1
		minutes = 6
		bound   = 150 // 88 today; 317 with the guard after the first recruitment
	)
	maxN := n + 2*int(rate*n+0.5)*minutes + 8
	env := traces.Generate(maxN, 1, traces.Config{BadNodeFrac: 0.0001})
	for a := range env.Loss {
		for b := range env.Loss[a] {
			env.Loss[a][b], env.DownFrac[a][b] = 0, 0
		}
	}
	f := NewDynamicFleet(n, DynamicFleetOptions{
		MaxN:        maxN,
		Seed:        1,
		Env:         env,
		Probe:       probe.Config{RampIntervals: 3},
		Quorum:      core.QuorumConfig{DegradedHold: 10 * 15 * time.Second},
		Membership:  membership.ClientConfig{Heartbeat: 30 * time.Second, JoinRetry: 2 * time.Second},
		Coordinator: membership.CoordinatorConfig{Timeout: 2 * time.Minute, Sweep: 15 * time.Second, Coalesce: time.Second},
	})
	var attempts uint64
	count := func(ep int) {
		if q, ok := f.Node(ep).Router().(*core.Quorum); ok {
			attempts += q.Stats().FailoverAttempts
		}
	}
	f.Run(3 * time.Minute)
	rng := rand.New(rand.NewSource(1))
	for range minutes {
		live := f.ActiveEndpoints()
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		leavers := live[:int(rate*float64(len(live))+0.5)]
		for i, ep := range leavers {
			count(ep)
			f.Depart(ep, i%2 == 0)
		}
		for range leavers {
			f.Spawn()
		}
		f.Run(time.Minute)
	}
	for _, ep := range f.ActiveEndpoints() {
		count(ep)
	}
	t.Logf("%d failover recruitments across the fleet, %d crashes", attempts, f.Crashes)
	if attempts > bound {
		t.Errorf("%d failover recruitments across the churned fleet, want at most %d", attempts, bound)
	}
}
