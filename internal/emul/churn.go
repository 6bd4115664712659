package emul

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/membership"
	"allpairs/internal/metrics"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
	"allpairs/internal/simnet"
	"allpairs/internal/traces"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// DynamicFleetOptions configures a churn-capable fleet: overlay nodes that
// join through a live membership coordinator instead of a static view.
type DynamicFleetOptions struct {
	// MaxN is the endpoint capacity for overlay nodes. The coordinator
	// replicas occupy endpoints MaxN…MaxN+Coordinators−1.
	MaxN int
	// Seed drives all randomness.
	Seed int64
	// Coordinators is the membership coordinator replica count (default 1).
	// Replica rank r listens at endpoint MaxN+r under the well-known ID
	// membership.CoordinatorIDAt(r); rank 0 boots as primary.
	Coordinators int
	// Algorithm selects quorum or full-mesh routing.
	Algorithm overlay.Algorithm
	// Env supplies pairwise latencies, sized ≥ MaxN. Nil means a homogeneous
	// 40 ms RTT lossless network.
	Env *traces.Env
	// Loss, Dup, and Jitter configure the adversarial fault plane on every
	// member↔member and member↔coordinator link: symmetric per-packet loss
	// and duplication probabilities plus a latency jitter bound (nonzero
	// jitter reorders packets). Replica↔replica links stay clean — the
	// scenarios fault the member plane, not the replication stream.
	Loss, Dup float64
	Jitter    time.Duration
	// Component configurations (zero values take the defaults).
	Probe       probe.Config
	Quorum      core.QuorumConfig
	FullMesh    core.FullMeshConfig
	Membership  membership.ClientConfig
	Coordinator membership.CoordinatorConfig
}

// DynamicFleet is a running dynamic-membership emulation: a coordinator, the
// overlay nodes spawned so far, and the measurement instruments. Unlike
// Fleet, nodes are admitted through the real join protocol and can leave or
// crash at any time, which is what exercises the delta-view and
// carry-over machinery end to end.
type DynamicFleet struct {
	Opt   DynamicFleetOptions
	Net   *simnet.Network
	Reg   *transport.Registry
	Col   *metrics.Collector
	Coord *membership.Coordinator // rank-0 replica (primary at boot)

	coords     []*membership.Coordinator
	cenvs      []*transport.SimEnv
	coordAddrs []netip.AddrPort
	coordCfgs  []membership.CoordinatorConfig
	coordIDs   []wire.NodeID

	nodes     []*overlay.Node
	envs      []*transport.SimEnv
	spawnedAt []time.Time
	active    []bool
	next      int

	// freeEps is a FIFO of departed endpoints awaiting the reuseAfter
	// quarantine: a departed endpoint becomes eligible for a fresh joiner
	// once it has been dark for the membership timeout plus two sweep
	// periods, which guarantees the coordinator expired the old member
	// first, so the recycled address cannot resurrect a stale ID through the
	// idempotent-join path. spawnSalt makes every spawn's transport RNG
	// distinct even when an endpoint is recycled.
	freeEps    []reusableEP
	reuseAfter time.Duration
	spawnSalt  int64

	// Joins, Leaves, and Crashes count lifecycle events injected so far.
	// SpawnsDropped counts joins that could not happen because the endpoint
	// capacity (MaxN) was exhausted — nonzero means the run measured a
	// smaller overlay than configured. CoordCrashes and CoordRestarts count
	// coordinator-replica faults, PartitionSize the endpoints the last
	// OpPartition cut off.
	Joins, Leaves, Crashes, SpawnsDropped      int
	CoordCrashes, CoordRestarts, PartitionSize int
}

type reusableEP struct {
	ep int
	at time.Time
}

// NewDynamicFleet builds the network and coordinator and spawns the first
// n nodes. Call Run to let them join and settle.
func NewDynamicFleet(n int, opt DynamicFleetOptions) *DynamicFleet {
	if opt.MaxN < n {
		opt.MaxN = n
	}
	if opt.Coordinators < 1 {
		opt.Coordinators = 1
	}
	to := opt.Coordinator.Timeout
	if to <= 0 {
		to = membership.DefaultTimeout
	}
	sw := opt.Coordinator.Sweep
	if sw <= 0 {
		sw = membership.DefaultSweep
	}
	nc := opt.Coordinators
	nw, col := newNetwork(opt.MaxN+nc, opt.MaxN, opt.Seed, opt.Env)
	fault := func(a, b int) {
		if opt.Loss > 0 {
			nw.SetLoss(a, b, opt.Loss)
		}
		if opt.Dup > 0 {
			nw.SetDuplication(a, b, opt.Dup)
		}
		if opt.Jitter > 0 {
			nw.SetJitter(a, b, opt.Jitter)
		}
	}
	for a := 0; a < opt.MaxN; a++ {
		for r := 0; r < nc; r++ {
			nw.SetLatency(a, opt.MaxN+r, 10*time.Millisecond)
			fault(a, opt.MaxN+r)
		}
		for b := a + 1; b < opt.MaxN; b++ {
			fault(a, b)
		}
	}
	for r1 := 0; r1 < nc; r1++ {
		for r2 := r1 + 1; r2 < nc; r2++ {
			nw.SetLatency(opt.MaxN+r1, opt.MaxN+r2, 10*time.Millisecond)
		}
	}
	f := &DynamicFleet{
		Opt:        opt,
		Net:        nw,
		Reg:        transport.NewRegistry(),
		Col:        col,
		coords:     make([]*membership.Coordinator, nc),
		cenvs:      make([]*transport.SimEnv, nc),
		coordAddrs: make([]netip.AddrPort, nc),
		coordCfgs:  make([]membership.CoordinatorConfig, nc),
		coordIDs:   membership.CoordinatorIDs(nc),
		nodes:      make([]*overlay.Node, opt.MaxN),
		envs:       make([]*transport.SimEnv, opt.MaxN),
		spawnedAt:  make([]time.Time, opt.MaxN),
		active:     make([]bool, opt.MaxN),
		reuseAfter: to + 2*sw,
	}
	if f.Opt.Membership.Coordinators == nil {
		f.Opt.Membership.Coordinators = f.coordIDs
	}
	for r := 0; r < nc; r++ {
		ep := opt.MaxN + r
		f.cenvs[r] = transport.NewSimEnv(nw, f.Reg, ep, opt.Seed*7919+int64(ep))
		f.coordAddrs[r] = f.cenvs[r].LocalAddr()
	}
	for r := 0; r < nc; r++ {
		for r2, id := range f.coordIDs {
			if r2 != r {
				f.cenvs[r].SetPeer(id, f.coordAddrs[r2])
			}
		}
		cfg := opt.Coordinator
		cfg.Coordinators = f.coordIDs
		cfg.Rank = r
		f.coordCfgs[r] = cfg
		f.coords[r] = membership.NewCoordinator(f.cenvs[r], cfg)
	}
	for _, c := range f.coords {
		c.Start()
	}
	f.Coord = f.coords[0]
	for i := 0; i < n; i++ {
		f.Spawn()
	}
	return f
}

// CoordEndpointAt returns the simulator endpoint of the rank-r replica.
func (f *DynamicFleet) CoordEndpointAt(rank int) int { return f.Opt.MaxN + rank }

// Coordinator returns the rank-r replica.
func (f *DynamicFleet) Coordinator(rank int) *membership.Coordinator { return f.coords[rank] }

// Primary returns the replica that currently considers itself primary at the
// highest view stamp, the lowest rank on a tie, or nil when none does
// (mid-election). A replica restarted with no state can claim primary at its
// stale stamp beside the real primary for a few seconds; the stamp tells the
// two apart.
func (f *DynamicFleet) Primary() *membership.Coordinator {
	prim, _ := f.primary()
	return prim
}

// primary returns Primary and how many replicas claim primary: one in a
// settled replica set, more during a split brain.
func (f *DynamicFleet) primary() (prim *membership.Coordinator, claims int) {
	for _, c := range f.coords {
		if c.IsPrimary() {
			if claims++; prim == nil || c.Stamp().After(prim.Stamp()) {
				prim = c
			}
		}
	}
	return prim, claims
}

// CrashCoordinator fail-stops the rank-r replica: its timers die and its
// endpoint stops responding, exactly like a crashed process behind a live
// network interface.
func (f *DynamicFleet) CrashCoordinator(rank int) {
	f.coords[rank].Stop()
	f.CoordCrashes++
}

// RestartCoordinator boots a fresh replica process at rank r's endpoint. It
// comes back with empty state and must re-learn the view from its peers.
func (f *DynamicFleet) RestartCoordinator(rank int) {
	c := membership.NewCoordinator(f.cenvs[rank], f.coordCfgs[rank])
	f.coords[rank] = c
	if rank == 0 {
		f.Coord = c
	}
	c.Start()
	f.CoordRestarts++
}

// ViewsConverged reports whether exactly one replica considers itself
// primary and every live, joined node holds that primary's view stamp — the
// post-heal acceptance condition.
func (f *DynamicFleet) ViewsConverged() bool {
	prim, claims := f.primary()
	if claims != 1 {
		return false
	}
	want := prim.Stamp()
	for ep := 0; ep < f.next; ep++ {
		if !f.active[ep] || !f.nodes[ep].Ready() {
			continue
		}
		if f.nodes[ep].View().Stamp() != want {
			return false
		}
	}
	return true
}

// Spawn starts a fresh node and begins its join. The endpoint is recycled
// from the quarantined free list when possible, otherwise taken from the
// untouched tail; -1 is returned when capacity is exhausted.
func (f *DynamicFleet) Spawn() int {
	ep := -1
	if len(f.freeEps) > 0 && f.Net.Now().Sub(f.freeEps[0].at) >= f.reuseAfter {
		ep = f.freeEps[0].ep
		f.freeEps = f.freeEps[1:]
		f.Net.SetNodeDown(ep, false)
	}
	if ep < 0 {
		if f.next >= f.Opt.MaxN {
			f.SpawnsDropped++
			return -1
		}
		ep = f.next
		f.next++
	}
	f.spawnSalt++
	env := transport.NewSimEnv(f.Net, f.Reg, ep, f.Opt.Seed*7919+int64(ep)+f.spawnSalt*104729)
	for r, id := range f.coordIDs {
		env.SetPeer(id, f.coordAddrs[r])
	}
	node := overlay.New(env, overlay.Config{
		Algorithm:  f.Opt.Algorithm,
		Probe:      f.Opt.Probe,
		Quorum:     f.Opt.Quorum,
		FullMesh:   f.Opt.FullMesh,
		Membership: f.Opt.Membership,
	})
	if err := node.Start(); err != nil {
		panic(err) // dynamic start cannot fail before the first view
	}
	f.nodes[ep] = node
	f.envs[ep] = env
	f.spawnedAt[ep] = f.Net.Now()
	f.active[ep] = true
	f.Joins++
	return ep
}

// Depart removes a node: gracefully (Leave announced, counted in Leaves) or
// as a crash (silent, counted in Crashes; the coordinator finds out through
// lease expiry). Either way the endpoint goes dark.
func (f *DynamicFleet) Depart(ep int, graceful bool) {
	if ep < 0 || ep >= len(f.active) || !f.active[ep] {
		return
	}
	if graceful {
		f.nodes[ep].Stop() // queues the Leave before the endpoint dies
		f.Leaves++
	} else {
		f.nodes[ep].Halt()
		f.Crashes++
	}
	f.Net.SetNodeDown(ep, true)
	f.active[ep] = false
	f.freeEps = append(f.freeEps, reusableEP{ep: ep, at: f.Net.Now()})
}

// Node returns the overlay node at an endpoint (nil if never spawned).
func (f *DynamicFleet) Node(ep int) *overlay.Node { return f.nodes[ep] }

// Active reports whether the endpoint hosts a live (not departed) node.
func (f *DynamicFleet) Active(ep int) bool {
	return ep >= 0 && ep < len(f.active) && f.active[ep]
}

// endpointsByID maps the node ID of every live, admitted node to its endpoint.
func (f *DynamicFleet) endpointsByID() map[wire.NodeID]int {
	byID := make(map[wire.NodeID]int)
	for _, ep := range f.ActiveEndpoints() {
		if id := f.envs[ep].LocalID(); id != wire.NilNode {
			byID[id] = ep
		}
	}
	return byID
}

// ActiveEndpoints returns the live endpoints in ascending order.
func (f *DynamicFleet) ActiveEndpoints() []int {
	var out []int
	for ep := 0; ep < f.next; ep++ {
		if f.active[ep] {
			out = append(out, ep)
		}
	}
	return out
}

// SettledEndpoints returns the live endpoints whose nodes were spawned at or
// before cutoff and have joined the overlay (hold a view including
// themselves) — the "surviving pairs" population of the churn metrics.
func (f *DynamicFleet) SettledEndpoints(cutoff time.Time) []int {
	var out []int
	for ep := 0; ep < f.next; ep++ {
		if f.active[ep] && f.nodes[ep].Ready() && !f.spawnedAt[ep].After(cutoff) {
			out = append(out, ep)
		}
	}
	return out
}

// Run advances the emulation by d of virtual time.
func (f *DynamicFleet) Run(d time.Duration) { f.Net.RunFor(d) }

// Elapsed returns virtual time since the fleet started.
func (f *DynamicFleet) Elapsed() time.Duration { return f.Net.Elapsed() }

// CoordMembershipPackets returns the membership-plane packets the
// coordinator replicas have sent so far — the quantity the O(n + k)
// join-storm bound is asserted on.
func (f *DynamicFleet) CoordMembershipPackets() uint64 {
	var sum uint64
	for r := 0; r < f.Opt.Coordinators; r++ {
		sum += f.Col.Packets(f.CoordEndpointAt(r), wire.CatMembership, metrics.Out)
	}
	return sum
}

// ---------------------------------------------------------------------------
// Churn scenario driver.
// ---------------------------------------------------------------------------

// ChurnScenario selects the churn workload.
type ChurnScenario int

// Churn scenarios.
const (
	// ChurnPoisson replaces a Bernoulli(Rate) fraction of the overlay every
	// Interval: half the departures crash, half leave gracefully, and each
	// departure is matched by a fresh joiner, holding the population steady.
	ChurnPoisson ChurnScenario = iota
	// ChurnFlashCrowd injects Burst simultaneous joiners once, one Interval
	// into the churn phase — the join-storm case the delta views collapse.
	ChurnFlashCrowd
	// ChurnMassDeparture removes Burst nodes simultaneously (half crashes).
	ChurnMassDeparture
	// ChurnCoordCrash fail-stops the primary coordinator one Interval into
	// the churn phase and restarts it CoordRestartAfter later: the rank-1
	// standby must take over within one election timeout, the restarted
	// ex-primary must step back down, and every client must converge onto a
	// single view stamp (measured from the crash).
	ChurnCoordCrash
	// ChurnPartition is the acceptance fault: the primary crashes and one
	// grid row of the overlay (plus the rank-1 standby) is partitioned from
	// the rest for PartitionFor. Both sides elect a primary (split-brain by
	// design); after the heal the replicas must merge back to one reign and
	// every surviving client must converge onto its view stamp within
	// 3 heartbeat intervals.
	ChurnPartition
	// ChurnRegional crashes a contiguous block of N/5 endpoints at once — a
	// correlated regional failure with no replacements.
	ChurnRegional
	// ChurnLossyGossip is the flash-crowd join storm replayed over the
	// adversarial fault plane (5% loss, duplication, jitter by default): the
	// gossip tree must disseminate the admission deltas and the pull plane
	// must bridge the drops, converging every member within ConvergeBound
	// with no herd of coordinator pulls.
	ChurnLossyGossip
	// ChurnGossipCrash departs a burst of members and fail-stops the primary
	// coordinator one coalesce interval later — while the resulting delta's
	// gossip envelopes are still in flight through the tree. The rank-1
	// standby (holding the delta via replication) must take over and every
	// survivor converge onto its view, again with no request herd.
	ChurnGossipCrash
	// ChurnStraggler blacks out a few members while Poisson churn keeps
	// producing deltas they cannot hear. When the blackouts end the
	// stragglers are generations behind and must repair through peer pulls,
	// not coordinator snapshots.
	ChurnStraggler
)

// ChurnOptions configures a churn experiment run: the fleet's options, and
// the scenario whose schedule plays on it.
type ChurnOptions struct {
	// DynamicFleetOptions configures the fleet, with churn defaults. MaxN is
	// ignored: the run takes the endpoint head-room the schedule needs, so it
	// stays a function of the scenario. Coordinators zero takes one replica
	// (three when the schedule crashes one), and a nil Env a lossless
	// PlanetLab-like environment generated from Seed at that size. Loss, Dup, and
	// Jitter zero take the scenario default: the adversarial gossip scenarios
	// (lossy-gossip, gossip-crash, straggler) run at 5% loss, 2% duplication,
	// and 20 ms jitter; every other scenario runs clean. Negative values force
	// a knob off. Zero component configurations take churn-appropriate
	// defaults (30 s heartbeats, 2 min membership timeout, 15 s sweeps, 1 s
	// coalescing) rather than the paper's 30-minute lease. Algorithm defaults
	// to quorum.
	DynamicFleetOptions
	// N is the initial overlay size.
	N int
	// Scenario selects the workload (default ChurnPoisson).
	Scenario ChurnScenario
	// Warmup lets the initial fleet join and converge (default 3 min).
	Warmup time.Duration
	// Duration is the churned, sampled phase (default 10 min).
	Duration time.Duration
	// Interval is the churn batching step (default 1 min).
	Interval time.Duration
	// Rate is the per-node departure probability per Interval for
	// ChurnPoisson (default 0.05 — the acceptance scenario's 5%).
	Rate float64
	// Burst is the flash-crowd/mass-departure size (default N/5).
	Burst int
	// CoordRestartAfter is how long after the crash the ex-primary restarts
	// in ChurnCoordCrash (default 2 min).
	CoordRestartAfter time.Duration
	// PartitionFor is the partition duration in ChurnPartition (default
	// 60 s, the acceptance scenario).
	PartitionFor time.Duration

	// settleAge is how long a node must have been a member before its pairs
	// count toward availability: the probe ramp plus 2 routing intervals,
	// the convergence bound for a fresh joiner. fill derives it.
	settleAge time.Duration
}

// Fixed measurement and fault parameters of a churn run.
const (
	// churnSampleEvery is the metric sampling period.
	churnSampleEvery = 30 * time.Second
	// churnMaxPairs caps the ordered pairs checked per availability sample;
	// pairs are chosen by a deterministic stride.
	churnMaxPairs = 4000
	// churnStretchPairs caps the pairs evaluated against the one-hop oracle
	// for the stretch metric (the oracle costs O(n) per pair).
	churnStretchPairs = 200
	// churnCrashFrac is the fraction of churn departures that crash instead
	// of leaving gracefully.
	churnCrashFrac = 0.5
	// churnBlackout is how long ChurnStraggler's blackouts isolate their
	// victims, and churnStragglers how many nodes are starved.
	churnBlackout   = 45 * time.Second
	churnStragglers = 3
)

// fill applies the defaults and returns the scenario's schedule under them.
func (o *ChurnOptions) fill() []Step {
	if o.Warmup <= 0 {
		o.Warmup = 3 * time.Minute
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Minute
	}
	if o.Interval <= 0 {
		o.Interval = time.Minute
	}
	if o.Rate <= 0 {
		o.Rate = 0.05
	}
	if o.Burst <= 0 {
		o.Burst = o.N / 5
		if o.Burst < 1 {
			o.Burst = 1
		}
	}
	probeInterval := o.Probe.Interval
	if probeInterval <= 0 {
		probeInterval = 30 * time.Second
	}
	routing := o.Quorum.Interval
	if o.Algorithm == overlay.AlgFullMesh {
		routing = o.FullMesh.Interval
	}
	if routing <= 0 {
		routing = 15 * time.Second
		if o.Algorithm == overlay.AlgFullMesh {
			routing = 30 * time.Second
		}
	}
	// Churn-appropriate robustness defaults: fresh joiners ramp their cold
	// probes over 3 intervals, and expired routes are served damped for
	// 10 routing intervals instead of blanking during control-plane
	// outages. Pass a negative value to switch either off.
	if o.Probe.RampIntervals == 0 {
		o.Probe.RampIntervals = 3
	}
	if o.Quorum.DegradedHold == 0 {
		o.Quorum.DegradedHold = 10 * routing
	}
	if o.FullMesh.DegradedHold == 0 {
		o.FullMesh.DegradedHold = 10 * routing
	}
	o.settleAge = time.Duration(max(o.Probe.RampIntervals, 1))*probeInterval + 2*routing
	row := &churnScenarios[o.Scenario.row()]
	if row.lossy { // zero takes the adversarial default; negative forces a knob off
		o.Loss, o.Dup, o.Jitter = cmp.Or(o.Loss, 0.05), cmp.Or(o.Dup, 0.02), cmp.Or(o.Jitter, 20*time.Millisecond)
	}
	o.Loss, o.Dup, o.Jitter = max(o.Loss, 0), max(o.Dup, 0), max(o.Jitter, 0)
	if o.CoordRestartAfter <= 0 {
		o.CoordRestartAfter = 2 * time.Minute
	}
	if o.PartitionFor <= 0 {
		o.PartitionFor = time.Minute
	}
	if o.Membership.Heartbeat <= 0 {
		o.Membership.Heartbeat = 30 * time.Second
	}
	if o.Membership.JoinRetry <= 0 {
		o.Membership.JoinRetry = 2 * time.Second
	}
	if o.Coordinator.Timeout <= 0 {
		o.Coordinator.Timeout = 2 * time.Minute
	}
	if o.Coordinator.Sweep <= 0 {
		o.Coordinator.Sweep = 15 * time.Second
	}
	if o.Coordinator.Coalesce <= 0 {
		o.Coordinator.Coalesce = time.Second
	}
	// Last, with every field a constructor reads in place: the schedule, and
	// the one default that depends on it — a schedule that crashes a
	// coordinator needs standbys to fail over to.
	steps := row.steps(o)
	if o.Coordinators <= 0 {
		o.Coordinators = 1
		if has(steps, OpCrashCoord) {
			o.Coordinators = 3
		}
	}
	return steps
}

// capacity computes the endpoint head-room the schedule needs: every joiner
// ever spawned occupies its own endpoint. A schedule that keeps replacing
// departures gets the Poisson allowance — a closed form, not a count of its
// OpReplace steps: the default environment is generated at this size, so the
// whole run is a function of the number.
func (o *ChurnOptions) capacity(steps []Step) int {
	maxN := o.N
	for _, s := range steps {
		if s.Op == OpJoin {
			maxN += s.N
		}
	}
	if has(steps, OpReplace) {
		intervals := int(o.Duration/o.Interval) + 1
		expected := int(o.Rate * float64(o.N) * float64(intervals))
		maxN += 2*expected + 16
	}
	return maxN
}

// ChurnSample is one sampling instant of a churn run.
type ChurnSample struct {
	// T is virtual time since the run started.
	T time.Duration
	// Members is the primary coordinator's member count; Settled the nodes
	// old enough to count toward availability.
	Members, Settled int
	// Views is the number of distinct view stamps held across the settled
	// population (1 when converged, 2 during a split-brain partition).
	// Primary is the rank of the current primary replica, −1 mid-election.
	Views, Primary int
	// Pairs is the ordered settled pairs checked; Routed how many had a
	// route verified usable against simulator ground truth. Excluded counts
	// sampled pairs with no physical path at all (e.g. across a partition):
	// no routing system could serve them, so they are measured separately
	// rather than scored as routing failures.
	Pairs, Routed, Excluded int
	// Availability is Routed/Pairs (1 when no pairs).
	Availability float64
	// StretchPairs is the pairs evaluated against the one-hop oracle and
	// MeanStretch the mean ratio of routed cost to the oracle's optimum.
	StretchPairs int
	MeanStretch  float64
	// CoordMsgs is the cumulative membership-plane packet count the
	// coordinator has sent.
	CoordMsgs uint64
}

// ChurnResult aggregates a churn run.
type ChurnResult struct {
	Opt ChurnOptions
	// Schedule is the fault schedule the run played: the scenario's steps
	// under Opt, in time since the churn phase began.
	Schedule []Step
	Samples  []ChurnSample

	// Lifecycle totals. A nonzero SpawnsDropped means endpoint capacity ran
	// out and the run measured fewer joins than the scenario demanded.
	Joins, Leaves, Crashes, SpawnsDropped int
	// FinalMembers is the member count of the primary at the end (Primary),
	// and PrimaryClaims how many replicas claimed primary then. FinalMembers
	// counts crashed members still inside their lease, so it can read above
	// the live node count while live nodes are missing: LiveMissing counts
	// the live nodes, spawned a minute or more before the end, that the
	// primary's view does not list.
	FinalMembers, PrimaryClaims, LiveMissing int

	// Fault-injection summary. ConvergedAfter is how long after the
	// schedule's OpWatch (the crash for ChurnCoordCrash, the heal for
	// ChurnPartition) every surviving client held one primary's view stamp;
	// ConvergeBound is that watch's For, the acceptance bound (3 heartbeat
	// intervals for the coordinator faults, 90 s for the gossip ones).
	CoordCrashes, CoordRestarts int
	PartitionSize               int
	Converged                   bool
	ConvergedAfter              time.Duration
	ConvergeBound               time.Duration

	// Availability summary over the churn-phase samples.
	MinAvailability, MeanAvailability float64
	// MeanStretch over the churn-phase samples that measured any.
	MeanStretch float64
	// CoordMsgs is the coordinator's total membership-plane packets;
	// Broadcasts/Deltas/FullViews break down its view dissemination.
	CoordMsgs                     uint64
	Broadcasts, Deltas, FullViews uint64
	// Seeds is the gossip envelopes the primaries injected into the
	// dissemination tree (with gossip on these replace the per-member
	// Deltas unicasts), and Gossip aggregates every spawned node's
	// client-side gossip/repair counters — Gossip.FullViewRequests, the
	// pulls sent to a coordinator, is the herd the zero-herd acceptance
	// asserts on. ViewChunks counts the chunk
	// datagrams of snapshots too large for one packet (> ViewChunkMembers
	// members); it stays zero in small fleets.
	Seeds      uint64
	ViewChunks uint64
	Gossip     membership.ClientStats
}

// RunChurn executes a churn scenario and returns its metrics. The run is a
// pure function of ChurnOptions: identical options give byte-identical
// Format output, which the determinism regression test asserts.
func RunChurn(opt ChurnOptions) *ChurnResult {
	res, _ := runChurn(opt)
	return res
}

// runChurn is RunChurn, also returning the fleet as the run left it.
func runChurn(opt ChurnOptions) (*ChurnResult, *DynamicFleet) {
	steps := opt.fill()
	fo := opt.DynamicFleetOptions
	fo.MaxN = opt.capacity(steps)
	if fo.Env == nil {
		// A dynamic fleet reads only the latencies; loss comes from opt.
		fo.Env = traces.Generate(fo.MaxN, opt.Seed, traces.Config{BadNodeFrac: 0.0001})
	}
	f := NewDynamicFleet(opt.N, fo)
	res := &ChurnResult{Opt: opt, Schedule: steps}
	for _, s := range steps {
		if s.Op == OpWatch {
			res.ConvergeBound = s.For
		}
	}

	f.Run(opt.Warmup)
	res.Converged, res.ConvergedAfter = f.Play(steps, opt.Duration,
		rand.New(rand.NewSource(opt.Seed*31+7)), churnSampleEvery, func() {
			res.Samples = append(res.Samples, sampleChurn(f, fo.Env, opt.settleAge))
		})

	res.Joins, res.Leaves, res.Crashes, res.SpawnsDropped = f.Joins, f.Leaves, f.Crashes, f.SpawnsDropped
	res.CoordCrashes, res.CoordRestarts, res.PartitionSize = f.CoordCrashes, f.CoordRestarts, f.PartitionSize
	final, claims := f.primary()
	if final == nil {
		final = f.Coord
	}
	res.FinalMembers, res.PrimaryClaims = final.MemberCount(), claims
	listed := map[netip.AddrPort]bool{}
	for _, m := range final.Members() {
		listed[m.Addr] = true
	}
	cutoff := f.Net.Now().Add(-time.Minute) // a node spawned since may still be joining
	for _, ep := range f.ActiveEndpoints() {
		if !f.spawnedAt[ep].After(cutoff) && !listed[f.envs[ep].LocalAddr()] {
			res.LiveMissing++
		}
	}
	res.CoordMsgs = f.CoordMembershipPackets()
	for r := 0; r < opt.Coordinators; r++ {
		s := f.Coordinator(r).Stats()
		res.Broadcasts += s.Broadcasts
		res.Deltas += s.DeltasSent
		res.FullViews += s.FullViewsSent
		res.Seeds += s.SeedsSent
		res.ViewChunks += s.ViewChunksSent
	}
	for ep := 0; ep < f.next; ep++ {
		if f.nodes[ep] != nil {
			res.Gossip.Add(f.nodes[ep].MembershipStats())
		}
	}
	res.MinAvailability = 1
	var availSum, stretchSum float64
	var availN, stretchN int
	for _, s := range res.Samples {
		if s.Pairs == 0 {
			continue
		}
		availSum += s.Availability
		availN++
		if s.Availability < res.MinAvailability {
			res.MinAvailability = s.Availability
		}
		if s.StretchPairs > 0 {
			stretchSum += s.MeanStretch
			stretchN++
		}
	}
	if availN > 0 {
		res.MeanAvailability = availSum / float64(availN)
	}
	if stretchN > 0 {
		res.MeanStretch = stretchSum / float64(stretchN)
	}
	return res, f
}

// sampleChurn measures route availability and stretch over the settled
// population against simulator ground truth.
func sampleChurn(f *DynamicFleet, env *traces.Env, settleAge time.Duration) ChurnSample {
	now := f.Net.Now()
	s := ChurnSample{
		T:         f.Elapsed(),
		Primary:   -1,
		CoordMsgs: f.CoordMembershipPackets(),
	}
	if prim := f.Primary(); prim != nil {
		s.Members = prim.MemberCount()
		s.Primary = prim.Rank()
	}
	eps := f.SettledEndpoints(now.Add(-settleAge))
	s.Settled = len(eps)
	stamps := make(map[wire.ViewStamp]struct{})
	for _, ep := range eps {
		stamps[f.nodes[ep].View().Stamp()] = struct{}{}
	}
	s.Views = len(stamps)
	if len(eps) < 2 {
		s.Availability = 1
		return s
	}
	// Hops may be nodes too young to count as "settled"; resolve them over
	// the full active population.
	actives, idToEp := f.ActiveEndpoints(), f.endpointsByID()
	total := len(eps) * (len(eps) - 1)
	check := min(total, churnMaxPairs)
	var stretchSum float64
	for k := 0; k < check; k++ {
		idx := k
		if total > check {
			idx = k * total / check // deterministic stride over all pairs
		}
		i, j := idx/(len(eps)-1), idx%(len(eps)-1)
		if j >= i {
			j++
		}
		a, b := eps[i], eps[j]
		r, ok := f.nodes[a].BestHop(f.envs[b].LocalID())
		hop, known := b, true
		if r.Hop != r.Dst {
			hop, known = idToEp[r.Hop]
		}
		usable := ok && known && routeUsable(f.Net, a, hop, b)
		if !usable && oracleOneHop(f.Net, env, actives, a, b) == wire.InfCost {
			// No physical path exists (the pair straddles a partition):
			// unroutable by any algorithm, so it is excluded rather than
			// charged against availability.
			s.Excluded++
			continue
		}
		s.Pairs++
		if !usable {
			continue
		}
		s.Routed++
		if s.StretchPairs < churnStretchPairs {
			if oracle := oracleOneHop(f.Net, env, actives, a, b); oracle > 0 {
				s.StretchPairs++
				stretchSum += float64(r.Cost) / float64(oracle)
			}
		}
	}
	if s.Pairs > 0 {
		s.Availability = float64(s.Routed) / float64(s.Pairs)
	} else {
		s.Availability = 1
	}
	if s.StretchPairs > 0 {
		s.MeanStretch = stretchSum / float64(s.StretchPairs)
	}
	return s
}

// Format renders the run as the churn experiment's canonical text output:
// a commented header, one row per sample, and a summary block. Identical
// seeds produce byte-identical output — the acceptance criterion the
// determinism test pins.
func (r *ChurnResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# churn scenario=%s n=%d seed=%d rate=%.3f interval=%s duration=%s loss=%.3f dup=%.3f jitter=%s\n",
		r.Opt.Scenario, r.Opt.N, r.Opt.Seed, r.Opt.Rate, r.Opt.Interval, r.Opt.Duration,
		r.Opt.Loss, r.Opt.Dup, r.Opt.Jitter)
	fmt.Fprintf(&b, "# t_s  members  settled  views  prim  pairs  routed  excl  avail  stretch  coord_msgs\n")
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "%6.0f  %7d  %7d  %5d  %4d  %5d  %6d  %4d  %6.4f  %7.4f  %10d\n",
			s.T.Seconds(), s.Members, s.Settled, s.Views, s.Primary, s.Pairs, s.Routed, s.Excluded,
			s.Availability, s.MeanStretch, s.CoordMsgs)
	}
	fmt.Fprintf(&b, "# joins=%d leaves=%d crashes=%d final_members=%d live_missing=%d\n",
		r.Joins, r.Leaves, r.Crashes, r.FinalMembers, r.LiveMissing)
	if r.PrimaryClaims > 1 {
		fmt.Fprintf(&b, "# WARNING: %d replicas claim primary at the end; final_members reads the one at the highest view stamp\n", r.PrimaryClaims)
	}
	if r.SpawnsDropped > 0 {
		fmt.Fprintf(&b, "# WARNING: %d joins dropped (endpoint capacity exhausted); results cover a smaller overlay than configured\n", r.SpawnsDropped)
	}
	fmt.Fprintf(&b, "# availability min=%.4f mean=%.4f  stretch mean=%.4f\n",
		r.MinAvailability, r.MeanAvailability, r.MeanStretch)
	fmt.Fprintf(&b, "# coordinator msgs=%d broadcasts=%d deltas=%d full_views=%d seeds=%d view_chunks=%d\n",
		r.CoordMsgs, r.Broadcasts, r.Deltas, r.FullViews, r.Seeds, r.ViewChunks)
	fmt.Fprintf(&b, "# gossip seen=%d dups=%d forwards=%d pulls_sent=%d pulls_served=%d gaps_bridged=%d full_view_reqs=%d\n",
		r.Gossip.GossipSeen, r.Gossip.GossipDups, r.Gossip.GossipForwards,
		r.Gossip.PullsSent, r.Gossip.PullsServed, r.Gossip.GapsBridged, r.Gossip.FullViewRequests)
	if has(r.Schedule, OpCrashCoord, OpCrashRegion) {
		fmt.Fprintf(&b, "# faults coord_crashes=%d coord_restarts=%d partition_size=%d partition_for=%s\n",
			r.CoordCrashes, r.CoordRestarts, r.PartitionSize, r.Opt.PartitionFor)
	}
	if r.ConvergeBound > 0 {
		fmt.Fprintf(&b, "# convergence converged=%v after=%s bound=%s\n",
			r.Converged, r.ConvergedAfter, r.ConvergeBound)
	}
	return b.String()
}
