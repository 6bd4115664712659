package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/emul"
	"allpairs/internal/grid"
	"allpairs/internal/membership"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// spec is one workload: what is built, how it is warmed up, and what happens
// during the measured phase. The benchmark owns all of it; the overlay only
// ever sees Spawn/Depart/SetPartition/SendData calls and simulator steps.
type spec struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	n   int
	alg overlay.Algorithm
	// dynamic selects emul.DynamicFleet (live coordinator, joins through the
	// protocol) over the static-view emul.Fleet.
	dynamic bool
	coords  int
	// Member-plane fault plane (dynamic workloads).
	loss, dup float64
	jitter    time.Duration
	// lease is the coordinator's membership timeout (dynamic workloads).
	lease  time.Duration
	warmup time.Duration
	// The measured phase lasts max(minMinutes, round(seconds·minutesPerSecond))
	// whole virtual minutes: a fixed virtual duration per --seconds keeps every
	// virtual-time metric a pure function of the seed, and the factor is
	// calibrated so the phase takes about --seconds of wall clock on the
	// reference box (README, "Durations").
	minutesPerSecond float64
	minMinutes       int
	// churnRate is the per-member departure probability per virtual minute
	// (churn-poisson); partition enables the partition-heal fault schedule.
	churnRate float64
	partition bool
}

// envSeed generates every workload's latency/loss environment. The
// environment is part of the workload's definition, like n: --seed drives
// everything that happens on it (simulator and node randomness, the failure
// or churn schedule, the stream), so runs on different seeds are draws of one
// workload, not different workloads, and their medians can be compared.
const envSeed = 1

// Stream and sampling constants shared by every workload.
const (
	streamInterval = 20 * time.Millisecond // 50 packets per virtual second
	streamPayload  = 64
	sampleEvery    = 30 * time.Second
	freshEvery     = 7 * time.Second
	maxPairs       = 4000 // ordered settled pairs checked per sample
	// settleAge is how long a dynamic member must have been up before its
	// pairs count: a ramped cold probe pass (3 intervals) plus two routing
	// intervals, the convergence bound for a fresh joiner.
	settleAge = 3*30*time.Second + 2*15*time.Second
	// Partition-heal fault schedule, relative to the start of the measured
	// phase.
	faultAt      = 60 * time.Second
	partitionFor = 60 * time.Second
)

var specs = []*spec{
	{
		name: "steady-quorum",
		why:  "paper regime: static 18x18 grid, quorum routing under PlanetLab loss and link failures; round-2 ingest, pairs kernel and generation cache work here only; 2+3 virtual min at --seconds 10",
		n:    324, alg: overlay.AlgQuorum, warmup: 2 * time.Minute,
		minutesPerSecond: 0.3, minMinutes: 1,
	},
	{
		name: "steady-fullmesh",
		why:  "same env, seed, failures and stream on the full-mesh baseline: n-entry rows n times per interval and the full kernel pass, so a gain for one router that costs the other shows; 2+3 virtual min",
		n:    324, alg: overlay.AlgFullMesh, warmup: 2 * time.Minute,
		minutesPerSecond: 0.3, minMinutes: 1,
	},
	{
		name: "churn-poisson",
		why:  "n=200 dynamic fleet replacing 5% of members per virtual minute on clean links: coordinator, gossip tree, pulls and stable-extension view installs do most of the work; 3+6 virtual min",
		n:    200, alg: overlay.AlgQuorum, dynamic: true, coords: 1, warmup: 3 * time.Minute,
		lease:            2 * time.Minute,
		minutesPerSecond: 0.6, minMinutes: 2, churnRate: 0.05,
	},
	{
		name: "partition-heal",
		why:  "n=196, 3 coordinator replicas, 5% loss/2% dup/20 ms jitter; primary crash plus a 60 s grid-row partition: election, failover, degraded routing and anti-entropy run only here; 3+7 virtual min",
		n:    196, alg: overlay.AlgQuorum, dynamic: true, coords: 3,
		loss: 0.05, dup: 0.02, jitter: 20 * time.Millisecond, warmup: 3 * time.Minute,
		// No lease may run out while the partition and the failover that
		// follows it keep a member from its primary: with the churn
		// workload's 2 min, a seed-dependent handful of members is evicted,
		// rejoins under new IDs and slots, and every metric turns chaotic.
		lease:            5 * time.Minute,
		minutesPerSecond: 0.7, minMinutes: 6, partition: true,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// measureDuration maps --seconds to the virtual length of the measured phase.
func (s *spec) measureDuration(seconds int) time.Duration {
	m := int(math.Floor(float64(seconds)*s.minutesPerSecond + 0.5))
	if m < s.minMinutes {
		m = s.minMinutes
	}
	return time.Duration(m) * time.Minute
}

// Component configurations. Workers: 1 keeps every full pass on the single
// simulation goroutine; the dynamic workloads take the churn-appropriate
// robustness settings of emul.RunChurn (ramped cold probes, degraded-hold
// routing, 30 s heartbeats, minutes-long leases) instead of the paper's 30 min
// lease.
var (
	quorumCfg   = core.QuorumConfig{Workers: 1}
	fullMeshCfg = core.FullMeshConfig{Workers: 1}
)

func dynamicOptions(s *spec, seed int64, maxN int, env *traces.Env) emul.DynamicFleetOptions {
	q, fm := quorumCfg, fullMeshCfg
	q.DegradedHold = 10 * 15 * time.Second
	fm.DegradedHold = 10 * 30 * time.Second
	return emul.DynamicFleetOptions{
		MaxN:         maxN,
		Seed:         seed,
		Coordinators: s.coords,
		Algorithm:    s.alg,
		Env:          env,
		Loss:         s.loss,
		Dup:          s.dup,
		Jitter:       s.jitter,
		Probe:        probe.Config{RampIntervals: 3},
		Quorum:       q,
		FullMesh:     fm,
		Membership:   membership.ClientConfig{Heartbeat: 30 * time.Second, JoinRetry: 2 * time.Second},
		Coordinator: membership.CoordinatorConfig{
			Timeout: s.lease, Sweep: 15 * time.Second, Coalesce: time.Second,
		},
	}
}

// build generates the environment, constructs the fleet from the seed and
// runs the warm-up: everything setup_s covers.
func build(s *spec, seed int64, measure time.Duration) *world {
	w := &world{spec: s, seed: seed}
	if !s.dynamic {
		w.env = traces.PlanetLab(s.n, envSeed)
		w.fleet = emul.NewFleet(emul.FleetOptions{
			N: s.n, Algorithm: s.alg, Seed: seed, Env: w.env,
			Quorum: quorumCfg, FullMesh: fullMeshCfg,
		})
		w.net, w.col = w.fleet.Net, w.fleet.Col
		w.net.RunFor(s.warmup)
		return w
	}
	// Every joiner ever spawned may need its own endpoint (recycling waits
	// out the lease): head-room for twice the expected churn.
	maxN := s.n
	if s.churnRate > 0 {
		maxN += 2*int(s.churnRate*float64(s.n)*float64(measure/time.Minute+1)) + 16
	}
	// Lossless, failure-free PlanetLab-like latencies; the fault plane of the
	// dynamic workloads is the explicit loss/dup/jitter above.
	w.env = traces.Generate(maxN, envSeed, traces.Config{BadNodeFrac: 0.0001})
	for a := range w.env.Loss {
		for b := range w.env.Loss[a] {
			w.env.Loss[a][b], w.env.DownFrac[a][b] = 0, 0
		}
	}
	w.dyn = emul.NewDynamicFleet(s.n, dynamicOptions(s, seed, maxN, w.env))
	w.net, w.col = w.dyn.Net, w.dyn.Col
	for r := 0; r < s.coords; r++ {
		w.coordEPs = append(w.coordEPs, w.dyn.CoordEndpointAt(r))
	}
	w.net.RunFor(s.warmup)
	return w
}

// schedule installs the measured phase's workload events on the simulator:
// the failure schedule (steady), the churn steps (churn-poisson) or the
// crash/partition/heal sequence (partition-heal). All randomness comes from
// rng, the benchmark's own source.
func (m *measurement) schedule(rng *rand.Rand) {
	w, s := m.w, m.w.spec
	switch {
	case !s.dynamic:
		for _, ev := range w.env.FailureSchedule(m.dur, w.seed+1) {
			w.net.After(ev.At, func() { w.net.SetLinkDown(ev.A, ev.B, ev.Down) })
		}
	case s.partition:
		w.net.After(faultAt, func() {
			minority := partitionGroup(w)
			w.dyn.CrashCoordinator(0)
			w.net.SetPartition(minority)
			m.crashedAt = w.net.Elapsed()
		})
		w.net.After(faultAt+partitionFor, func() {
			w.net.Heal()
			m.healedAt = w.net.Elapsed()
		})
	default:
		// The last minute carries no churn step, so the run ends on a view
		// the fleet has had time to converge on.
		for t := time.Minute; t < m.dur; t += time.Minute {
			w.net.After(t, func() { m.churnStep(rng) })
		}
	}
}

// churnStep departs a churnRate share of the live members, picked at random,
// alternately crashing and leaving, and spawns one replacement per departure.
// The seed decides who goes, not how many: a Bernoulli draw per member would
// make the amount of membership work itself vary from seed to seed.
func (m *measurement) churnStep(rng *rand.Rand) {
	w := m.w
	live := w.dyn.ActiveEndpoints()
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	leavers := live[:int(w.spec.churnRate*float64(len(live))+0.5)]
	m.noteMembers()
	for i, ep := range leavers {
		w.gone.add(countersOf(w.dyn.Node(ep)))
		w.dyn.Depart(ep, i%2 == 0)
	}
	for range leavers {
		if ep := w.dyn.Spawn(); ep >= 0 {
			m.stream.attach(ep)
		}
	}
	m.stream.refresh()
}

// partitionGroup is the minority side of the partition: the members of one
// grid row of the primary's current view plus the rank-1 standby, enough for
// the minority to elect its own primary and split the brain.
func partitionGroup(w *world) []int {
	members := w.dyn.Primary().Members()
	occupied := make([]bool, len(members))
	for s := range members {
		occupied[s] = members[s].ID != wire.NilNode
	}
	g, err := grid.NewMasked(len(members), occupied)
	if err != nil {
		panic(fmt.Sprintf("benchmark: partition grid: %v", err))
	}
	var eps []int
	for col := 0; col < g.Cols(); col++ {
		if slot, ok := g.SlotAt(1%g.Rows(), col); ok && slot < len(members) {
			if ep, found := w.endpointOf(members[slot].ID); found {
				eps = append(eps, ep)
			}
		}
	}
	return append(eps, w.dyn.CoordEndpointAt(1))
}
