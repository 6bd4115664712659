package emul

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"allpairs/internal/grid"
)

// Op is one fault or churn primitive of a DynamicFleet. A fault schedule is a
// []Step over these ten; a scenario is a function returning one.
type Op int

// The primitives. Each names the Step fields it reads; the rest are ignored.
const (
	// OpJoin spawns N fresh nodes at once.
	OpJoin Op = iota
	// OpDepart removes N live nodes chosen by rng at once; each crashes with
	// probability Crash and leaves gracefully otherwise.
	OpDepart
	// OpReplace is one Poisson churn step: every live node departs with
	// probability P (a crash with probability Crash) and each departure is
	// matched by a fresh joiner, holding the population steady.
	OpReplace
	// OpCrashCoord fail-stops the coordinator replica of rank N.
	OpCrashCoord
	// OpRestartCoord boots a fresh process, with empty state, at rank N.
	OpRestartCoord
	// OpPartition cuts one grid row of the current view plus the rank-1
	// standby off from everyone else — enough for the minority to elect its
	// own primary and split the brain. PartitionSize records the cut.
	OpPartition
	// OpHeal removes the partition.
	OpHeal
	// OpCrashRegion crashes the live endpoints in [From, From+N) in one
	// instant: a correlated regional failure.
	OpCrashRegion
	// OpStarve blacks out the first N live endpoints for For: every link
	// they have, peers and coordinators alike, drops everything, so the
	// victims miss whole delta generations.
	OpStarve
	// OpWatch opens the convergence watch: from this instant Play polls
	// ViewsConverged once a second until it holds, and For is the bound the
	// schedule's author expects it inside. A later OpWatch restarts the watch.
	OpWatch
)

// Step is one entry of a fault schedule: at At (measured from the moment Play
// is called) apply Op with the arguments that Op reads.
type Step struct {
	At       time.Duration
	Op       Op
	N, From  int
	P, Crash float64
	For      time.Duration
}

// Apply is the one interpreter of fault steps: it performs s on the fleet now,
// drawing every random choice from rng in a fixed order (OpReplace: one draw
// per live endpoint ascending, then one per leaver; OpDepart: one Perm, then
// one draw per departure). s.At is the caller's business, and OpWatch is
// Play's: a fleet has nothing to do for it.
func (f *DynamicFleet) Apply(s Step, rng *rand.Rand) {
	switch s.Op {
	case OpJoin:
		for i := 0; i < s.N; i++ {
			f.Spawn()
		}
	case OpDepart:
		eps := f.ActiveEndpoints()
		perm := rng.Perm(len(eps))
		for _, i := range perm[:min(s.N, len(eps))] {
			f.Depart(eps[i], rng.Float64() >= s.Crash)
		}
	case OpReplace:
		var leavers []int
		for _, ep := range f.ActiveEndpoints() {
			if rng.Float64() < s.P {
				leavers = append(leavers, ep)
			}
		}
		for _, ep := range leavers {
			f.Depart(ep, rng.Float64() >= s.Crash)
		}
		for range leavers {
			f.Spawn()
		}
	case OpCrashCoord:
		f.CrashCoordinator(s.N)
	case OpRestartCoord:
		f.RestartCoordinator(s.N)
	case OpPartition:
		minority := f.partitionRow()
		f.PartitionSize = len(minority)
		f.Net.SetPartition(minority)
	case OpHeal:
		f.Net.Heal()
	case OpCrashRegion:
		for ep := s.From; ep < s.From+s.N; ep++ {
			f.Depart(ep, false) // skips the dead and the out-of-range
		}
	case OpStarve:
		eps := f.ActiveEndpoints()
		for _, v := range eps[:min(s.N, len(eps))] {
			f.Net.Blackout(v, s.For)
		}
	}
}

// partitionRow computes the minority side of OpPartition: the endpoints of the
// members in grid row 1 of the current view (a slot's row does not depend on
// the occupancy mask), plus the rank-1 standby.
func (f *DynamicFleet) partitionRow() []int {
	prim := f.Primary()
	if prim == nil {
		prim = f.Coord
	}
	members := prim.Members()
	g, err := grid.New(len(members))
	if err != nil {
		return nil
	}
	byID := f.endpointsByID()
	var eps []int
	for slot, m := range members {
		row, _ := g.Position(slot)
		if ep, live := byID[m.ID]; live && row == 1%g.Rows() {
			eps = append(eps, ep)
		}
	}
	if f.Opt.Coordinators > 1 {
		eps = append(eps, f.CoordEndpointAt(1))
	}
	return eps
}

// Play is the one loop that runs a schedule: it advances the fleet by end of
// virtual time, calling tick every `every` (nil for none) and applying steps —
// sorted by At, counted from the call — as their instants arrive, each exactly
// once; a step at end still runs, one past it never does. It returns whether
// the last OpWatch saw the views converge, and how long after it opened.
//
// The clock runs to the earliest of next tick, next step and next poll, and at
// one instant the loop observes before it acts: tick, then the convergence
// poll, then that instant's steps in slice order, each after every node event
// of its nanosecond. The order is observable: polling after the steps,
// `straggler -n 30 -rate 0.6 -minutes 6 -seed 61` reads after=15s for 16s,
// because a Poisson step departs the last straggler in the instant a poll
// fires. (The loop this replaced ran crash, restart and heal steps before the
// poll and churn steps after it; the orders differ only when an open watch
// polls in the very instant of a restart, heal or second crash, and no pinned
// output has one.)
func (f *DynamicFleet) Play(steps []Step, end time.Duration, rng *rand.Rand, every time.Duration, tick func()) (converged bool, after time.Duration) {
	const never = time.Duration(math.MaxInt64)
	origin := f.Elapsed()
	end += origin
	nextTick, nextPoll, watchFrom := origin+every, never, origin
	if tick == nil || every <= 0 {
		nextTick = never
	}
	for i := 0; f.Elapsed() < end; {
		next := min(end, nextTick, nextPoll)
		if i < len(steps) {
			next = min(next, origin+steps[i].At)
		}
		f.Net.RunUntil(next)
		now := f.Elapsed()
		if now >= nextTick {
			tick()
			nextTick += every
		}
		if now >= nextPoll {
			nextPoll = now + time.Second
			if f.ViewsConverged() {
				converged, after, nextPoll = true, now-watchFrom, never
			}
		}
		for ; i < len(steps) && origin+steps[i].At <= now; i++ {
			f.Apply(steps[i], rng)
			if steps[i].Op == OpWatch {
				converged, watchFrom, nextPoll = false, now, now+time.Second
			}
		}
	}
	return converged, after
}

// gossipBound is the gossip scenarios' acceptance bound: every survivor
// converges within 90 s of the fault clearing, by epidemic and pulls alone.
const gossipBound = 90 * time.Second

// churnScenarios is the one place that knows what a scenario does: its
// printed name, its CLI alias, whether it runs on the adversarial fault plane
// by default, and its schedule in time since the churn phase began, built
// from filled options. Everything else a run needs — replica count, endpoint
// head-room, the convergence bound, which summary lines print — is derived
// from the steps.
var churnScenarios = [...]struct {
	name, alias string
	lossy       bool
	steps       func(o *ChurnOptions) []Step
}{
	ChurnPoisson: {"poisson", "", false, func(o *ChurnOptions) []Step { return o.replacing() }},
	ChurnFlashCrowd: {"flash-crowd", "flash", false, func(o *ChurnOptions) []Step {
		return []Step{{At: o.Interval, Op: OpJoin, N: o.Burst}}
	}},
	ChurnMassDeparture: {"mass-departure", "mass", false, func(o *ChurnOptions) []Step {
		return []Step{{At: o.Interval, Op: OpDepart, N: o.Burst, Crash: churnCrashFrac}}
	}},
	ChurnCoordCrash: {"coord-crash", "", false, func(o *ChurnOptions) []Step {
		return []Step{
			{At: o.Interval, Op: OpCrashCoord},
			{At: o.Interval, Op: OpWatch, For: 3 * o.Membership.Heartbeat},
			{At: o.Interval + o.CoordRestartAfter, Op: OpRestartCoord},
		}
	}},
	ChurnPartition: {"partition", "", false, func(o *ChurnOptions) []Step {
		heal := o.Interval + o.PartitionFor
		return []Step{
			{At: o.Interval, Op: OpPartition},
			{At: o.Interval, Op: OpCrashCoord},
			{At: heal, Op: OpHeal},
			{At: heal, Op: OpWatch, For: 3 * o.Membership.Heartbeat},
		}
	}},
	ChurnRegional: {"regional", "", false, func(o *ChurnOptions) []Step {
		return []Step{{At: o.Interval, Op: OpCrashRegion, From: o.N / 3, N: max(o.N/5, 1)}}
	}},
	ChurnLossyGossip: {"lossy-gossip", "", true, func(o *ChurnOptions) []Step {
		return []Step{
			{At: o.Interval, Op: OpJoin, N: o.Burst},
			{At: o.Interval, Op: OpWatch, For: gossipBound},
		}
	}},
	// A burst of graceful departures produces one coalesced delta; the primary
	// dies one coalesce interval later, with that delta's gossip envelopes
	// still hopping the tree.
	ChurnGossipCrash: {"gossip-crash", "", true, func(o *ChurnOptions) []Step {
		crash := o.Interval + o.Coordinator.Coalesce + 200*time.Millisecond
		return []Step{
			{At: o.Interval, Op: OpDepart, N: o.Burst},
			{At: crash, Op: OpCrashCoord},
			{At: crash, Op: OpWatch, For: gossipBound},
		}
	}},
	// The watch opens when the blackout closes. churnBlackout sits well
	// inside the membership timeout, so no victim is evicted meanwhile.
	ChurnStraggler: {"straggler", "", true, func(o *ChurnOptions) []Step {
		return o.replacing(
			Step{At: o.Interval, Op: OpStarve, N: churnStragglers, For: churnBlackout},
			Step{At: o.Interval + churnBlackout, Op: OpWatch, For: gossipBound})
	}},
}

// Poisson is a Poisson churn schedule: an OpReplace at every, 2·every, …
// until, in which each live node departs with probability p and half the
// departures crash. The last may land on the end instant of a run and still
// runs (Play applies a step at end): `<` here would drop it, and every pinned
// Poisson output with it.
func Poisson(every, until time.Duration, p float64) []Step {
	var steps []Step
	for at := every; at <= until; at += every {
		steps = append(steps, Step{At: at, Op: OpReplace, P: p, Crash: churnCrashFrac})
	}
	return steps
}

// replacing returns steps merged, ahead of any same-instant churn, into the
// scenario's Poisson churn: one OpReplace per Interval until Duration.
func (o *ChurnOptions) replacing(steps ...Step) []Step {
	steps = append(steps, Poisson(o.Interval, o.Duration, o.Rate)...)
	slices.SortStableFunc(steps, func(a, b Step) int { return cmp.Compare(a.At, b.At) })
	return steps
}

// row returns the scenario's table entry; values outside the table are Poisson.
func (s ChurnScenario) row() int {
	if s < 0 || int(s) >= len(churnScenarios) {
		return int(ChurnPoisson)
	}
	return int(s)
}

// String names the scenario.
func (s ChurnScenario) String() string { return churnScenarios[s.row()].name }

// ParseChurnScenario maps a scenario's printed name or CLI alias to it.
func ParseChurnScenario(name string) (ChurnScenario, error) {
	for s, row := range churnScenarios {
		if name != "" && (name == row.name || name == row.alias) {
			return ChurnScenario(s), nil
		}
	}
	return 0, fmt.Errorf("unknown churn scenario %q", name)
}

// has reports whether any step of the schedule applies one of ops.
func has(steps []Step, ops ...Op) bool {
	return slices.ContainsFunc(steps, func(s Step) bool { return slices.Contains(ops, s.Op) })
}
