package emul

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"allpairs/internal/membership"
)

// TestCoordFaultSweep is the first swept schedule: the two coordinator-fault
// constructors over their one timing argument and a few seeds, every run held
// to the end-state invariants. A supervisor restarting a crashed primary
// inside the standbys' election timeout (the 1, 5 and 10 s rows) used to wedge
// the membership plane for good; a failing row prints as the []Step it ran.
func TestCoordFaultSweep(t *testing.T) {
	var runs []ChurnOptions
	for seed := int64(1); seed <= 4; seed++ {
		for _, secs := range []int{1, 5, 10, 30, 120} {
			runs = append(runs, ChurnOptions{DynamicFleetOptions: DynamicFleetOptions{Seed: seed}, Scenario: ChurnCoordCrash, CoordRestartAfter: time.Duration(secs) * time.Second})
		}
		for _, secs := range []int{5, 20, 60, 240} {
			runs = append(runs, ChurnOptions{DynamicFleetOptions: DynamicFleetOptions{Seed: seed}, Scenario: ChurnPartition, PartitionFor: time.Duration(secs) * time.Second})
		}
	}
	for _, o := range runs {
		// One interval to the fault, the fault, the 90 s bound, a minute over.
		o.N, o.Warmup = 30, time.Minute
		o.Duration = time.Minute + o.CoordRestartAfter + o.PartitionFor + 150*time.Second
		res := RunChurn(o)
		last := res.Samples[len(res.Samples)-1]
		if !res.Converged || res.ConvergedAfter > res.ConvergeBound || res.FinalMembers != o.N ||
			res.SpawnsDropped != 0 || last.Views != 1 {
			t.Errorf("%s seed=%d restart=%s partition=%s: converged=%v after=%s bound=%s final_members=%d dropped=%d views=%d\nschedule: %+v\n%s",
				o.Scenario, o.Seed, res.Opt.CoordRestartAfter, res.Opt.PartitionFor,
				res.Converged, res.ConvergedAfter, res.ConvergeBound, res.FinalMembers, res.SpawnsDropped, last.Views,
				res.Schedule, res.Format())
		}
	}
}

// quietFleet is n nodes joined and converged under one coordinator, on a
// homogeneous lossless network.
func quietFleet(n, maxN int, seed int64) *DynamicFleet {
	f := NewDynamicFleet(n, DynamicFleetOptions{
		MaxN:       maxN,
		Seed:       seed,
		Membership: membership.ClientConfig{Heartbeat: 30 * time.Second, JoinRetry: 2 * time.Second},
	})
	f.Run(time.Minute)
	return f
}

func TestPlayObservesBeforeActing(t *testing.T) {
	const n = 8
	f := quietFleet(n, n+8, 5)
	if !f.ViewsConverged() {
		t.Fatal("fleet not converged after warm-up")
	}
	type tickAt struct {
		t     time.Duration
		joins int
	}
	var ticks []tickAt
	origin := f.Elapsed()
	steps := []Step{
		{At: 9 * time.Second, Op: OpWatch, For: time.Minute},
		// Due in the instant of the 10 s tick and of the watch's first poll.
		// The join takes endpoint n, so the region crash after it finds a
		// live node there and the one at 20 s, running before its join, none.
		// The solo coordinator's crash ends all convergence: a poll that ran
		// after it would never report the watch met.
		{At: 10 * time.Second, Op: OpJoin, N: 1},
		{At: 10 * time.Second, Op: OpCrashRegion, From: n, N: 1},
		{At: 10 * time.Second, Op: OpCrashCoord},
		{At: 20 * time.Second, Op: OpCrashRegion, From: n + 1, N: 1},
		{At: 20 * time.Second, Op: OpJoin, N: 1},
		{At: 30 * time.Second, Op: OpJoin, N: 2}, // at end: still runs
		{At: 31 * time.Second, Op: OpJoin, N: 4}, // past end: never
	}
	converged, after := f.Play(steps, 30*time.Second, rand.New(rand.NewSource(1)), 10*time.Second, func() {
		ticks = append(ticks, tickAt{f.Elapsed() - origin, f.Joins})
	})
	if !converged || after != time.Second {
		t.Errorf("watch: converged=%v after=%s, want true after 1s (poll runs before the instant's steps)", converged, after)
	}
	want := []tickAt{{10 * time.Second, n}, {20 * time.Second, n + 1}, {30 * time.Second, n + 2}}
	if !slices.Equal(ticks, want) {
		t.Errorf("ticks = %v, want %v (tick runs before the instant's steps, and at end)", ticks, want)
	}
	if f.Crashes != 1 {
		t.Errorf("crashes = %d, want 1 (steps sharing an instant run in slice order)", f.Crashes)
	}
	if f.Joins != n+4 || f.CoordCrashes != 1 {
		t.Errorf("joins=%d coord_crashes=%d, want %d and 1 (every step ≤ end exactly once, none past it)", f.Joins, f.CoordCrashes, n+4)
	}
	if got := f.Elapsed() - origin; got != 30*time.Second {
		t.Errorf("played %s, want 30s", got)
	}
}

// TestApplyDrawOrder pins how OpReplace and OpDepart consume their rng against
// hand-rolled copies of the two functions Apply absorbed: a schedule's
// outcome is a function of the draw order, and every pinned churn output
// with it.
func TestApplyDrawOrder(t *testing.T) {
	const n, seed = 24, 11
	state := func(f *DynamicFleet, rng *rand.Rand) [5]int64 {
		return [5]int64{int64(f.Joins), int64(f.Leaves), int64(f.Crashes), int64(len(f.ActiveEndpoints())), rng.Int63()}
	}

	got, want := quietFleet(n, 3*n, seed), quietFleet(n, 3*n, seed)
	rg, rw := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		got.Apply(Step{Op: OpReplace, P: 0.3, Crash: 0.5}, rg)
		var leavers []int
		for _, ep := range want.ActiveEndpoints() {
			if rw.Float64() < 0.3 {
				leavers = append(leavers, ep)
			}
		}
		for _, ep := range leavers {
			want.Depart(ep, rw.Float64() >= 0.5)
		}
		for range leavers {
			want.Spawn()
		}
	}
	if g, w := state(got, rg), state(want, rw); g != w || g[1]+g[2] == 0 {
		t.Errorf("OpReplace: joins/leaves/crashes/live/next-draw = %v, hand-rolled %v", g, w)
	}
	if !slices.Equal(got.ActiveEndpoints(), want.ActiveEndpoints()) {
		t.Errorf("OpReplace: live endpoints %v, hand-rolled %v", got.ActiveEndpoints(), want.ActiveEndpoints())
	}

	for _, k := range []int{5, 2 * n} { // the second asks for more than are live
		got.Apply(Step{Op: OpDepart, N: k, Crash: 0.5}, rg)
		eps := want.ActiveEndpoints()
		perm := rw.Perm(len(eps))
		for i := 0; i < min(k, len(eps)); i++ {
			want.Depart(eps[perm[i]], rw.Float64() >= 0.5)
		}
		if g, w := state(got, rg), state(want, rw); g != w {
			t.Errorf("OpDepart N=%d: joins/leaves/crashes/live/next-draw = %v, hand-rolled %v", k, g, w)
		}
	}
	if len(got.ActiveEndpoints()) != 0 {
		t.Errorf("%d nodes survived departing everyone", len(got.ActiveEndpoints()))
	}
}

func TestScheduleDerivations(t *testing.T) {
	// capacity() of ChurnOptions{N: 30} per scenario, computed at the commit
	// before schedules were data: traces.Generate sizes the default
	// environment by it, so it may not move.
	capacity := [...]int{78, 36, 30, 30, 30, 30, 36, 30, 78}
	if len(capacity) != len(churnScenarios) {
		t.Fatalf("%d scenarios in the table, %d capacities pinned", len(churnScenarios), len(capacity))
	}
	for i := range churnScenarios {
		sc := ChurnScenario(i)
		o := ChurnOptions{N: 30, Scenario: sc}
		steps := o.fill()
		if got := sc.Schedule(ChurnOptions{N: 30}); !slices.Equal(got, steps) || len(steps) == 0 {
			t.Errorf("%s: Schedule() = %v, fill derived %v", sc, got, steps)
		}
		if !slices.IsSortedFunc(steps, func(a, b Step) int { return cmp.Compare(a.At, b.At) }) {
			t.Errorf("%s: schedule not sorted by At: %v", sc, steps)
		}
		if (o.Coordinators == 3) != has(steps, OpCrashCoord) || (o.Coordinators != 1 && o.Coordinators != 3) {
			t.Errorf("%s: default coordinators = %d, want 3 iff the schedule crashes one, else 1", sc, o.Coordinators)
		}
		if got := o.capacity(steps); got != capacity[i] {
			t.Errorf("%s: capacity = %d, want %d", sc, got, capacity[i])
		}
		if (o.Loss > 0) != churnScenarios[i].lossy {
			t.Errorf("%s: default loss %v, table says lossy=%v", sc, o.Loss, churnScenarios[i].lossy)
		}
		for _, name := range []string{sc.String(), churnScenarios[i].alias} {
			if got, err := ParseChurnScenario(name); name != "" && (err != nil || got != sc) {
				t.Errorf("ParseChurnScenario(%q) = %v, %v; want %v", name, got, err, sc)
			}
		}
	}
	for name, want := range map[string]ChurnScenario{"flash": ChurnFlashCrowd, "mass": ChurnMassDeparture} {
		if got, err := ParseChurnScenario(name); err != nil || got != want {
			t.Errorf("ParseChurnScenario(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "poison", "Poisson"} {
		if got, err := ParseChurnScenario(name); err == nil {
			t.Errorf("ParseChurnScenario(%q) = %v, want an error", name, got)
		}
	}
	// A straggler interval shorter than the blackout interleaves the watch
	// with the churn steps; the merge keeps the order.
	steps := ChurnStraggler.Schedule(ChurnOptions{N: 30, Interval: 20 * time.Second, Duration: 2 * time.Minute})
	var ops []Op
	for _, s := range steps[:5] {
		ops = append(ops, s.Op)
	}
	if want := []Op{OpStarve, OpReplace, OpReplace, OpReplace, OpWatch}; !slices.Equal(ops, want) {
		t.Errorf("straggler at a 20 s interval opens %v, want %v", ops, want)
	}
}

// Schedule returns the scenario's fault schedule under o (defaults applied as
// RunChurn applies them), in time since the churn phase began.
func (s ChurnScenario) Schedule(o ChurnOptions) []Step {
	o.Scenario = s
	return o.fill()
}
