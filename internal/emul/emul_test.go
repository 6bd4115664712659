package emul

import (
	"testing"
	"time"

	"allpairs/internal/overlay"
	"allpairs/internal/stats"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

func TestFleetConvergesAndAccounts(t *testing.T) {
	f := NewFleet(FleetOptions{N: 16, Algorithm: overlay.AlgQuorum, Seed: 1})
	f.Run(3 * time.Minute)
	// Every node routes to every other.
	for i, node := range f.Nodes {
		if got := len(node.RouteTable()); got != 15 {
			t.Errorf("node %d: %d routes", i, got)
		}
	}
	// Traffic was recorded in both planes and directions.
	for i := 0; i < 16; i++ {
		if f.Col.TotalBytes(i, wire.CatProbing) == 0 {
			t.Errorf("node %d: no probing bytes", i)
		}
		if f.Col.TotalBytes(i, wire.CatRouting) == 0 {
			t.Errorf("node %d: no routing bytes", i)
		}
	}
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	// The paper (359 hosts, Nov 2005): of the pairs above 400 ms, at least
	// 45% get below 400 ms with the best one-hop; excluding the top 3% of
	// one-hops drops that to ~30%; excluding 50% leaves almost nothing.
	env := traces.PlanetLab(359, 20051123)
	r := Fig1(env, 400)
	if r.HighPairs < 500 {
		t.Fatalf("only %d high-latency pairs", r.HighPairs)
	}
	best := r.Best.FractionLE(400)
	excl3 := r.Excl3.FractionLE(400)
	excl50 := r.Excl50.FractionLE(400)
	direct := r.Direct.FractionLE(400)
	if direct != 0 {
		t.Errorf("direct CDF has mass below threshold: %f", direct)
	}
	if best < 0.40 {
		t.Errorf("best 1-hop rescues only %.2f of pairs, paper shape wants ≥0.45", best)
	}
	if !(excl3 < best) {
		t.Errorf("excluding top 3%% should hurt: best %.2f, excl3 %.2f", best, excl3)
	}
	if best-excl3 < 0.1 {
		t.Errorf("top 3%% of one-hops should carry much of the gain: best %.2f, excl3 %.2f", best, excl3)
	}
	if !(excl50 <= excl3) {
		t.Errorf("excluding half should hurt at least as much: excl3 %.2f, excl50 %.2f", excl3, excl50)
	}
	if excl50 > 0.1 {
		t.Errorf("bottom 50%% of one-hops should contain almost no rescue: %.2f", excl50)
	}
}

func TestFig9QuorumBeatsFullMesh(t *testing.T) {
	// At 49 nodes and beyond, the quorum algorithm must use noticeably less
	// routing bandwidth; shapes per Figure 9.
	n := 49
	warm, meas := 90*time.Second, 3*time.Minute
	mesh := Fig9Point(n, overlay.AlgFullMesh, 2, warm, meas)
	quorum := Fig9Point(n, overlay.AlgQuorum, 2, warm, meas)
	if quorum >= mesh {
		t.Errorf("quorum %.2f Kbps ≥ full-mesh %.2f Kbps at n=%d", quorum, mesh, n)
	}
	if mesh/quorum < 1.2 {
		t.Errorf("gain only %.2fx at n=%d", mesh/quorum, n)
	}
	if quorum <= 0 {
		t.Error("no quorum traffic measured")
	}
}

func TestScenario2RecoversWithinBound(t *testing.T) {
	res, err := RunFailoverScenario(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WithinBound {
		t.Errorf("scenario 2 recovered in %v, bound %v", res.Recovered, res.Bound)
	}
	if res.FailoversUsed == 0 {
		t.Error("scenario 2 should exercise failover")
	}
}

func TestScenario1RecoversWithinBound(t *testing.T) {
	res, err := RunFailoverScenario(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WithinBound {
		t.Errorf("scenario 1 recovered in %v, bound %v", res.Recovered, res.Bound)
	}
}

func TestScenario3RecoversWithinBound(t *testing.T) {
	res, err := RunFailoverScenario(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WithinBound {
		t.Errorf("scenario 3 recovered in %v, bound %v", res.Recovered, res.Bound)
	}
}

func TestRunFailoverScenarioRejectsUnknown(t *testing.T) {
	if _, err := RunFailoverScenario(9, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestSmallDeploymentRun(t *testing.T) {
	// A scaled-down Figure 8/10/11/12 run: 36 nodes, 12 minutes.
	res := RunDeployment(DeploymentOptions{
		N:        36,
		Seed:     3,
		Warmup:   2 * time.Minute,
		Duration: 12 * time.Minute,
	})
	if len(res.MeanFailures) != 36 {
		t.Fatal("missing per-node failure stats")
	}
	// Bandwidth sanity: all nodes moved routing traffic, max ≥ mean.
	for i := 0; i < 36; i++ {
		if res.MeanKbps[i] <= 0 {
			t.Errorf("node %d: mean Kbps = %f", i, res.MeanKbps[i])
		}
		if res.MaxKbps[i] < res.MeanKbps[i]-0.01 {
			t.Errorf("node %d: max %.2f < mean %.2f", i, res.MaxKbps[i], res.MeanKbps[i])
		}
		if res.MaxFailures[i] < res.MeanFailures[i] {
			t.Errorf("node %d: max failures < mean", i)
		}
		if res.MaxDouble[i] < res.MeanDouble[i] {
			t.Errorf("node %d: max double < mean", i)
		}
	}
	// Freshness: all ordered pairs tracked.
	if len(res.Pairs) != 36*35 {
		t.Errorf("pair stats count = %d", len(res.Pairs))
	}
	// The poorly connected node should see at least as many failures as the
	// well connected one.
	if res.PoorMeanFailures < res.WellMeanFailures {
		t.Errorf("poor node mean failures %.1f < well node %.1f",
			res.PoorMeanFailures, res.WellMeanFailures)
	}
	if len(res.WellStats) == 0 || len(res.PoorStats) == 0 {
		t.Error("missing per-node freshness stats")
	}
	// Sampling regression: the run must produce one freshness sample per
	// 30 s — per-pair max and median must differ somewhere, or the sampler
	// only ran once.
	varied := false
	for _, p := range res.Pairs {
		if p.Max > p.Median {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("all pairs have max == median freshness; sampling loop broken")
	}
	// Median pair freshness should be within one routing interval region
	// (paper: ~8 s typical for r=15 s) — allow generous slack but require
	// sub-minute.
	var medians []float64
	for _, p := range res.Pairs {
		medians = append(medians, p.Median)
	}
	mean, _ := stats.MeanMax(medians)
	if mean > 60 {
		t.Errorf("average median freshness %.1f s; routing updates not flowing", mean)
	}
}

func TestRedundancyAblation(t *testing.T) {
	env := traces.PlanetLab(100, 5)
	double, single := RedundancyAblation(env)
	if double <= 0 || single <= 0 {
		t.Fatalf("degenerate ablation: double=%f single=%f", double, single)
	}
	if double >= single {
		t.Errorf("two rendezvous should fail less often than one: double=%f single=%f", double, single)
	}
	if single/double < 2 {
		t.Errorf("redundancy gain only %.1fx", single/double)
	}
}

func TestExcludeIndex(t *testing.T) {
	if excludeIndex(100, 0.03) != 3 {
		t.Errorf("excludeIndex(100, .03) = %d", excludeIndex(100, 0.03))
	}
	if excludeIndex(100, 0.5) != 50 {
		t.Errorf("excludeIndex(100, .5) = %d", excludeIndex(100, 0.5))
	}
	if excludeIndex(1, 0.99) != 0 {
		t.Errorf("excludeIndex(1, .99) = %d", excludeIndex(1, 0.99))
	}
}

func TestFleetDeterminism(t *testing.T) {
	run := func() (uint64, uint64, []uint64) {
		f := NewFleet(FleetOptions{N: 12, Algorithm: overlay.AlgQuorum, Seed: 77,
			Env: traces.PlanetLab(12, 77)})
		f.Run(4 * time.Minute)
		return f.Net.Delivered(), f.Net.Dropped(), f.Col.Snapshot(wire.CatRouting)
	}
	d1, x1, s1 := run()
	d2, x2, s2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("packet counts differ: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("node %d byte counts differ: %d vs %d", i, s1[i], s2[i])
		}
	}
}
