// Command experiments regenerates every table and figure of the paper's
// evaluation (see README.md for the experiment index). Each subcommand
// prints whitespace-separated data columns with a commented header, suitable
// for gnuplot or eyeballing.
//
// Usage:
//
//	experiments fig1 [-n 359] [-seed S]
//	experiments fig8|fig10|fig11|fig12|fig13|fig14 [-n 140] [-minutes 136] [-seed S]
//	experiments fig9 [-max 196] [-seed S]
//	experiments churn [-n 500] [-scenario poisson|flash|mass|coord-crash|partition|regional|
//	                  lossy-gossip|gossip-crash|straggler]
//	                  [-rate 0.05] [-minutes 10] [-coords C] [-partition-secs 60]
//	                  [-restart-secs 120] [-loss 0.05] [-dup 0.02] [-jitter-ms 20] [-seed S]
//	                  (exits 1 when a watched scenario does not converge within its bound)
//	experiments soak [-n 120] [-minutes 120] [-max-heap-mb 512] [-seed S]
//	experiments failover [-seed S]   (exits 1 when a scenario never recovers)
//	experiments multihop [-n 64] [-hops 4]
//	experiments table-config
//	experiments table-theory
//	experiments table-capacity
//	experiments lowerbound
//	experiments all          (runs everything at reduced scale)
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"allpairs/internal/bwmodel"
	"allpairs/internal/core"
	"allpairs/internal/emul"
	"allpairs/internal/lowerbound"
	"allpairs/internal/membership"
	"allpairs/internal/overlay"
	"allpairs/internal/stats"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Int("n", 140, "overlay size")
	seed := fs.Int64("seed", 1, "random seed")
	minutes := fs.Int("minutes", 136, "deployment duration (virtual minutes)")
	maxN := fs.Int("max", 196, "largest overlay size for fig9")
	hops := fs.Int("hops", 4, "multi-hop bound")
	scenario := fs.String("scenario", "poisson", "churn scenario: poisson, flash, mass, coord-crash, partition, regional, lossy-gossip, gossip-crash, or straggler")
	rate := fs.Float64("rate", 0.05, "per-node departure probability per churn interval")
	burst := fs.Int("burst", 0, "flash-crowd/mass-departure size (default n/5)")
	coords := fs.Int("coords", 0, "membership coordinator replicas (default 1; 3 for the coordinator fault scenarios)")
	partitionSecs := fs.Int("partition-secs", 60, "partition duration for -scenario partition")
	restartSecs := fs.Int("restart-secs", 120, "primary restart delay for -scenario coord-crash")
	loss := fs.Float64("loss", 0, "member-plane packet loss probability (0 = scenario default; negative = off)")
	dup := fs.Float64("dup", 0, "member-plane packet duplication probability (0 = scenario default; negative = off)")
	jitterMS := fs.Int("jitter-ms", 0, "member-plane latency jitter bound, ms (0 = scenario default; negative = off)")
	maxHeapMB := fs.Int("max-heap-mb", 512, "soak: live-heap ceiling in MiB; exceeding it fails the run")
	_ = fs.Parse(os.Args[2:])
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	switch cmd {
	case "fig1":
		if !explicit["n"] {
			*n = 359 // the figure's dataset had 359 hosts
		}
		fig1(*n, *seed)
	case "fig8", "fig10", "fig11", "fig12", "fig13", "fig14":
		dep := deployment(*n, *seed, time.Duration(*minutes)*time.Minute)
		printDeploymentFigure(cmd, dep)
	case "deployment":
		dep := deployment(*n, *seed, time.Duration(*minutes)*time.Minute)
		for _, f := range []string{"fig8", "fig10", "fig11", "fig12", "fig13", "fig14"} {
			printDeploymentFigure(f, dep)
			fmt.Println()
		}
	case "fig9":
		fig9(*maxN, *seed)
	case "churn":
		// The -n/-minutes defaults are deployment-shaped; churn has its own
		// unless the user set them explicitly.
		if !explicit["n"] {
			*n = 500 // the acceptance scenario's size
		}
		if !explicit["minutes"] {
			*minutes = 10
		}
		sc, err := emul.ParseChurnScenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !churn(emul.ChurnOptions{
			DynamicFleetOptions: emul.DynamicFleetOptions{
				Seed: *seed, Coordinators: *coords,
				Loss: *loss, Dup: *dup, Jitter: time.Duration(*jitterMS) * time.Millisecond,
			},
			N: *n, Scenario: sc, Duration: time.Duration(*minutes) * time.Minute,
			Rate: *rate, Burst: *burst,
			PartitionFor:      time.Duration(*partitionSecs) * time.Second,
			CoordRestartAfter: time.Duration(*restartSecs) * time.Second,
		}) {
			os.Exit(1)
		}
	case "soak":
		if !explicit["n"] {
			*n = 120
		}
		if !explicit["minutes"] {
			*minutes = 120
		}
		soak(*n, *seed, time.Duration(*minutes)*time.Minute, *maxHeapMB)
	case "failover":
		if !failover(*seed) {
			os.Exit(1)
		}
	case "multihop":
		if !explicit["n"] {
			*n = 64
		}
		multihop(*n, *hops, *seed)
	case "table-config":
		tableConfig()
	case "table-theory":
		tableTheory()
	case "table-capacity":
		tableCapacity()
	case "lowerbound":
		lowerBound()
	case "all":
		runAll(*seed)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <fig1|fig8|fig9|fig10|fig11|fig12|fig13|fig14|deployment|churn|soak|failover|multihop|table-config|table-theory|table-capacity|lowerbound|all> [flags]`)
}

// ---------------------------------------------------------------------------

func fig1(n int, seed int64) {
	env := traces.PlanetLab(n, seed)
	r := emul.Fig1(env, 400)
	fmt.Printf("# Figure 1: RTT CDFs for the %d pairs with direct latency > 400 ms (n=%d hosts)\n", r.HighPairs, n)
	fmt.Printf("# latency_ms  direct  best_1hop  excl_top_3%%  excl_top_50%%\n")
	for _, x := range []float64{200, 300, 400, 500, 600, 700, 800, 900, 1000} {
		fmt.Printf("%6.0f  %6.3f  %6.3f  %6.3f  %6.3f\n",
			x, r.Direct.FractionLE(x), r.Best.FractionLE(x), r.Excl3.FractionLE(x), r.Excl50.FractionLE(x))
	}
	fmt.Printf("# paper shape @400ms: direct=0, best ≥ 0.45, excl3 ≈ 0.30, excl50 ≈ 0\n")
}

func fig9(maxN int, seed int64) {
	fmt.Println("# Figure 9: average per-node routing traffic (in+out, Kbps), 5-minute emulation, no failures")
	fmt.Println("#   n    RON(meas)  quorum(meas)  RON(theory)  quorum(theory)")
	warm, meas := time.Minute, 4*time.Minute
	var ns []int
	for _, n := range []int{25, 49, 81, 100, 121, 144, 169, 196} {
		if n > maxN {
			break
		}
		ns = append(ns, n)
	}
	// All points of both curves run concurrently on the emul worker pool;
	// results print in size order regardless of completion order.
	points := emul.Fig9Sweep(ns, []overlay.Algorithm{overlay.AlgFullMesh, overlay.AlgQuorum}, seed, warm, meas)
	for i, n := range ns {
		fmt.Printf("%5d  %9.2f  %11.2f  %10.2f  %13.2f\n",
			n, points[i][0], points[i][1],
			bwmodel.PaperFullMeshRouting(n)/1000, bwmodel.PaperQuorumRouting(n)/1000)
	}
	fmt.Println("# paper @140: RON 34.8 Kbps, quorum 15.3 Kbps")
}

// churn prints one churn scenario and reports whether it held its
// convergence bound (true for a scenario that sets none).
func churn(opt emul.ChurnOptions) bool {
	fmt.Fprintf(os.Stderr, "running %d-node %s churn for %v (virtual)...\n", opt.N, opt.Scenario, opt.Duration)
	res := emul.RunChurn(opt)
	fmt.Print(res.Format())
	if res.ConvergeBound > 0 && (!res.Converged || res.ConvergedAfter > res.ConvergeBound) {
		fmt.Fprintf(os.Stderr, "churn FAILED: views did not converge within %s\n", res.ConvergeBound)
		return false
	}
	return true
}

// soak drives a lossy-gossip Poisson churn fleet for hours of virtual time
// with a hard live-heap ceiling: a leaking dedup cache, an unbounded delta
// log, or a timer pileup shows up as monotonic heap growth long before it
// would trip an ordinary test. Prints one line per virtual 10 minutes and
// fails (exit 1) if the post-GC live heap ever exceeds maxHeapMB.
func soak(n int, seed int64, dur time.Duration, maxHeapMB int) {
	f := emul.NewDynamicFleet(n, emul.DynamicFleetOptions{
		MaxN:         n + n/2 + 64,
		Seed:         seed,
		Coordinators: 3,
		Loss:         0.05,
		Dup:          0.02,
		Jitter:       20 * time.Millisecond,
		Membership:   membership.ClientConfig{Heartbeat: 30 * time.Second, JoinRetry: 2 * time.Second},
		Coordinator: membership.CoordinatorConfig{
			Timeout: 2 * time.Minute,
			Sweep:   15 * time.Second,
		},
	})
	fmt.Fprintf(os.Stderr, "soaking %d nodes for %v (virtual) under 5%% loss, heap ceiling %d MiB...\n",
		n, dur, maxHeapMB)
	fmt.Println("# soak lossy-gossip poisson churn")
	fmt.Println("# t_min  members  joins  departs  heap_mib")
	// 5% Poisson churn per virtual minute, half crashes. Then quiesce: stop
	// churning, let the coordinator expire every crashed member (up to the
	// 2 min membership timeout plus a sweep), and give the last view change
	// the scenarios' 90 s convergence bound.
	steps := emul.Poisson(time.Minute, dur, 0.05)
	watch := emul.Step{At: dur + 2*time.Minute + 30*time.Second, Op: emul.OpWatch, For: 90 * time.Second}
	ceiling := uint64(maxHeapMB) << 20
	var peak uint64
	ok := true
	report := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		members := 0
		if prim := f.Primary(); prim != nil {
			members = prim.MemberCount()
		}
		fmt.Printf("%6.0f  %7d  %5d  %7d  %8.1f\n",
			f.Elapsed().Minutes(), members, f.Joins, f.Leaves+f.Crashes,
			float64(ms.HeapAlloc)/(1<<20))
		if ms.HeapAlloc > ceiling {
			ok = false
		}
	}
	converged, convWait := f.Play(append(steps, watch), watch.At+watch.For,
		rand.New(rand.NewSource(seed*131+17)), 10*time.Minute, report)
	report()
	var agg membership.ClientStats
	for _, ep := range f.ActiveEndpoints() {
		agg.Add(f.Node(ep).MembershipStats())
	}
	fmt.Printf("# gossip seen=%d dups=%d forwards=%d pulls=%d/%d bridged=%d full_view_reqs=%d\n",
		agg.GossipSeen, agg.GossipDups, agg.GossipForwards,
		agg.PullsSent, agg.PullsServed, agg.GapsBridged, agg.FullViewRequests)
	fmt.Printf("# peak_heap=%.1f MiB ceiling=%d MiB converged=%v conv_wait=%s spawns_dropped=%d\n",
		float64(peak)/(1<<20), maxHeapMB, converged, convWait, f.SpawnsDropped)
	if !ok {
		fmt.Fprintf(os.Stderr, "soak FAILED: live heap exceeded %d MiB\n", maxHeapMB)
		os.Exit(1)
	}
	if !converged {
		fmt.Fprintln(os.Stderr, "soak FAILED: fleet did not converge after quiesce")
		os.Exit(1)
	}
}

func deployment(n int, seed int64, dur time.Duration) *emul.DeploymentResult {
	fmt.Fprintf(os.Stderr, "running %d-node deployment for %v (virtual)...\n", n, dur)
	return emul.RunDeployment(emul.DeploymentOptions{N: n, Seed: seed, Duration: dur})
}

func printDeploymentFigure(cmd string, dep *emul.DeploymentResult) {
	switch cmd {
	case "fig8":
		fmt.Println("# Figure 8: CDF of concurrent link failures per node (mean and max over 1-min samples)")
		fmt.Println("# failures  nodes_mean_le  nodes_max_le")
		printCountCDFs(dep.MeanFailures, dep.MaxFailures)
	case "fig10":
		fmt.Println("# Figure 10: CDF of per-node routing traffic, Kbps (mean; max over any 1-min window)")
		fmt.Println("# kbps  nodes_mean_le  nodes_max_le")
		printCountCDFs(dep.MeanKbps, dep.MaxKbps)
		mean, _ := stats.MeanMax(dep.MeanKbps)
		_, mx := stats.MeanMax(dep.MaxKbps)
		fmt.Printf("# fleet average %.1f Kbps, worst 1-min window %.1f Kbps (paper: avg <13, max <17)\n", mean, mx)
	case "fig11":
		fmt.Println("# Figure 11: CDF of destinations with double rendezvous failure per node (mean, max)")
		fmt.Println("# destinations  nodes_mean_le  nodes_max_le")
		printCountCDFs(dep.MeanDouble, dep.MaxDouble)
	case "fig12":
		fmt.Println("# Figure 12: route freshness over all (src,dst) pairs, seconds (sampled every 30 s)")
		printRouteAges(dep.Pairs)
	case "fig13":
		fmt.Printf("# Figure 13: route freshness from the well-connected node %d (mean concurrent failures %.1f)\n",
			dep.WellNode, dep.WellMeanFailures)
		printRouteAges(dep.WellStats)
	case "fig14":
		fmt.Printf("# Figure 14: route freshness from the poorly-connected node %d (mean concurrent failures %.1f)\n",
			dep.PoorNode, dep.PoorMeanFailures)
		printRouteAges(dep.PoorStats)
	}
}

func printCountCDFs(mean, max []float64) {
	mc := stats.NewCDF(mean)
	xc := stats.NewCDF(max)
	xs := unionXs(mc, xc)
	for _, x := range xs {
		fmt.Printf("%8.2f  %6d  %6d\n", x, mc.CountLE(x), xc.CountLE(x))
	}
}

// printRouteAges prints the CDFs of the per-pair route-age summaries.
func printRouteAges(pairs []emul.PairStats) {
	fmt.Println("# seconds  count_median_le  count_mean_le  count_p97_le  count_max_le")
	med := &stats.CDF{}
	mean := &stats.CDF{}
	p97 := &stats.CDF{}
	mx := &stats.CDF{}
	for _, p := range pairs {
		med.Add(p.Median)
		mean.Add(p.Mean)
		p97.Add(p.P97)
		mx.Add(p.Max)
	}
	for _, x := range []float64{1, 2, 4, 8, 15, 30, 60, 120, 240, 480, 960} {
		fmt.Printf("%7.0f  %7d  %7d  %7d  %7d\n",
			x, med.CountLE(x), mean.CountLE(x), p97.CountLE(x), mx.CountLE(x))
	}
	fmt.Printf("# pairs: %d; paper: typical update every ~8 s, 97%% of medians < 12 s\n", len(pairs))
}

func unionXs(cdfs ...*stats.CDF) []float64 {
	set := map[float64]bool{}
	for _, c := range cdfs {
		for _, v := range c.Values() {
			set[v] = true
		}
	}
	xs := make([]float64, 0, len(set))
	for v := range set {
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	if len(xs) > 60 {
		// thin to ~60 rows
		out := xs[:0]
		step := len(xs) / 60
		for i := 0; i < len(xs); i += step + 1 {
			out = append(out, xs[i])
		}
		xs = append(out, xs[len(xs)-1])
	}
	return xs
}

// failover prints the three §4.1 scenarios and reports whether every one of
// them recovered.
func failover(seed int64) bool {
	fmt.Println("# §4.1 failure scenarios: measured recovery vs paper bound")
	fmt.Println("# scenario  recovered_s  bound_s  within  failovers_used")
	ok := true
	for s := 1; s <= 3; s++ {
		res, err := emul.RunFailoverScenario(s, seed)
		if err != nil {
			fmt.Printf("%9d  error: %v\n", s, err)
			ok = false
			continue
		}
		fmt.Printf("%9d  %11.1f  %7.1f  %6v  %14d\n",
			s, res.Recovered.Seconds(), res.Bound.Seconds(), res.WithinBound, res.FailoversUsed)
	}
	fmt.Println("# paper bounds: ≤p+2r, ≤p+2r, ≤p+3r (p=30s probing detection, r=15s)")
	return ok
}

func multihop(n, hops int, seed int64) {
	env := traces.PlanetLab(n, seed)
	costs := make([][]wire.Cost, n)
	for i := range costs {
		costs[i] = make([]wire.Cost, n)
		for j := range costs[i] {
			if i != j {
				costs[i][j] = wire.Cost(env.LatencyMS[i][j] + 0.5)
			}
		}
	}
	res, err := core.RunMultiHop(costs, hops)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	improved, total := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if res.Dist[i][j] < costs[i][j] {
				improved++
			}
		}
	}
	var maxBytes int64
	for _, b := range res.BytesPerNode {
		if b > maxBytes {
			maxBytes = b
		}
	}
	fmt.Printf("# §3 multi-hop: n=%d, ≤%d hops in %d iterations\n", n, res.MaxHops, res.Iterations)
	fmt.Printf("pairs_improved_over_direct  %d/%d\n", improved, total)
	fmt.Printf("max_per_node_bytes          %d\n", maxBytes)
	fmt.Printf("theory_n_sqrt_n_log_bytes   %.0f\n", core.TheoreticalMultiHopBytes(n, hops))
}

func tableConfig() {
	fmt.Println("# §5 configuration (paper's table)")
	fmt.Println("parameter            full-mesh(RON)  quorum")
	fmt.Println("routing interval r   30s             15s")
	fmt.Println("probing interval p   30s             30s")
	fmt.Println("probes for failure   5               5")
	fmt.Println("row staleness        3r              3r")
}

func tableTheory() {
	fmt.Println("# §6.1 closed-form per-node traffic (bps, in+out)")
	fmt.Println("#   n    probing  RON_routing  quorum_routing")
	for _, n := range []int{25, 50, 100, 140, 200, 300, 416} {
		fmt.Printf("%5d  %9.0f  %11.0f  %14.0f\n",
			n, bwmodel.PaperProbing(n), bwmodel.PaperFullMeshRouting(n), bwmodel.PaperQuorumRouting(n))
	}
	fmt.Println("# paper spot check @140: routing 34.8 vs 15.3 Kbps")
}

func tableCapacity() {
	fmt.Println("# §1 capacity claims")
	fmt.Printf("nodes at 56 Kbps: full-mesh %d, quorum %d\n",
		bwmodel.PaperCapacityFullMesh(56_000), bwmodel.PaperCapacityQuorum(56_000))
	fmt.Printf("416 PlanetLab sites: full-mesh %.0f Kbps, quorum %.0f Kbps\n",
		bwmodel.PaperTotal(416, false)/1000, bwmodel.PaperTotal(416, true)/1000)
	fmt.Println("# paper: 165 vs ~300 nodes; 307 vs 86 Kbps")
}

func lowerBound() {
	fmt.Println("# Appendix A: diamond-counting lower bound")
	fmt.Println("#    n   diamonds=3C(n,4)  min_edges/node  quorum_edges/node  ratio")
	for _, n := range []int{16, 64, 144, 400, 1024} {
		fmt.Printf("%6d  %16d  %14.0f  %17.0f  %5.2f\n",
			n, lowerbound.DiamondsInComplete(n), lowerbound.MinEdgesPerNode(n),
			lowerbound.QuorumEdgesPerNode(n), lowerbound.OptimalityRatio(n))
	}
	fmt.Println("# the grid quorum is within a constant (→ 2√8 ≈ 5.66) of the lower bound")
}

func runAll(seed int64) {
	fig1(200, seed)
	fmt.Println()
	fig9(100, seed)
	fmt.Println()
	dep := deployment(64, seed, 20*time.Minute)
	for _, f := range []string{"fig8", "fig10", "fig11", "fig12", "fig13", "fig14"} {
		printDeploymentFigure(f, dep)
		fmt.Println()
	}
	for _, opt := range []emul.ChurnOptions{
		{N: 64, Scenario: emul.ChurnPoisson, Duration: 6 * time.Minute},
		{N: 64, Scenario: emul.ChurnPartition, Duration: 6 * time.Minute},
		{N: 24, Scenario: emul.ChurnLossyGossip, Duration: 5 * time.Minute, Burst: 12},
	} {
		opt.Seed, opt.Rate, opt.PartitionFor, opt.CoordRestartAfter = seed, 0.05, time.Minute, 2*time.Minute
		churn(opt)
		fmt.Println()
	}
	failover(seed)
	fmt.Println()
	multihop(49, 4, seed)
	fmt.Println()
	tableConfig()
	fmt.Println()
	tableTheory()
	fmt.Println()
	tableCapacity()
	fmt.Println()
	lowerBound()
}
