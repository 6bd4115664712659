package emul

import (
	"fmt"
	"math"
	"slices"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/grid"
	"allpairs/internal/overlay"
	"allpairs/internal/par"
	"allpairs/internal/probe"
	"allpairs/internal/simnet"
	"allpairs/internal/stats"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// ---------------------------------------------------------------------------
// Figure 1 — one-hop detours on high-latency paths (pure computation over a
// latency matrix; the paper used the 2005 PlanetLab all-pairs-ping dataset).
// ---------------------------------------------------------------------------

// Fig1Result holds the four CDFs of Figure 1, over pairs whose direct RTT
// exceeds the threshold.
type Fig1Result struct {
	HighPairs int
	Direct    *stats.CDF // "Point-to-Point Latencies"
	Best      *stats.CDF // "Best 1-Hop Paths"
	Excl3     *stats.CDF // "Excluding Top 3% of 1-Hops"
	Excl50    *stats.CDF // "Excluding Top 50% of 1-Hops"
}

// fig1Slot accumulates one source slot's share of the Figure 1 samples, so
// worker goroutines never contend and the merge is deterministic in slot
// order.
type fig1Slot struct {
	high                        int
	direct, best, excl3, excl50 []float64
}

// Fig1 computes the Figure 1 curves for an environment: for every pair with
// direct RTT above thresholdMS, the direct latency, the best one-hop
// latency, and the best remaining one-hop after excluding the top 3% and
// 50% of one-hop alternatives.
//
// The pass is the experiment suite's O(n³)-flavored hot spot, so it is
// sharded by source slot across a worker pool, and the per-pair full sort of
// alternatives is replaced by O(n) selection of just the three order
// statistics the figure needs (minimum, 3% and 50% exclusion indices). The
// latency matrix is symmetric, so the second leg reads the destination's row
// rather than a strided column.
func Fig1(env *traces.Env, thresholdMS float64) *Fig1Result {
	n := env.N
	slots := make([]fig1Slot, n)
	par.For(n, func(a int) {
		s := &slots[a]
		rowA := env.LatencyMS[a]
		alts := make([]float64, 0, n)
		for b := a + 1; b < n; b++ {
			direct := rowA[b]
			if direct <= thresholdMS {
				continue
			}
			rowB := env.LatencyMS[b]
			alts = alts[:0]
			for h := 0; h < n; h++ {
				if h == a || h == b {
					continue
				}
				alts = append(alts, rowA[h]+rowB[h])
			}
			if len(alts) == 0 {
				continue // n = 2: no possible one-hop, nothing to compare
			}
			s.high++
			best := alts[0]
			for _, v := range alts[1:] {
				if v < best {
					best = v
				}
			}
			s.direct = append(s.direct, direct)
			s.best = append(s.best, best)
			s.excl3 = append(s.excl3, stats.SelectKth(alts, excludeIndex(len(alts), 0.03)))
			s.excl50 = append(s.excl50, stats.SelectKth(alts, excludeIndex(len(alts), 0.50)))
		}
	})
	r := &Fig1Result{
		Direct: &stats.CDF{}, Best: &stats.CDF{}, Excl3: &stats.CDF{}, Excl50: &stats.CDF{},
	}
	for a := range slots {
		s := &slots[a]
		r.HighPairs += s.high
		for i := range s.direct {
			r.Direct.Add(s.direct[i])
			r.Best.Add(s.best[i])
			r.Excl3.Add(s.excl3[i])
			r.Excl50.Add(s.excl50[i])
		}
	}
	return r
}

// excludeIndex returns the index of the best remaining alternative after
// removing the top frac of k sorted alternatives.
func excludeIndex(k int, frac float64) int {
	idx := int(math.Ceil(float64(k) * frac))
	if idx >= k {
		idx = k - 1
	}
	return idx
}

// ---------------------------------------------------------------------------
// Figure 9 — steady-state routing bandwidth vs overlay size.
// ---------------------------------------------------------------------------

// failureFree clears every link's loss and down-fraction in env, leaving its
// latencies, and returns it.
func failureFree(env *traces.Env) *traces.Env {
	for a := range env.Loss {
		clear(env.Loss[a])
		clear(env.DownFrac[a])
	}
	return env
}

// Fig9Point runs a failure-free emulation of n nodes under the given
// algorithm and returns the average per-node routing traffic (in + out) in
// Kbps, measured after a warmup as in the paper's 5-minute runs.
func Fig9Point(n int, algo overlay.Algorithm, seed int64, warmup, measure time.Duration) float64 {
	env := failureFree(traces.Generate(n, seed, traces.Config{BadNodeFrac: 0.0001, InflateFrac: 0.05}))
	f := NewFleet(FleetOptions{N: n, Algorithm: algo, Seed: seed, Env: env})
	f.Run(warmup)
	before := f.Col.Snapshot(wire.CatRouting)
	f.Run(measure)
	after := f.Col.Snapshot(wire.CatRouting)
	per := RoutingKbpsPerNode(before, after, measure)
	var sum float64
	for _, v := range per {
		sum += v
	}
	return sum / float64(n)
}

// Fig9Sweep evaluates Fig9Point for every (size, algorithm) combination on a
// worker pool and returns the Kbps-per-node results indexed [i][j] to match
// ns[i] and algos[j]. Each point is an independent deterministic emulation
// (the fleet seeds the same way regardless of which worker runs it), so the
// sweep parallelizes without changing any number.
func Fig9Sweep(ns []int, algos []overlay.Algorithm, seed int64, warmup, measure time.Duration) [][]float64 {
	out := make([][]float64, len(ns))
	for i := range out {
		out[i] = make([]float64, len(algos))
	}
	par.For(len(ns)*len(algos), func(k int) {
		i, j := k/len(algos), k%len(algos)
		out[i][j] = Fig9Point(ns[i], algos[j], seed, warmup, measure)
	})
	return out
}

// ---------------------------------------------------------------------------
// Figures 8, 10, 11, 12, 13, 14 — the deployment-style run: one quorum fleet
// under the PlanetLab-like failure model, sampled like the paper's 136-minute
// measurement.
// ---------------------------------------------------------------------------

// DeploymentOptions configures a deployment-style run.
type DeploymentOptions struct {
	N        int
	Seed     int64
	Warmup   time.Duration // settle time before sampling (default 3 min)
	Duration time.Duration // sampled portion (paper: 136 min)
	Env      *traces.Env   // nil → traces.PlanetLab(N, Seed)
}

// DeploymentResult aggregates everything the deployment figures need.
type DeploymentResult struct {
	Opt DeploymentOptions
	Env *traces.Env

	// Per-node concurrent link failures (Figure 8): mean and max over 1-min
	// samples.
	MeanFailures, MaxFailures []float64
	// Per-node routing bandwidth in Kbps (Figure 10): mean over the run and
	// max over any 1-minute window.
	MeanKbps, MaxKbps []float64
	// Per-node destinations with double rendezvous failure (Figure 11):
	// mean and max over 1-min samples.
	MeanDouble, MaxDouble []float64
	// Per-pair freshness statistics (Figure 12).
	Pairs []PairStats
	// Figure 13/14 subjects and their per-destination freshness.
	WellNode, PoorNode   int
	WellStats, PoorStats []PairStats
	// Mean observed concurrent failures of the two subject nodes, reported
	// in the figure captions.
	WellMeanFailures, PoorMeanFailures float64
}

// RunDeployment executes the deployment experiment.
func RunDeployment(opt DeploymentOptions) *DeploymentResult {
	if opt.Warmup <= 0 {
		opt.Warmup = 3 * time.Minute
	}
	if opt.Duration <= 0 {
		opt.Duration = 136 * time.Minute
	}
	env := opt.Env
	if env == nil {
		env = traces.PlanetLab(opt.N, opt.Seed)
	}
	f := NewFleet(FleetOptions{N: opt.N, Algorithm: overlay.AlgQuorum, Seed: opt.Seed, Env: env})
	res := &DeploymentResult{
		Opt: opt, Env: env,
		MeanFailures: make([]float64, opt.N), MaxFailures: make([]float64, opt.N),
		MeanKbps: make([]float64, opt.N), MaxKbps: make([]float64, opt.N),
		MeanDouble: make([]float64, opt.N), MaxDouble: make([]float64, opt.N),
	}

	// Warm up with links all healthy, then inject the failure schedule.
	f.Run(opt.Warmup)
	f.ApplyFailureSchedule(env.FailureSchedule(opt.Duration, opt.Seed+1))

	startWindow := int(opt.Warmup / time.Minute)
	bwBefore := f.Col.Snapshot(wire.CatRouting)

	ages := newRouteAges(opt.N)
	failSamples := make([][]float64, opt.N)
	doubleSamples := make([][]float64, opt.N)
	sampleMin := func() {
		for i := 0; i < opt.N; i++ {
			failSamples[i] = append(failSamples[i], float64(f.Nodes[i].Prober().ConcurrentFailures()))
			doubleSamples[i] = append(doubleSamples[i], float64(f.QuorumStats(i).DoubleFailures))
		}
	}
	end := f.Elapsed() + opt.Duration
	next30 := f.Elapsed() + 30*time.Second
	nextMin := f.Elapsed() + time.Minute
	for f.Elapsed() < end {
		next := end
		if next30 < next {
			next = next30
		}
		if nextMin < next {
			next = nextMin
		}
		f.Net.RunUntil(next)
		if f.Elapsed() >= next30 {
			ages.sample(f, f.Start().Add(opt.Warmup))
			next30 += 30 * time.Second
		}
		if f.Elapsed() >= nextMin {
			sampleMin()
			nextMin += time.Minute
		}
	}

	bwAfter := f.Col.Snapshot(wire.CatRouting)
	meanKbps := RoutingKbpsPerNode(bwBefore, bwAfter, opt.Duration)
	endWindow := int((opt.Warmup + opt.Duration) / time.Minute)
	for i := 0; i < opt.N; i++ {
		res.MeanKbps[i] = meanKbps[i]
		res.MaxKbps[i] = f.Col.MaxWindowKbps(i, wire.CatRouting, startWindow, endWindow)
		res.MeanFailures[i], res.MaxFailures[i] = stats.MeanMax(failSamples[i])
		res.MeanDouble[i], res.MaxDouble[i] = stats.MeanMax(doubleSamples[i])
	}
	res.Pairs = ages.stats()
	res.WellNode = env.WellConnected()
	res.PoorNode = env.PoorlyConnected()
	res.WellStats = pairsFrom(res.Pairs, res.WellNode)
	res.PoorStats = pairsFrom(res.Pairs, res.PoorNode)
	res.WellMeanFailures, _ = stats.MeanMax(failSamples[res.WellNode])
	res.PoorMeanFailures, _ = stats.MeanMax(failSamples[res.PoorNode])
	return res
}

// PairStats describes one ordered pair's route age across all samples, in
// seconds.
type PairStats struct {
	Src, Dst               int
	Median, Mean, P97, Max float64
}

// routeAges collects, at the evaluation's 30-second sampling points, how long
// ago each node learned its route to each destination. The route table
// stamps every install, so a sample reads each node's Routes once.
type routeAges struct {
	n       int
	samples [][]float64 // [src*n + dst] age samples in seconds
}

func newRouteAges(n int) *routeAges {
	return &routeAges{n: n, samples: make([][]float64, n*n)}
}

// sample records one age for every ordered pair (src ≠ dst). A route never
// learned is recorded at the age since start, so dead pairs surface as
// worst-case staleness rather than disappearing.
func (a *routeAges) sample(f *Fleet, start time.Time) {
	now := f.Net.Now()
	for s, node := range f.Nodes {
		for d, e := range node.Router().Routes() {
			if d == s {
				continue
			}
			ref := e.When
			if ref.IsZero() {
				ref = start
			}
			a.samples[s*a.n+d] = append(a.samples[s*a.n+d], now.Sub(ref).Seconds())
		}
	}
}

// stats summarizes every ordered pair with at least one sample, in (src, dst)
// order.
func (a *routeAges) stats() []PairStats {
	out := make([]PairStats, 0, a.n*(a.n-1))
	for i, sm := range a.samples {
		if len(sm) > 0 {
			out = append(out, summarize(i/a.n, i%a.n, sm))
		}
	}
	return out
}

// pairsFrom returns the pairs originating at src, the per-node view of
// Figures 13 and 14.
func pairsFrom(pairs []PairStats, src int) []PairStats {
	return slices.DeleteFunc(slices.Clone(pairs), func(p PairStats) bool { return p.Src != src })
}

// summarize computes a pair's median, mean, nearest-rank 97th percentile and
// maximum.
func summarize(src, dst int, vals []float64) PairStats {
	cdf := stats.NewCDF(vals)
	sorted := cdf.Values()
	mean, _ := stats.MeanMax(sorted)
	// Nearest-rank 97th percentile: the smallest sample with at least 97 % of
	// the distribution at or below it.
	rank := max((97*len(sorted)+99)/100, 1) // ceil(0.97*n)
	return PairStats{Src: src, Dst: dst, Median: cdf.Median(), Mean: mean, P97: sorted[rank-1], Max: cdf.Max()}
}

// ---------------------------------------------------------------------------
// §4.1 failure scenarios 1–3: recovery time measurement with live probing.
// ---------------------------------------------------------------------------

// ScenarioResult records one failover scenario run.
type ScenarioResult struct {
	Scenario      int
	Src, Dst      int
	Recovered     time.Duration // from failure injection to optimal route installed
	Bound         time.Duration // the paper's bound: probe detection + k routing intervals
	WithinBound   bool
	FailoversUsed uint64 // src's failover recruits from injection to recovery
}

// RunFailoverScenario reproduces §4.1's scenarios on a 25-node quorum fleet
// with real probing and returns the measured recovery time.
//
// Scenario 1: direct link and best-hop link fail (bound p + 2r).
// Scenario 2: both default rendezvous (proximal) + direct fail (bound p + 2r).
// Scenario 3: one proximal, one remote rendezvous failure + direct (bound p + 3r).
func RunFailoverScenario(scenario int, seed int64) (*ScenarioResult, error) {
	const n = 25
	probeCfg := probe.Config{Interval: 30 * time.Second, ReplyTimeout: 3 * time.Second}
	quorumCfg := core.QuorumConfig{Interval: 15 * time.Second}
	env := failureFree(traces.Generate(n, seed, traces.Config{BadNodeFrac: 0.0001}))
	f := NewFleet(FleetOptions{
		N: n, Algorithm: overlay.AlgQuorum, Seed: seed, Env: env,
		Probe: probeCfg, Quorum: quorumCfg,
	})
	// Let probing and two routing rounds settle.
	f.Run(3 * time.Minute)

	// Choose a destination whose current best route is the DIRECT link and
	// which has two third-party rendezvous: the injected failures then truly
	// invalidate the route, so the measurement captures re-derivation rather
	// than an untouched detour surviving (in-flight recommendations for
	// unaffected detours would otherwise report near-zero recovery).
	src := 0
	q := f.Nodes[src].Router().(*core.Quorum)
	g := q.Grid()
	dst := -1
	for cand := 1; cand < n; cand++ {
		e, ok := f.Nodes[src].Router().BestHop(cand)
		if !ok || e.Hop != cand {
			continue
		}
		third := 0
		for _, k := range g.Common(src, cand) {
			if k != src && k != cand {
				third++
			}
		}
		if third >= 2 {
			dst = cand
			break
		}
	}
	if dst < 0 {
		return nil, fmt.Errorf("emul: no direct-optimal destination with two third-party rendezvous")
	}

	res := &ScenarioResult{Scenario: scenario, Src: src, Dst: dst}
	r := quorumCfg.Interval
	p := probeCfg.Interval
	switch scenario {
	case 1:
		e, ok := f.Nodes[src].Router().BestHop(dst)
		if !ok {
			return nil, fmt.Errorf("emul: no initial route")
		}
		hop := e.Hop
		if hop == dst { // force an indirect route by failing direct first
			hop = pickThirdParty(g, src, dst)
		}
		f.Net.SetLinkDown(src, dst, true)
		f.Net.SetLinkDown(src, hop, true)
		res.Bound = p + 2*r + 10*time.Second
	case 2:
		for _, k := range g.Common(src, dst) {
			if k != src {
				f.Net.SetLinkDown(src, k, true)
			}
		}
		f.Net.SetLinkDown(src, dst, true)
		res.Bound = p + 2*r + 10*time.Second
	case 3:
		var third []int
		for _, k := range g.Common(src, dst) {
			if k != src && k != dst {
				third = append(third, k)
			}
		}
		if len(third) < 2 {
			return nil, fmt.Errorf("emul: pair lacks two third-party rendezvous")
		}
		f.Net.SetLinkDown(src, third[0], true) // proximal
		f.Net.SetLinkDown(third[1], dst, true) // remote
		f.Net.SetLinkDown(src, dst, true)      // direct
		res.Bound = p + 3*r + quorumCfg.Interval*5/2 + 10*time.Second
	default:
		return nil, fmt.Errorf("emul: unknown scenario %d", scenario)
	}

	injected := f.Elapsed()
	injectedAt := f.Net.Now()
	recruited := f.QuorumStats(src).FailoverAttempts
	deadline := injected + 20*time.Minute
	everyone := make([]int, n)
	for i := range everyone {
		everyone[i] = i
	}
	for f.Elapsed() < deadline {
		f.Run(time.Second)
		want := oracleOneHop(f.Net, env, everyone, src, dst)
		e, ok := f.Nodes[src].Router().BestHop(dst)
		// Recovery means the routing plane re-derived the route after the
		// failures: a fresh (post-injection) rendezvous or self-computed
		// entry that is optimal and whose links are really up. Cached
		// pre-failure routes and the §4.2 fallback do not count — the
		// paper's scenario clocks measure rendezvous recovery.
		fresh := ok && e.When.After(injectedAt) &&
			(e.Source == core.SourceRendezvous || e.Source == core.SourceSelf)
		if fresh && want != wire.InfCost && withinMeasurementNoise(e.Cost, want) && routeUsable(f.Net, src, e.Hop, dst) {
			res.Recovered = f.Elapsed() - injected
			res.WithinBound = res.Recovered <= res.Bound
			res.FailoversUsed = f.QuorumStats(src).FailoverAttempts - recruited
			return res, nil
		}
	}
	return nil, fmt.Errorf("emul: scenario %d never recovered", scenario)
}

// pickThirdParty returns a node that is neither src, dst, nor one of their
// common rendezvous.
func pickThirdParty(g *grid.Grid, src, dst int) int {
	common := map[int]bool{src: true, dst: true}
	for _, k := range g.Common(src, dst) {
		common[k] = true
	}
	for h := 0; h < g.N(); h++ {
		if !common[h] {
			return h
		}
	}
	return dst
}

// oracleOneHop computes the true optimal one-hop RTT between endpoints a and
// b under current ground truth (environment RTTs, simulator link states),
// allowing any of hops as the intermediate: exactly the hops the overlay
// could recommend. Legs truncate to whole milliseconds the way the prober's
// clampMS quantizes its measurements, so a converged optimal route scores a
// stretch of exactly 1.0. A nil env is the homogeneous 40 ms network; no path
// at all reads wire.InfCost.
func oracleOneHop(nw *simnet.Network, env *traces.Env, hops []int, a, b int) wire.Cost {
	rtt := func(x, y int) wire.Cost {
		if x == y {
			return 0
		}
		if !nw.Reachable(x, y) {
			return wire.InfCost
		}
		if env != nil {
			return wire.Cost(env.LatencyMS[x][y])
		}
		return 40
	}
	best := rtt(a, b)
	for _, h := range hops {
		if h != a && h != b {
			best = min(best, rtt(a, h).Add(rtt(h, b)))
		}
	}
	return best
}

// withinMeasurementNoise accepts costs within EWMA/quantization error of the
// oracle (a few ms or 10%).
func withinMeasurementNoise(got, want wire.Cost) bool {
	d := int(got) - int(want)
	if d < 0 {
		d = -d
	}
	return d <= 5 || float64(d) <= 0.1*float64(want)
}

// routeUsable verifies a route from endpoint a to b through hop (b itself
// for the direct path) against ground truth: every link on it is up.
func routeUsable(nw *simnet.Network, a, hop, b int) bool {
	if hop == b {
		return nw.Reachable(a, b)
	}
	return hop >= 0 && nw.Reachable(a, hop) && nw.Reachable(hop, b)
}
