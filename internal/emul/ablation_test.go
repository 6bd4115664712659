package emul

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/grid"
	"allpairs/internal/overlay"
	"allpairs/internal/stats"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// BenchmarkAblationRedundancy reports the expected fraction of pairs with no
// usable rendezvous under the grid's two-server intersection vs a
// hypothetical single-server assignment (§4's motivation).
func BenchmarkAblationRedundancy(b *testing.B) {
	env := traces.PlanetLab(100, 5)
	var double, single float64
	for i := 0; i < b.N; i++ {
		double, single = RedundancyAblation(env)
	}
	b.ReportMetric(double*100, "double_fail_pct")
	b.ReportMetric(single*100, "single_fail_pct")
}

// BenchmarkAblationStaleness compares the 3r row-staleness window (§6.2.2)
// against a tight 1r window under 30% packet loss, reporting each pair's
// worst observed route age (mean and 97th percentile across pairs). The
// wider window keeps recommendations flowing when round-1 rows are lost.
func BenchmarkAblationStaleness(b *testing.B) {
	for _, mult := range []int{1, 3} {
		b.Run(fmt.Sprintf("staleness=%dr", mult), func(b *testing.B) {
			var mean, p97 float64
			for i := 0; i < b.N; i++ {
				const r = 15 * time.Second
				qc := core.QuorumConfig{Interval: r, Staleness: time.Duration(mult) * r}
				mean, p97, _ = LossyAblation(qc, 0.30, 6)
			}
			b.ReportMetric(mean, "mean_worst_age_s")
			b.ReportMetric(p97, "p97_worst_age_s")
		})
	}
}

// BenchmarkAblationReliability compares §6.2.2's reliable link-state option
// against plain best-effort rows under 25% loss: worst-case route age
// improves, routing bandwidth pays for the acks and retransmissions.
func BenchmarkAblationReliability(b *testing.B) {
	for _, reliable := range []bool{false, true} {
		name := "best-effort"
		if reliable {
			name = "reliable"
		}
		b.Run(name, func(b *testing.B) {
			var mean, p97, kbps float64
			for i := 0; i < b.N; i++ {
				qc := core.QuorumConfig{Interval: 15 * time.Second, ReliableLinkState: reliable}
				mean, p97, kbps = LossyAblation(qc, 0.25, 8)
			}
			b.ReportMetric(mean, "mean_worst_age_s")
			b.ReportMetric(p97, "p97_worst_age_s")
			b.ReportMetric(kbps, "routing_Kbps")
		})
	}
}

// LossyAblation runs a 25-node quorum fleet for ten minutes on clean links
// that drop the given share of packets, with the given router configuration,
// and returns the mean and 97th-percentile per-pair worst route age (seconds
// since the last recommendation) plus the measured routing bandwidth in Kbps.
// It backs two ablations: a 3r row-staleness window keeps recommendations
// flowing when round-1 rows are lost and a 1r window does not (§6.2.2), and
// reliable link-state announcements improve route age "at the cost of ...
// some bandwidth".
func LossyAblation(qc core.QuorumConfig, loss float64, seed int64) (meanAge, p97Age, kbps float64) {
	const n = 25
	const dur = 10 * time.Minute
	env := traces.Generate(n, seed, traces.Config{BadNodeFrac: 0.0001})
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				env.Loss[a][b] = loss
			}
			env.DownFrac[a][b] = 0
		}
	}
	f := NewFleet(FleetOptions{N: n, Algorithm: overlay.AlgQuorum, Seed: seed, Env: env, Quorum: qc})
	before := f.Col.Snapshot(wire.CatRouting)
	// Sample pair ages every 30 s, then summarize the per-pair worst case.
	ages := newRouteAges(n)
	end := f.Elapsed() + dur
	for f.Elapsed() < end {
		f.Run(30 * time.Second)
		ages.sample(f, f.Start())
	}
	after := f.Col.Snapshot(wire.CatRouting)
	var sum float64
	for _, v := range RoutingKbpsPerNode(before, after, dur) {
		sum += v
	}
	worst := make([]float64, 0, n*(n-1))
	for _, p := range ages.stats() {
		worst = append(worst, p.Max)
	}
	cdf := stats.NewCDF(worst)
	var total float64
	for _, v := range cdf.Values() {
		total += v
	}
	return total / float64(len(worst)), cdf.Quantile(0.97), sum / n
}

// RedundancyAblation computes, under an environment's stationary failure
// model, the expected fraction of (src, dst) pairs with no usable rendezvous
// when each pair has (a) the grid's two default rendezvous vs (b) only one.
// It quantifies why the construction's double intersection matters (§4).
func RedundancyAblation(env *traces.Env) (double, single float64) {
	n := env.N
	g, err := grid.New(n)
	if err != nil {
		return 0, 0
	}
	// The grid derives a server set per call and the sweep reads each 2n
	// times: derive them once.
	servers := make([][]int, n)
	for i := range servers {
		servers[i] = g.Servers(i)
	}
	pairs := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			var probs []float64
			for _, k := range servers[a] {
				// a's rendezvous for b: b itself, or a server the two share.
				if _, shared := slices.BinarySearch(servers[b], k); k != b && !shared {
					continue
				}
				var pFail float64
				if k == b {
					pFail = env.DownFrac[a][b]
				} else {
					// rendezvous usable iff both a–k and k–b are up
					pFail = 1 - (1-env.DownFrac[a][k])*(1-env.DownFrac[k][b])
				}
				probs = append(probs, pFail)
			}
			if len(probs) == 0 {
				continue
			}
			pairs++
			all := 1.0
			for _, p := range probs {
				all *= p
			}
			double += all
			single += probs[0]
		}
	}
	if pairs == 0 {
		return 0, 0
	}
	return double / float64(pairs), single / float64(pairs)
}
