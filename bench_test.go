package allpairs

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations indexed in README.md. Benchmarks report the experiment's
// headline quantity via b.ReportMetric so `go test -bench . -benchmem`
// regenerates the numbers EXPERIMENTS.md records. cmd/experiments produces
// the same data at full paper scale.

import (
	"fmt"
	"testing"
	"time"

	"allpairs/internal/bwmodel"
	"allpairs/internal/core"
	"allpairs/internal/emul"
	"allpairs/internal/grid"
	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/overlay"
	"allpairs/internal/simnet"
	"allpairs/internal/traces"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// BenchmarkFig1BestOneHop regenerates Figure 1 (one-hop rescue of
// high-latency paths) on a 200-host environment and reports the fraction of
// >400 ms pairs rescued by the best one-hop and after excluding the top 3%.
func BenchmarkFig1BestOneHop(b *testing.B) {
	env := traces.PlanetLab(200, 20051123)
	var best, excl3 float64
	for i := 0; i < b.N; i++ {
		r := emul.Fig1(env, 400)
		best = r.Best.FractionLE(400)
		excl3 = r.Excl3.FractionLE(400)
	}
	b.ReportMetric(best, "best1hop_le400")
	b.ReportMetric(excl3, "excl3_le400")
}

// BenchmarkFig8ConcurrentFailures runs a scaled-down deployment and reports
// the median and maximum per-node mean concurrent link failures (Figure 8's
// CDF endpoints).
func BenchmarkFig8ConcurrentFailures(b *testing.B) {
	var med, max float64
	for i := 0; i < b.N; i++ {
		dep := emul.RunDeployment(emul.DeploymentOptions{
			N: 25, Seed: 8, Warmup: time.Minute, Duration: 6 * time.Minute,
		})
		med = median(dep.MeanFailures)
		for _, v := range dep.MeanFailures {
			if v > max {
				max = v
			}
		}
	}
	b.ReportMetric(med, "median_failures")
	b.ReportMetric(max, "max_failures")
}

// BenchmarkFig9BandwidthScaling regenerates Figure 9's bandwidth-vs-n curves
// at three sizes for both algorithms, reporting measured Kbps per node.
func BenchmarkFig9BandwidthScaling(b *testing.B) {
	for _, n := range []int{25, 49, 81} {
		for _, algo := range []overlay.Algorithm{overlay.AlgFullMesh, overlay.AlgQuorum} {
			b.Run(fmt.Sprintf("n=%d/%s", n, algo), func(b *testing.B) {
				var kbps float64
				for i := 0; i < b.N; i++ {
					kbps = emul.Fig9Point(n, algo, 9, 30*time.Second, 2*time.Minute)
				}
				b.ReportMetric(kbps, "Kbps/node")
			})
		}
	}
}

// BenchmarkFig10DeploymentBandwidth reports the fleet-average and worst
// 1-minute-window routing bandwidth of a scaled-down deployment (Figure 10).
func BenchmarkFig10DeploymentBandwidth(b *testing.B) {
	var mean, worst float64
	for i := 0; i < b.N; i++ {
		dep := emul.RunDeployment(emul.DeploymentOptions{
			N: 25, Seed: 10, Warmup: time.Minute, Duration: 6 * time.Minute,
		})
		mean = meanOf(dep.MeanKbps)
		worst = 0
		for _, v := range dep.MaxKbps {
			if v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(mean, "mean_Kbps")
	b.ReportMetric(worst, "max_window_Kbps")
}

// BenchmarkFig11DoubleFailures reports the 98th-percentile per-node mean
// count of destinations with double rendezvous failure (Figure 11: 98% of
// nodes average fewer than 10).
func BenchmarkFig11DoubleFailures(b *testing.B) {
	var p98 float64
	for i := 0; i < b.N; i++ {
		dep := emul.RunDeployment(emul.DeploymentOptions{
			N: 25, Seed: 11, Warmup: time.Minute, Duration: 6 * time.Minute,
		})
		p98 = percentile(dep.MeanDouble, 0.98)
	}
	b.ReportMetric(p98, "p98_double_failures")
}

// BenchmarkFig12RouteFreshness reports the median pair's median route
// freshness (Figure 12: typically ~8 s with r = 15 s).
func BenchmarkFig12RouteFreshness(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		dep := emul.RunDeployment(emul.DeploymentOptions{
			N: 25, Seed: 12, Warmup: time.Minute, Duration: 6 * time.Minute,
		})
		vals := make([]float64, 0, len(dep.Pairs))
		for _, p := range dep.Pairs {
			vals = append(vals, p.Median)
		}
		med = median(vals)
	}
	b.ReportMetric(med, "median_freshness_s")
}

// BenchmarkFig13Fig14FreshnessByConnectivity contrasts the well- and
// poorly-connected nodes' median freshness (Figures 13 and 14).
func BenchmarkFig13Fig14FreshnessByConnectivity(b *testing.B) {
	var well, poor float64
	for i := 0; i < b.N; i++ {
		dep := emul.RunDeployment(emul.DeploymentOptions{
			N: 25, Seed: 13, Warmup: time.Minute, Duration: 6 * time.Minute,
		})
		well = medianFresh(dep.WellStats)
		poor = medianFresh(dep.PoorStats)
	}
	b.ReportMetric(well, "well_median_s")
	b.ReportMetric(poor, "poor_median_s")
}

// BenchmarkFailoverScenarios measures §4.1 scenarios 1–3 recovery times.
func BenchmarkFailoverScenarios(b *testing.B) {
	for s := 1; s <= 3; s++ {
		b.Run(fmt.Sprintf("scenario%d", s), func(b *testing.B) {
			var rec float64
			for i := 0; i < b.N; i++ {
				res, err := emul.RunFailoverScenario(s, 21)
				if err != nil {
					b.Fatal(err)
				}
				rec = res.Recovered.Seconds()
			}
			b.ReportMetric(rec, "recovery_s")
		})
	}
}

// BenchmarkTheoryFormulas evaluates the §6.1 closed-form models and §1
// capacity arithmetic (table-theory, table-capacity).
func BenchmarkTheoryFormulas(b *testing.B) {
	var mesh140, quorum140 float64
	var cap56 int
	for i := 0; i < b.N; i++ {
		mesh140 = bwmodel.PaperFullMeshRouting(140) / 1000
		quorum140 = bwmodel.PaperQuorumRouting(140) / 1000
		cap56 = bwmodel.PaperCapacityQuorum(56_000)
	}
	b.ReportMetric(mesh140, "RON@140_Kbps")
	b.ReportMetric(quorum140, "quorum@140_Kbps")
	b.ReportMetric(float64(cap56), "quorum_nodes@56Kbps")
}

// BenchmarkTheorem1MessageCount verifies and times the ≤4√n per-interval
// message bound across grid sizes.
func BenchmarkTheorem1MessageCount(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		g, err := grid.New(400)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for s := 0; s < 400; s++ {
			m := float64(len(g.Servers(s)) + len(g.Clients(s)))
			if m > worst {
				worst = m
			}
		}
	}
	b.ReportMetric(worst, "max_msgs_per_interval")
	b.ReportMetric(4*20, "bound_4sqrtn")
}

// BenchmarkMultiHop regenerates the §3 multi-hop experiment: optimal ≤4-hop
// paths on 64 nodes, reporting per-node communication vs the Θ(n√n log l)
// model.
func BenchmarkMultiHop(b *testing.B) {
	env := traces.PlanetLab(64, 3)
	costs := make([][]wire.Cost, 64)
	for i := range costs {
		costs[i] = make([]wire.Cost, 64)
		for j := range costs[i] {
			if i != j {
				costs[i][j] = wire.Cost(env.LatencyMS[i][j] + 0.5)
			}
		}
	}
	var maxBytes int64
	for i := 0; i < b.N; i++ {
		res, err := core.RunMultiHop(costs, 4)
		if err != nil {
			b.Fatal(err)
		}
		maxBytes = 0
		for _, v := range res.BytesPerNode {
			if v > maxBytes {
				maxBytes = v
			}
		}
	}
	b.ReportMetric(float64(maxBytes), "max_bytes/node")
	b.ReportMetric(core.TheoreticalMultiHopBytes(64, 4), "theory_bytes/node")
}

// ---------------------------------------------------------------------------
// Ablations (README.md, last row of the experiment index).
// ---------------------------------------------------------------------------

// BenchmarkAblationInterval compares quorum routing bandwidth at the paper's
// r = 15 s against r = 30 s (the paper halves r to compensate for the
// two-round convergence; the cost is exactly 2× routing traffic).
func BenchmarkAblationInterval(b *testing.B) {
	for _, r := range []time.Duration{15 * time.Second, 30 * time.Second} {
		b.Run(fmt.Sprintf("r=%s", r), func(b *testing.B) {
			var kbps float64
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulation(SimOptions{N: 49, Seed: 4, RoutingInterval: r})
				if err != nil {
					b.Fatal(err)
				}
				sim.Run(4 * time.Minute)
				kbps = sim.RoutingKbps()
			}
			b.ReportMetric(kbps, "Kbps/node")
		})
	}
}

// BenchmarkAblationEncoding quantifies the paper's footnote 9: RON's
// original verbose link-state representation roughly doubled routing
// messages. Compact rows are what make the quorum algorithm's constants
// attractive at hundreds of nodes.
func BenchmarkAblationEncoding(b *testing.B) {
	var compact, verbose float64
	var p bwmodel.Params
	for i := 0; i < b.N; i++ {
		compact = p.FullMeshRouting(140) / 1000
		// Verbose encoding: double the per-entry payload (6 B vs 3 B).
		verbose = 2*compact - float64(2*(140-1)*wire.PerPacketOverhead*8)/30/1000
	}
	b.ReportMetric(compact, "compact_Kbps")
	b.ReportMetric(verbose, "verbose_Kbps")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths.
// ---------------------------------------------------------------------------

// BenchmarkGridConstruction times building the quorum layout at 1024 nodes.
func BenchmarkGridConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := grid.New(1024); err != nil {
			b.Fatal(err)
		}
	}
}

// kernelTable builds a fully-populated link-state table with deterministic
// pseudo-random latencies and a sprinkling of dead links, the workload of a
// busy rendezvous server.
func kernelTable(n int) *lsdb.Table {
	tb := lsdb.NewTable(n)
	t0 := time.Unix(0, 0)
	for s := 0; s < n; s++ {
		row := make([]wire.LinkEntry, n)
		for j := range row {
			st := byte(0)
			if (s*j+j)%97 == 0 {
				st = wire.StatusDead
			}
			row[j] = wire.LinkEntry{Latency: uint16((s*31 + j*7) % 500), Status: st}
		}
		lsdb.SelfRow(s, row)
		tb.Put(s, lsdb.Row{Seq: 1, When: t0, Entries: row})
	}
	return tb
}

// BenchmarkKernelOneHop benchmarks the rendezvous inner kernel at
// n ∈ {200, 500, 1000}: the batched cost-matrix kernel evaluating all
// destinations of one source in a single pass. Each op evaluates n−1 pairs;
// ns/pair is the recorded trajectory metric (PERF.md keeps the numbers of
// the scalar per-pair loop it replaced), and it must stay at 0 allocs/op.
func BenchmarkKernelOneHop(b *testing.B) {
	for _, n := range []int{200, 500, 1000} {
		tb := kernelTable(n)
		dsts := make([]int, 0, n-1)
		for d := 1; d < n; d++ {
			dsts = append(dsts, d)
		}
		b.Run(fmt.Sprintf("n=%d/batch", n), func(b *testing.B) {
			out := make([]lsdb.HopCost, len(dsts))
			keys := make([]wire.Cost, 0, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keys = tb.BestOneHopAllRow(keys, tb.OutRow(0), 0, dsts, out)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(dsts))), "ns/pair")
		})
	}
}

// BenchmarkKernelViaAll benchmarks a full route-table recompute (the §4.2
// fallback over every destination) through the batched BestOneHopViaAll
// pass, which checks every intermediate's freshness once instead of once per
// destination as the scalar loop it replaced did (numbers in PERF.md).
func BenchmarkKernelViaAll(b *testing.B) {
	now := time.Unix(0, 0).Add(time.Second)
	maxAge := time.Minute
	for _, n := range []int{500, 1000} {
		tb := kernelTable(n)
		liveRow := make([]wire.LinkEntry, n)
		for j := range liveRow {
			liveRow[j] = wire.LinkEntry{Latency: uint16((j*13 + 5) % 450), Status: 0}
		}
		lsdb.SelfRow(0, liveRow)
		b.Run(fmt.Sprintf("n=%d/batch", n), func(b *testing.B) {
			costs := lsdb.UnpackCosts(nil, liveRow)
			out := make([]lsdb.HopCost, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.BestOneHopViaAll(costs, now, maxAge, out)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(n-1)), "ns/pair")
		})
	}
}

// BenchmarkFig1Scale times the full Figure 1 pass (parallel, selection-based)
// at growing host counts, the experiment suite's O(n³)-flavored wall-clock
// driver.
func BenchmarkFig1Scale(b *testing.B) {
	for _, n := range []int{200, 500, 1000} {
		env := traces.PlanetLab(n, 20051123)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var high int
			for i := 0; i < b.N; i++ {
				high = emul.Fig1(env, 400).HighPairs
			}
			b.ReportMetric(float64(high), "high_pairs")
		})
	}
}

// BenchmarkLinkStateCodec times encoding+decoding a 1024-node row (the
// round-1 message).
func BenchmarkLinkStateCodec(b *testing.B) {
	ls := wire.LinkState{ViewVersion: 1, Seq: 9, Entries: make([]wire.LinkEntry, 1024)}
	buf := make([]byte, 0, wire.LinkStateSize(1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendLinkState(buf[:0], 3, ls)
		_, body, err := wire.ParseHeader(buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.ParseLinkState(body); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkQuorumTick times one full routing interval (round 1 + round 2 +
// failure detection) for a 144-node overlay's busiest role.
func BenchmarkQuorumTick(b *testing.B) {
	sim, err := NewSimulation(SimOptions{N: 144, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	sim.Run(2 * time.Minute) // converge so ticks do full work
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(15 * time.Second) // one routing interval for the whole fleet
	}
	b.StopTimer()
	b.ReportMetric(144, "nodes")
}

// benchEnv builds a one-endpoint simulated transport whose sends to the rest
// of the (unregistered) view are silently dropped. A standalone router can
// then be ticked at any view size with the timer covering recompute, route
// install, message marshalling, and the failure scan — everything but packet
// delivery, which in deployment is the network's cost, not the node's.
func benchEnv() *transport.SimEnv {
	nw := simnet.New(1, 1)
	env := transport.NewSimEnv(nw, transport.NewRegistry(), 0, 1)
	env.SetLocalID(0)
	return env
}

// benchView returns an n-slot static view with IDs 0..n-1.
func benchView(n int) *membership.ViewInfo {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	return membership.NewStaticView(ids)
}

// benchRow is the kernelTable row generator with a salt that rewrites every
// latency, used to dirty rows between benchmark iterations.
func benchRow(n, s, salt int) []wire.LinkEntry {
	row := make([]wire.LinkEntry, n)
	for j := range row {
		st := byte(0)
		if (s*j+j)%97 == 0 {
			st = wire.StatusDead
		}
		row[j] = wire.LinkEntry{Latency: uint16((s*31 + j*7 + salt) % 500), Status: st}
	}
	lsdb.SelfRow(s, row)
	return row
}

// benchQuorumNode builds a standalone rendezvous in an n-slot view with every
// grid client's row stored fresh: the busiest single-server workload the
// paper's deployment sizes imply.
func benchQuorumNode(b *testing.B, n int) (*core.Quorum, []int) {
	b.Helper()
	env := benchEnv()
	q, err := core.NewQuorum(env, core.QuorumConfig{}, benchView(n), 0)
	if err != nil {
		b.Fatal(err)
	}
	self := benchRow(n, 0, 0)
	q.SelfRow = func() []wire.LinkEntry { return self }
	q.LinkAlive = func(int) bool { return true }
	g, err := grid.New(n)
	if err != nil {
		b.Fatal(err)
	}
	clients := g.Clients(0)
	for _, c := range clients {
		q.Table().Put(c, lsdb.Row{Seq: 1, When: env.Now(), Entries: benchRow(n, c, 0)})
	}
	return q, clients
}

// benchFullMeshNode builds a standalone full-mesh node holding all n−1 peer
// rows, the RON baseline's per-node recompute workload.
func benchFullMeshNode(b *testing.B, n int) *core.FullMesh {
	b.Helper()
	env := benchEnv()
	f := core.NewFullMesh(env, core.FullMeshConfig{}, benchView(n), 0)
	self := benchRow(n, 0, 0)
	f.SelfRow = func() []wire.LinkEntry { return self }
	for s := 1; s < n; s++ {
		f.Table().Put(s, lsdb.Row{Seq: 1, When: env.Now(), Entries: benchRow(n, s, 0)})
	}
	return f
}

// BenchmarkRecomputeTrajectory records the single-node recompute trajectory
// at n ∈ {1000, 2000, 5000, 10000}, the top of the paper's regime. For the
// quorum it times one routing tick of a rendezvous serving its full ~2√n
// client set (round 2 evaluates every pair every interval); for the full-mesh
// baseline, one tick's pass over all n destinations. Each reports the tick as
// a share of its router's interval: a tick runs on its node's one goroutine,
// so that share is the core a node's routing keeps busy.
func BenchmarkRecomputeTrajectory(b *testing.B) {
	ns := []int{1000, 2000, 5000, 10000}
	intervalShare := func(b *testing.B, interval time.Duration) {
		b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(interval), "interval_share")
	}
	for _, n := range ns {
		b.Run(fmt.Sprintf("quorum/n=%d/full", n), func(b *testing.B) {
			q, clients := benchQuorumNode(b, n)
			q.Tick()
			base := q.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Tick()
			}
			b.StopTimer()
			st := q.Stats()
			b.ReportMetric(float64(len(clients)), "clients")
			b.ReportMetric(float64(st.PairsComputed-base.PairsComputed)/float64(b.N), "pairs_computed/op")
			intervalShare(b, q.Interval())
		})
	}
	for _, n := range ns {
		b.Run(fmt.Sprintf("fullmesh/n=%d/full", n), func(b *testing.B) {
			f := benchFullMeshNode(b, n)
			f.Tick()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Tick()
			}
			b.StopTimer()
			b.ReportMetric(float64(n), "dsts/op")
			intervalShare(b, f.Interval())
		})
	}
}

// benchSlottedView returns a slot-addressed view over slots slots: every slot
// is occupied by ID slot+1 except those listed in dead (tombstones). Slot 0
// (ID 1) is the benchmarked node itself.
func benchSlottedView(b *testing.B, version uint32, slots int, dead ...int) *membership.ViewInfo {
	b.Helper()
	tomb := make(map[int]bool, len(dead))
	for _, s := range dead {
		tomb[s] = true
	}
	var ms []wire.Member
	for s := 0; s < slots; s++ {
		if !tomb[s] {
			ms = append(ms, wire.Member{ID: wire.NodeID(s + 1), Slot: uint16(s)})
		}
	}
	v, err := membership.NewViewInfo(wire.View{Epoch: 1, Version: version, Slots: uint16(slots), Members: ms})
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkViewRemap records what one join/leave costs a node whose
// link-state table is fully populated (the name is from when a wholesale
// remap was the alternative): the join fills one tombstone and the leave
// cuts one slot's column, O(rows + n). Each iteration performs a join+leave
// round trip so state returns to its starting shape.
func BenchmarkViewRemap(b *testing.B) {
	for _, n := range []int{500, 2000, 5000} {
		fillQuorum := func(view *membership.ViewInfo) (*core.Quorum, *transport.SimEnv) {
			env := benchEnv()
			env.SetLocalID(1)
			q, err := core.NewQuorum(env, core.QuorumConfig{}, view, 0)
			if err != nil {
				b.Fatal(err)
			}
			self := benchRow(view.Slots(), 0, 0)
			q.SelfRow = func() []wire.LinkEntry { return self }
			q.LinkAlive = func(int) bool { return true }
			g, err := grid.NewMasked(view.Slots(), view.OccupiedMask())
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range g.Clients(0) {
				q.Table().Put(c, lsdb.Row{Seq: 1, When: env.Now(), Entries: benchRow(view.Slots(), c, 0)})
			}
			return q, env
		}
		b.Run(fmt.Sprintf("quorum/n=%d/stable", n), func(b *testing.B) {
			// n+1 slots: alternately occupy and tombstone the last one — the
			// same join+leave, expressed in slot space.
			vLeft := benchSlottedView(b, 1, n+1, n)
			vJoin := benchSlottedView(b, 2, n+1)
			q, _ := fillQuorum(vLeft)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.SetView(vJoin, 0); err != nil {
					b.Fatal(err)
				}
				if err := q.SetView(vLeft, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := q.Stats(); st.ViewExtends != uint64(2*b.N) || st.ViewRemaps != 0 {
				b.Fatalf("stable bench: extends=%d remaps=%d, want %d/0", st.ViewExtends, st.ViewRemaps, 2*b.N)
			}
		})
		fillMesh := func(view *membership.ViewInfo) *core.FullMesh {
			env := benchEnv()
			env.SetLocalID(1)
			f := core.NewFullMesh(env, core.FullMeshConfig{}, view, 0)
			self := benchRow(view.Slots(), 0, 0)
			f.SelfRow = func() []wire.LinkEntry { return self }
			for s := 1; s < view.Slots(); s++ {
				if !view.Occupied(s) {
					continue
				}
				f.Table().Put(s, lsdb.Row{Seq: 1, When: env.Now(), Entries: benchRow(view.Slots(), s, 0)})
			}
			return f
		}
		b.Run(fmt.Sprintf("fullmesh/n=%d/stable", n), func(b *testing.B) {
			vLeft := benchSlottedView(b, 1, n+1, n)
			vJoin := benchSlottedView(b, 2, n+1)
			f := fillMesh(vLeft)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.SetView(vJoin, 0)
				f.SetView(vLeft, 0)
			}
			b.StopTimer()
			if extends, remaps := f.ViewChangeStats(); extends != uint64(2*b.N) || remaps != 0 {
				b.Fatalf("stable bench: extends=%d remaps=%d, want %d/0", extends, remaps, 2*b.N)
			}
		})
	}
}

// ---------------------------------------------------------------------------

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	cp := append([]float64(nil), vals...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}

func meanOf(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	if len(vals) == 0 {
		return 0
	}
	return s / float64(len(vals))
}

func medianFresh(ps []emul.PairStats) float64 {
	vals := make([]float64, 0, len(ps))
	for _, p := range ps {
		vals = append(vals, p.Median)
	}
	return median(vals)
}

// BenchmarkChurnScale runs the Poisson churn scenario (5% per minute, half
// crashes) at growing overlay sizes through the full dynamic-membership
// stack — join protocol, delta views, measurement carry-over — reporting
// route availability among surviving pairs and the coordinator's total
// membership message count (which must grow like the churn volume, not
// n × churn).
func BenchmarkChurnScale(b *testing.B) {
	for _, n := range []int{200, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *emul.ChurnResult
			for i := 0; i < b.N; i++ {
				res = emul.RunChurn(emul.ChurnOptions{
					DynamicFleetOptions: emul.DynamicFleetOptions{Seed: 42},
					N:                   n,
					Warmup:              2 * time.Minute,
					Duration:            4 * time.Minute,
				})
			}
			b.ReportMetric(res.MinAvailability*100, "min_avail_pct")
			b.ReportMetric(res.MeanAvailability*100, "mean_avail_pct")
			b.ReportMetric(res.MeanStretch, "mean_stretch")
			b.ReportMetric(float64(res.CoordMsgs), "coord_msgs")
		})
	}
}
