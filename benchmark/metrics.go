package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"

	"allpairs/internal/bwmodel"
	"allpairs/internal/metrics"
	"allpairs/internal/overlay"
	"allpairs/internal/wire"
)

// metric defines one reported number. This table is the single source of
// BENCHMARK.json (see manifest) and of the compare tool's tolerances.
type metric struct {
	name, unit string
	higher     bool // better: higher
	// bound is BENCHMARK.json's regression bound for an end-to-end metric: the
	// share of the parent's median (medians over ten seeds) by which it may
	// get worse. One bound serves all four workloads, so it is three times
	// the widest quartile spread across seeds seen on any of them (README,
	// "Reference box"), capped at the contract's 0.25.
	bound float64
	// rel and abs are the compare tool's tolerance for two runs of the same
	// seed, where virtual-time metrics repeat exactly: a row is worse when it
	// moved the wrong way by more than max(rel·|base|, abs). Both zero means
	// the row is informational.
	rel, abs float64
}

func (m metric) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// Units: "s" is host wall time; "virt_s" is simulated time, a pure function
// of the seed on unchanged code.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", bound: 0.25, rel: 0.10},
	{name: "sim_rate", unit: "virt_s/s", higher: true, bound: 0.25, rel: 0.10},
	{name: "live_heap_mb", unit: "MB", bound: 0.17, rel: 0.05},
	{name: "routing_kbps_per_node", unit: "kbps", bound: 0.14, rel: 0.02},
	{name: "routing_kbps_peak", unit: "kbps", bound: 0.25, rel: 0.05},
	{name: "route_fresh_p50_s", unit: "virt_s", bound: 0.15, rel: 0.05},
	{name: "availability", unit: "share", higher: true, bound: 0.03, abs: 0.003},
	{name: "stretch_mean", unit: "ratio", bound: 0.06, abs: 0.01},
	{name: "data_delivered_share", unit: "share", higher: true, bound: 0.03, abs: 0.005},
	{name: "data_latency_ratio", unit: "ratio", bound: 0.09, abs: 0.01},
}

// perLayer lists every layer row of a traced run. A row that has nothing to
// measure on a workload (a membership counter on a static fleet) reads 0.
var perLayer = func() []metric {
	var ms []metric
	for _, c := range classNames {
		ms = append(ms,
			metric{name: c + ".events", unit: "count"},
			metric{name: c + ".busy_s", unit: "s"},
			metric{name: c + ".p50_us", unit: "us"},
			metric{name: c + ".p99_us", unit: "us"})
	}
	return append(ms, []metric{
		{name: "trace_overhead", unit: "ratio"},
		{name: "trace_attributed_share", unit: "share", higher: true},
		{name: "simnet.events", unit: "count"},
		{name: "simnet.pending_mean", unit: "count"},
		{name: "simnet.dropped", unit: "count"},
		{name: "simnet.duplicated", unit: "count"},
		{name: "simnet.reordered", unit: "count"},
		{name: "wire.kbps.probing", unit: "kbps"},
		{name: "wire.kbps.routing", unit: "kbps"},
		{name: "wire.kbps.membership", unit: "kbps"},
		{name: "wire.kbps.data", unit: "kbps"},
		{name: "core.quorum.pairs_cached_share", unit: "share", higher: true},
		{name: "core.quorum.failover_attempts", unit: "count"},
		{name: "core.quorum.double_failures_p98", unit: "count"},
		{name: "core.fullmesh.incremental_share", unit: "share", higher: true},
		{name: "core.view_remaps", unit: "count"},
		{name: "membership.coord.msgs", unit: "count"},
		{name: "membership.coord.msgs_per_event", unit: "count", rel: 0.05},
		{name: "membership.coord.full_views", unit: "count"},
		{name: "membership.coord.view_chunks", unit: "count"},
		{name: "membership.coord.seeds", unit: "count"},
		{name: "membership.coord.promotions", unit: "count"},
		{name: "membership.client.pulls_sent", unit: "count"},
		{name: "membership.client.gossip_dup_share", unit: "share"},
		{name: "membership.client.full_view_reqs", unit: "count"},
		{name: "membership.view_changes", unit: "count"},
		{name: "membership.failover_s", unit: "virt_s", abs: 1},
		{name: "membership.converge_mean_s", unit: "virt_s", rel: 0.15, abs: 5},
		{name: "membership.converge_max_s", unit: "virt_s"},
		{name: "overlay.relayed_share", unit: "share"},
		{name: "overlay.senddata_ns", unit: "ns"},
		{name: "overlay.unroutable", unit: "count"},
		{name: "overlay.undelivered", unit: "count"},
		{name: "overlay.send_errors", unit: "count"},
		{name: "runtime.alloc_mb_per_vmin", unit: "MB"},
		{name: "runtime.mallocs_per_event", unit: "count"},
		{name: "runtime.gc_cpu_share", unit: "share"},
		{name: "runtime.num_gc", unit: "count"},
		{name: "bwmodel.routing_kbps_predicted", unit: "kbps"},
		{name: "bwmodel.routing_kbps_vs_model", unit: "ratio"},
		// Direct calls on the workload's own shapes (direct.go).
		{name: "wire.linkstate.enc_ns", unit: "ns"},
		{name: "wire.linkstate.dec_ns", unit: "ns"},
		{name: "wire.recommendation.enc_ns", unit: "ns"},
		{name: "wire.recommendation.dec_ns", unit: "ns"},
		{name: "wire.probe.roundtrip_ns", unit: "ns"},
		{name: "wire.view.dec_ns", unit: "ns"},
		{name: "wire.viewdelta.dec_ns", unit: "ns"},
		{name: "wire.data.enc_ns", unit: "ns"},
		{name: "wire.data.dec_ns", unit: "ns"},
		{name: "wire.allocs_per_msg", unit: "count"},
		{name: "simnet.event_ns", unit: "ns"},
		{name: "simnet.send_ns", unit: "ns"},
		{name: "simnet.send_allocs", unit: "count"},
		{name: "probe.exchange_ns", unit: "ns"},
		{name: "lsdb.put_ns", unit: "ns"},
		{name: "lsdb.kernel_pairs_ns_per_pair", unit: "ns"},
		{name: "lsdb.kernel_all_ns_per_pair", unit: "ns"},
		{name: "lsdb.grow_retire_ns", unit: "ns"},
		{name: "grid.new_us", unit: "us"},
		{name: "grid.remask_us", unit: "us"},
		{name: "core.quorum.tick_cold_ms", unit: "ms"},
		{name: "core.quorum.tick_steady_ms", unit: "ms"},
		{name: "core.quorum.linkstate_ns", unit: "ns"},
		{name: "core.quorum.recommend_ns", unit: "ns"},
		{name: "core.quorum.setview_ms", unit: "ms"},
		{name: "core.fullmesh.tick_full_ms", unit: "ms"},
		{name: "core.fullmesh.tick_incr_ms", unit: "ms"},
		{name: "core.fullmesh.linkstate_ns", unit: "ns"},
		{name: "core.fullmesh.setview_ms", unit: "ms"},
		{name: "membership.view.install_ns", unit: "ns"},
	}...)
}()

// paperReference returns the published value to print beside a metric, or "".
func paperReference(name string, s *spec) string {
	quorum := s.alg == overlay.AlgQuorum
	switch {
	case name == "routing_kbps_per_node" && quorum:
		return fmt.Sprintf("paper model %.1f kbps at n=%d (6.4n√n+17.1n+196.3√n)", bwmodel.PaperQuorumRouting(s.n)/1000, s.n)
	case name == "routing_kbps_per_node":
		return fmt.Sprintf("paper model %.1f kbps at n=%d (1.6n²+24.5n)", bwmodel.PaperFullMeshRouting(s.n)/1000, s.n)
	case name == "route_fresh_p50_s" && quorum:
		return "paper Fig. 12: ~8 s at r = 15 s"
	case name == "core.quorum.double_failures_p98" && quorum:
		return "paper Fig. 11: < 10"
	}
	return ""
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// gcCPUSeconds is the cumulative CPU time the garbage collector has used.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// meanMembers is the time-averaged live member count of the measured phase.
func (m *measurement) meanMembers() float64 { return m.memberSeconds / m.dur.Seconds() }

// kbpsPerNode is one traffic category's in+out rate per live member.
func (m *measurement) kbpsPerNode(cat wire.Category) float64 {
	return ratio(metrics.Kbps(m.after.bytes[cat]-m.before.bytes[cat], m.dur), m.meanMembers())
}

// endToEnd assembles the untraced run's metrics; setupS is the median set-up
// time.
func (m *measurement) endToEnd(setupS float64) map[string]float64 {
	w, s := m.w, m.stream
	firstWindow := int(m.start / w.col.Window())
	lastWindow := int((m.start + m.dur) / w.col.Window())
	// The fleet's worst minute, per member. One endpoint's worst window is an
	// extreme value, chaotic from seed to seed; a minute of the whole fleet
	// is not.
	var peak float64
	for win := firstWindow; win < lastWindow; win++ {
		var kbps float64
		for ep := 0; ep < w.col.N(); ep++ {
			kbps += w.col.MeanWindowKbps(ep, wire.CatRouting, win, win+1)
		}
		peak = max(peak, kbps/m.meanMembers())
	}
	return map[string]float64{
		"setup_s":               setupS,
		"sim_rate":              m.dur.Seconds() / m.wall.Seconds(),
		"live_heap_mb":          m.heapMB,
		"routing_kbps_per_node": m.kbpsPerNode(wire.CatRouting),
		"routing_kbps_peak":     peak,
		"route_fresh_p50_s":     m.freshnessP50(),
		"availability":          ratio(float64(m.routed), float64(m.lookups)),
		"stretch_mean":          ratio(m.stretchSum, float64(m.stretchPairs)),
		"data_delivered_share":  ratio(float64(s.delivered), float64(s.eligible)),
		"data_latency_ratio":    ratio(float64(s.latency), float64(s.direct)),
	}
}

// layerRows fills in the layer rows read from public counters and the
// collector over the measured phase; the tracer and the direct calls add
// theirs.
func (m *measurement) layerRows(out map[string]float64) {
	b, a := &m.before, &m.after
	d := func(after, before uint64) float64 { return float64(after - before) }
	out["simnet.events"] = float64(m.events)
	out["simnet.pending_mean"] = ratio(float64(m.pendingSum), float64(m.pendingSamples))
	out["simnet.dropped"] = d(a.dropped, b.dropped)
	out["simnet.duplicated"] = d(a.dup, b.dup)
	out["simnet.reordered"] = d(a.reordered, b.reordered)
	for cat := wire.Category(0); cat < wire.NumCategories; cat++ {
		out["wire.kbps."+cat.String()] = m.kbpsPerNode(cat)
	}

	ca, cb := a.counters, b.counters
	cached, computed := d(ca.pairsCached, cb.pairsCached), d(ca.pairsComputed, cb.pairsComputed)
	out["core.quorum.pairs_cached_share"] = ratio(cached, cached+computed)
	out["core.quorum.failover_attempts"] = d(ca.failoverAttempts, cb.failoverAttempts)
	out["core.quorum.double_failures_p98"] = m.doubleFailuresP98()
	inc, full := d(ca.incPasses, cb.incPasses), d(ca.fullPasses, cb.fullPasses)
	out["core.fullmesh.incremental_share"] = ratio(inc, inc+full)
	out["core.view_remaps"] = float64(ca.viewRemaps)

	msgs := d(a.coordMsgs, b.coordMsgs)
	out["membership.coord.msgs"] = msgs
	out["membership.coord.msgs_per_event"] = ratio(msgs, float64(a.churn-b.churn))
	out["membership.coord.full_views"] = d(a.coord.FullViewsSent, b.coord.FullViewsSent)
	out["membership.coord.view_chunks"] = d(a.coord.ViewChunksSent, b.coord.ViewChunksSent)
	out["membership.coord.seeds"] = d(a.coord.SeedsSent, b.coord.SeedsSent)
	out["membership.coord.promotions"] = d(a.coord.Promotions, b.coord.Promotions)
	out["membership.client.pulls_sent"] = d(ca.client.PullsSent, cb.client.PullsSent)
	out["membership.client.gossip_dup_share"] = ratio(
		d(ca.client.GossipDups, cb.client.GossipDups), d(ca.client.GossipSeen, cb.client.GossipSeen))
	out["membership.client.full_view_reqs"] = d(ca.client.FullViewRequests, cb.client.FullViewRequests)
	out["membership.view_changes"] = d(a.coord.Broadcasts, b.coord.Broadcasts)
	out["membership.failover_s"], out["membership.converge_mean_s"], out["membership.converge_max_s"] = 0, 0, 0
	if m.w.spec.partition {
		if m.failoverAt > 0 {
			out["membership.failover_s"] = (m.failoverAt - m.crashedAt).Seconds()
		}
		out["membership.converge_mean_s"], out["membership.converge_max_s"] = m.convergence()
	}

	out["overlay.unroutable"] = float64(m.lookups - m.routed)
	out["overlay.undelivered"] = float64(m.stream.eligible - m.stream.delivered)
	out["overlay.send_errors"] = float64(m.stream.sendErrors)

	out["runtime.alloc_mb_per_vmin"] = d(a.mem.TotalAlloc, b.mem.TotalAlloc) / 1e6 / m.dur.Minutes()
	out["runtime.mallocs_per_event"] = ratio(d(a.mem.Mallocs, b.mem.Mallocs), float64(m.events))
	out["runtime.gc_cpu_share"] = ratio(a.gcCPU-b.gcCPU, m.wall.Seconds())
	out["runtime.num_gc"] = float64(a.mem.NumGC - b.mem.NumGC)

	n := int(m.meanMembers() + 0.5)
	predicted := bwmodel.Params{}.QuorumRouting(n) / 1000
	if m.w.spec.alg == overlay.AlgFullMesh {
		predicted = bwmodel.Params{}.FullMeshRouting(n) / 1000
	}
	out["bwmodel.routing_kbps_predicted"] = predicted
	out["bwmodel.routing_kbps_vs_model"] = ratio(out["wire.kbps.routing"], predicted)
}
