package core

import (
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/par"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// FullMeshConfig tunes the RON-style baseline router.
type FullMeshConfig struct {
	// Interval is the routing interval (default 30 s, the paper's RON
	// setting — twice the quorum router's, because full-mesh converges in
	// one interval).
	Interval time.Duration
	// Staleness is the maximum row age used in route computation
	// (default 3·Interval, matching the quorum configuration).
	Staleness time.Duration
	// DegradedHold mirrors QuorumConfig.DegradedHold: how long past
	// Staleness a last-known-good entry may still be served with an
	// age-proportional cost penalty when no fresh route exists. Zero or
	// negative disables degraded mode (the default).
	DegradedHold time.Duration
	// DisableIncremental has no effect: every recompute is the one full pass.
	// The field is a vestige kept because benchmark/direct.go sets it and
	// only a [benchmark] PR may edit that directory (ROADMAP item 1).
	DisableIncremental bool
	// Workers caps the fork/join fan-out of the recompute pass
	// (0 = GOMAXPROCS, 1 = serial). Shards write disjoint destination spans,
	// so the worker count never changes the output bytes.
	Workers int
}

func (c *FullMeshConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.Staleness <= 0 {
		c.Staleness = 3 * c.Interval
	}
}

// FullMesh is the conventional full-mesh link-state router used by RON
// (§5): every node broadcasts its link-state row to every other node each
// routing interval and computes all best one-hop routes locally. It is the
// paper's comparison baseline, with the same compact row encoding.
type FullMesh struct {
	env  transport.Env
	cfg  FullMeshConfig
	view *membership.ViewInfo
	self int
	seq  uint32

	table *lsdb.Table
	routeTable

	// scratch buffers reused across recomputes.
	costsBuf []wire.Cost    // the self row, unpacked
	hopsBuf  []lsdb.HopCost // the kernel's output, one entry per slot

	// SelfRow returns the node's current measured link-state row. Required.
	SelfRow func() []wire.LinkEntry

	stats struct {
		linkStatesSent uint64
		recomputes     uint64
		viewExtends    uint64 // stable-extension view installs (state kept)
		viewRemaps     uint64 // re-installs that could not extend and went cold
	}
}

// NewFullMesh creates the baseline router for the node at slot self.
func NewFullMesh(env transport.Env, cfg FullMeshConfig, view *membership.ViewInfo, self int) *FullMesh {
	cfg.fill()
	f := &FullMesh{env: env, cfg: cfg}
	_ = f.SetView(view, self) // always nil
	return f
}

// SetView installs a new membership view, with exactly two outcomes. A
// stable extension (membership.StableExtension — the only kind of change a
// coordinator reign produces) grows the table and route array in place and
// retires exactly the slots whose occupant departed, so every other row and
// route survives the change. Any other install goes cold, as the first one
// does: an empty table and route array. The sequence number and cumulative
// stats survive both. The error is always nil (it is the Router signature).
func (f *FullMesh) SetView(view *membership.ViewInfo, self int) error {
	retired, _, stable := membership.StableExtension(f.view, f.self, view, self)
	switch {
	case stable:
		f.stats.viewExtends++
	case f.view != nil:
		f.stats.viewRemaps++
	}
	n := view.Slots()
	f.view = view
	f.self = self
	if stable {
		f.table.Grow(n)
		f.routes = extend(f.routes, n)
		for _, s := range retired {
			f.table.RetireSlot(s)
		}
		retireRoutes(f.routes, retired)
	} else {
		f.table = lsdb.NewTable(n)
		f.routes = make([]route, n)
	}
	f.table.SetTombstones(view.Tombstones())
	return nil
}

// ViewChangeStats reports how view re-installs have executed: stable
// extensions (per-slot state preserved) versus cold installs.
func (f *FullMesh) ViewChangeStats() (extends, remaps uint64) {
	return f.stats.viewExtends, f.stats.viewRemaps
}

// Interval implements Router.
func (f *FullMesh) Interval() time.Duration { return f.cfg.Interval }

// LinkStatesSent returns the number of link-state broadcasts sent.
func (f *FullMesh) LinkStatesSent() uint64 { return f.stats.linkStatesSent }

// RecomputeStats reports the number of recomputes as full; incremental and
// dstsRecomputed are always 0. The three-value shape is a vestige kept because
// benchmark/harness.go reads it (ROADMAP item 1).
func (f *FullMesh) RecomputeStats() (full, incremental, dstsRecomputed uint64) {
	return f.stats.recomputes, 0, 0
}

// Table exposes the received-rows database (read-only).
func (f *FullMesh) Table() *lsdb.Table { return f.table }

// Tick implements Router: broadcast the row to all n−1 nodes (the Θ(n²)
// behaviour the paper improves on), then recompute the full route table.
func (f *FullMesh) Tick() {
	f.table.Expire(f.env.Now(), f.cfg.Staleness+max(f.cfg.DegradedHold, 0))
	f.seq++
	msg := wire.PackLinkState(wire.AppendLinkState(nil, f.env.LocalID(), wire.LinkState{
		ViewVersion: f.view.VersionNum(),
		Seq:         f.seq,
		Entries:     f.SelfRow(),
	}), f.view.Tombstones())
	for _, m := range f.view.Members() {
		if int(m.Slot) != f.self {
			f.env.Send(m.ID, msg)
			f.stats.linkStatesSent++
		}
	}
	f.recompute()
}

// shardMinDsts is the smallest destination count worth forking the kernel
// pass across workers; below it the fork/join overhead dominates.
const shardMinDsts = 256

// recompute rebuilds the route table from the link-state database: unpack
// the live self row, run the §4.2 kernel over every destination (sharded
// across workers by destination span when the table is large enough), and
// install every destination that has a usable hop.
func (f *FullMesh) recompute() {
	f.stats.recomputes++
	now := f.env.Now()
	nowNs := now.UnixNano()
	n := f.view.Slots()
	costs := f.selfCosts()
	if cap(f.hopsBuf) < n {
		f.hopsBuf = make([]lsdb.HopCost, n)
	}
	out := f.hopsBuf[:n]
	if n >= shardMinDsts && f.cfg.Workers != 1 {
		table, stale := f.table, f.cfg.Staleness
		par.Spans(n, f.cfg.Workers, func(lo, hi int) {
			table.BestOneHopViaSpan(costs, now, stale, out, lo, hi)
		})
	} else {
		f.table.BestOneHopViaAll(costs, now, f.cfg.Staleness, out)
	}
	for dst, hc := range out {
		if dst == f.self || hc.Hop < 0 {
			continue // no usable hop: keep the stale entry; BestHop ages it out
		}
		f.install(dst, route{when: nowNs, hop: int32(hc.Hop), from: -1, cost: hc.Cost, source: SourceSelf})
	}
}

// selfCosts unpacks the live self row into costsBuf, the flat form the
// kernels scan.
func (f *FullMesh) selfCosts() []wire.Cost {
	f.costsBuf = lsdb.UnpackCosts(f.costsBuf[:0], f.SelfRow())
	return f.costsBuf
}

// HandleLinkState implements Router: a member's symmetric row built against
// this view is scattered from the wire straight into the table. Nothing of the
// body is read before the sender is known to be another member.
//
//lint:allocfree
func (f *FullMesh) HandleLinkState(h wire.Header, body []byte) {
	slot, ok := f.view.SlotOf(h.Src)
	if !ok || slot == f.self || h.Type != wire.TLinkState {
		return
	}
	version, seq, entries, err := wire.LinkStateBody(h.Type, body)
	if err != nil || version != f.view.VersionNum() {
		return
	}
	f.table.PutWire(slot, seq, f.env.Now(), entries)
}

// HandleRecommendation implements Router. The baseline never receives
// recommendations; the message is ignored.
func (f *FullMesh) HandleRecommendation(wire.Header, []byte) {}

// BestHop implements Router.
func (f *FullMesh) BestHop(dst int) (RouteEntry, bool) {
	if dst == f.self || dst < 0 || dst >= len(f.routes) {
		return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
	}
	now := f.env.Now()
	r := f.routes[dst]
	if r.source != SourceNone && r.hop >= 0 && time.Duration(now.UnixNano()-r.when) <= f.cfg.Staleness {
		return r.entry(), true
	}
	costs := f.selfCosts()
	hop, cost := f.table.BestOneHopVia(costs, dst, now, f.cfg.Staleness)
	if hop >= 0 && cost != wire.InfCost {
		return RouteEntry{Hop: hop, Cost: cost, When: now, From: -1, Source: SourceFallback}, true
	}
	// The baseline has no prober callback; its liveness belief is the status
	// byte of the live self row.
	alive := func(slot int) bool {
		row := f.SelfRow()
		return slot < len(row) && wire.StatusAlive(row[slot].Status)
	}
	via := func() (int, wire.Cost) {
		return f.table.BestOneHopVia(costs, dst, now, f.cfg.Staleness+f.cfg.DegradedHold)
	}
	if se, ok := staleHop(r.entry(), now, f.cfg.Staleness, f.cfg.DegradedHold, alive, via); ok {
		return se, true
	}
	return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
}
