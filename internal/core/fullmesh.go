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
	// DisableIncremental forces a from-scratch recompute every interval
	// instead of the dirty-row incremental pass. The two are byte-identical
	// (pinned by the golden churn test); the switch exists for that test and
	// for debugging.
	DisableIncremental bool
	// Workers caps the fork/join fan-out of full recompute passes
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

	table  *lsdb.Table
	routes []RouteEntry

	// scratch buffers reused across recomputes.
	costsBuf []wire.Cost

	// Incremental recompute state (see recompute): the previous pass's full
	// result plus the snapshots that decide which destinations may differ
	// this pass. Invalidated by a cold SetView, which replaces the table.
	lastOut   []lsdb.HopCost // previous pass's kernel output, all destinations
	prevGen   []uint32       // table row generations at the previous pass
	prevFresh []bool         // per-slot freshness at the previous pass
	prevSelf  []wire.Cost    // unpacked self row at the previous pass
	lastValid bool
	dirtySet  []bool // scratch: slot → dirty this pass
	affSet    []bool // scratch: destination → must recompute
	dirtyBuf  []int  // scratch: dirty slot list
	affBuf    []int  // scratch: affected destination list
	affOut    []lsdb.HopCost

	// SelfRow returns the node's current measured link-state row. Required.
	SelfRow func() []wire.LinkEntry
	// OnRouteUpdate, if non-nil, observes route table writes.
	OnRouteUpdate func(dst int, e RouteEntry)

	stats struct {
		linkStatesSent uint64
		fullPasses     uint64 // recomputes that ran the full kernel pass
		incPasses      uint64 // recomputes served by the incremental path
		dstsRecomputed uint64 // destinations re-evaluated by incremental passes
		viewExtends    uint64 // stable-extension view installs (state kept)
		viewRemaps     uint64 // re-installs that could not extend and went cold
	}
}

// NewFullMesh creates the baseline router for the node at slot self.
func NewFullMesh(env transport.Env, cfg FullMeshConfig, view *membership.ViewInfo, self int) *FullMesh {
	cfg.fill()
	f := &FullMesh{env: env, cfg: cfg}
	f.SetView(view, self)
	return f
}

// SetView installs a new membership view, with exactly two outcomes. A
// stable extension (membership.StableExtension — the only kind of change a
// coordinator reign produces) grows the table and route array in place,
// retires exactly the slots whose occupant departed, and keeps the
// incremental snapshots valid: unaffected rows keep their bytes and
// generations, so the next recompute stays incremental and re-evaluates only
// what the departure or arrival actually touched (RetireSlot's generation
// bumps surface the retired slots as dirty). Any other install goes cold, as
// the first one does: an empty table and route array, every snapshot void, a
// full pass at the next recompute. The sequence number and cumulative stats
// survive both.
func (f *FullMesh) SetView(view *membership.ViewInfo, self int) {
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
	if !stable {
		f.table = lsdb.NewTable(n)
		f.routes = make([]RouteEntry, n)
		f.lastValid = false
		return
	}
	f.table.Grow(n)
	for len(f.routes) < n {
		f.routes = append(f.routes, RouteEntry{})
	}
	for _, s := range retired {
		f.table.RetireSlot(s)
	}
	retireRoutes(f.routes, retired)
	// Grow the incremental snapshots in place: a new slot's provable
	// previous-pass result is "unreachable" (its direct seed and every
	// intermediate's column toward it read InfCost until announcements
	// land), so seeding {-1, Inf} keeps lastOut exactly what a full pass
	// at the old width plus Inf-padding would have produced.
	for len(f.lastOut) < n {
		f.lastOut = append(f.lastOut, lsdb.HopCost{Hop: -1, Cost: wire.InfCost})
	}
	for len(f.prevGen) < n {
		f.prevGen = append(f.prevGen, 0)
	}
	for len(f.prevFresh) < n {
		f.prevFresh = append(f.prevFresh, false)
	}
	for len(f.prevSelf) < n && len(f.prevSelf) > 0 {
		f.prevSelf = append(f.prevSelf, wire.InfCost)
	}
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

// RecomputeStats reports how recomputes have executed: from-scratch kernel
// passes, incremental passes, and the total destinations the incremental
// passes re-evaluated.
func (f *FullMesh) RecomputeStats() (full, incremental, dstsRecomputed uint64) {
	return f.stats.fullPasses, f.stats.incPasses, f.stats.dstsRecomputed
}

// Table exposes the received-rows database (read-only).
func (f *FullMesh) Table() *lsdb.Table { return f.table }

// Tick implements Router: broadcast the row to all n−1 nodes (the Θ(n²)
// behaviour the paper improves on), then recompute the full route table.
func (f *FullMesh) Tick() {
	f.seq++
	msg := wire.AppendLinkState(nil, f.env.LocalID(), wire.LinkState{
		ViewVersion: f.view.VersionNum(),
		Seq:         f.seq,
		Entries:     f.SelfRow(),
	})
	for s := 0; s < f.view.Slots(); s++ {
		if s == f.self || !f.view.Occupied(s) {
			continue
		}
		f.env.Send(f.view.IDAt(s), msg)
		f.stats.linkStatesSent++
	}
	f.recompute()
}

// incrementalMaxDirtyDenom sets the incremental-path bail-out threshold: if
// more than n/incrementalMaxDirtyDenom slots went dirty since the previous
// pass, the O(dirty·n) affected-scan stops being cheaper than the sharded
// full pass and recompute falls back to it.
const incrementalMaxDirtyDenom = 4

// shardMinDsts is the smallest destination count worth forking the full pass
// across workers; below it the fork/join overhead dominates.
const shardMinDsts = 256

// recompute rebuilds the route table from the link-state database.
//
// The steady-state path is incremental: Table row generations (advanced only
// when a row's unpacked costs change), per-slot freshness, and the node's own
// row are compared against snapshots from the previous pass, and only
// destinations whose best hop could have changed are re-evaluated. A
// destination is affected when its own direct seed changed, when its current
// best hop went dirty (content, freshness, or first leg), or when some dirty
// fresh intermediate now reaches it at a cost ≤ its previous best (the ≤
// catches tie-break flips to a smaller hop index). Affected destinations are
// re-evaluated by BestOneHopViaDsts, which runs the intermediates in full-
// pass order, so the maintained result stays bit-identical to a from-scratch
// recompute (pinned by the golden churn test). When the dirty fraction
// exceeds 1/incrementalMaxDirtyDenom — or after a view change, which voids
// every snapshot — the pass falls back to the full kernel, sharded across
// workers by destination span.
func (f *FullMesh) recompute() {
	now := f.env.Now()
	n := f.view.Slots()
	f.selfCosts()
	f.sizeRecomputeState(n)
	if f.cfg.DisableIncremental || !f.lastValid || len(f.costsBuf) != n || len(f.prevSelf) != n {
		f.fullPass(now, n)
	} else {
		f.incrementalPass(now, n)
	}
	for dst := 0; dst < n; dst++ {
		if dst == f.self {
			continue
		}
		hc := f.lastOut[dst]
		if hc.Hop < 0 {
			continue // keep the stale entry; BestHop ages it out
		}
		e := RouteEntry{Hop: hc.Hop, Cost: hc.Cost, When: now, From: -1, Source: SourceSelf}
		f.routes[dst] = e
		if f.OnRouteUpdate != nil {
			f.OnRouteUpdate(dst, e)
		}
	}
}

// selfCosts unpacks the live self row into costsBuf, the flat form the
// kernels scan.
func (f *FullMesh) selfCosts() []wire.Cost {
	f.costsBuf = lsdb.UnpackCosts(f.costsBuf[:0], f.SelfRow())
	return f.costsBuf
}

// sizeRecomputeState (re)sizes the incremental buffers for an n-slot view.
// SetView's stable path grows the snapshot buffers itself (preserving their
// contents), so a width mismatch here can only follow a non-stable install
// — the snapshots are void and get re-seeded for the full pass that must
// come next.
func (f *FullMesh) sizeRecomputeState(n int) {
	if len(f.lastOut) != n {
		f.lastOut = make([]lsdb.HopCost, n)
		f.prevGen = make([]uint32, n)
		f.prevFresh = make([]bool, n)
		f.lastValid = false
	}
	if cap(f.dirtySet) < n {
		f.dirtySet = make([]bool, n)
		f.affSet = make([]bool, n)
		f.affOut = make([]lsdb.HopCost, n)
	}
	f.dirtySet = f.dirtySet[:n]
	f.affSet = f.affSet[:n]
	f.affOut = f.affOut[:n]
}

// fullPass runs the from-scratch kernel over every destination (sharded by
// span when the table is large enough) and snapshots the inputs the next
// incremental pass will diff against.
func (f *FullMesh) fullPass(now time.Time, n int) {
	f.stats.fullPasses++
	workers := f.cfg.Workers
	if n >= shardMinDsts && workers != 1 {
		out := f.lastOut
		table, costs, stale := f.table, f.costsBuf, f.cfg.Staleness
		par.Spans(n, workers, func(lo, hi int) {
			table.BestOneHopViaSpan(costs, now, stale, out, lo, hi)
		})
	} else {
		f.table.BestOneHopViaAll(f.costsBuf, now, f.cfg.Staleness, f.lastOut)
	}
	f.snapshot(now, n)
}

// snapshot records the inputs of the pass that just filled lastOut.
func (f *FullMesh) snapshot(now time.Time, n int) {
	for h := 0; h < n; h++ {
		f.prevGen[h] = f.table.Gen(h)
		f.prevFresh[h] = f.table.FreshAt(h, now, f.cfg.Staleness)
	}
	f.prevSelf = append(f.prevSelf[:0], f.costsBuf...)
	f.lastValid = true
}

// incrementalPass updates lastOut in place, re-evaluating only affected
// destinations. See recompute for the invariant.
func (f *FullMesh) incrementalPass(now time.Time, n int) {
	stale := f.cfg.Staleness
	// A slot is dirty when its row contents changed (generation), its
	// freshness flipped (either direction: a newly fresh row adds candidates,
	// an aged-out row removes them), or the first leg toward it from the self
	// row changed (which shifts every path routed through it, and the direct
	// seed of the slot itself).
	dirty := f.dirtyBuf[:0]
	for h := 0; h < n; h++ {
		g := f.table.Gen(h)
		fr := f.table.FreshAt(h, now, stale)
		if g != f.prevGen[h] || fr != f.prevFresh[h] || f.costsBuf[h] != f.prevSelf[h] {
			dirty = append(dirty, h)
			f.dirtySet[h] = true
		}
		f.prevGen[h] = g
		f.prevFresh[h] = fr
	}
	f.dirtyBuf = dirty
	if len(dirty)*incrementalMaxDirtyDenom > n {
		for _, h := range dirty {
			f.dirtySet[h] = false
		}
		f.fullPass(now, n)
		return
	}
	f.stats.incPasses++
	// Mark affected destinations.
	for dst := 0; dst < n; dst++ {
		if f.dirtySet[dst] {
			f.affSet[dst] = true // direct seed or skip-set membership changed
			continue
		}
		if hop := f.lastOut[dst].Hop; hop >= 0 && f.dirtySet[hop] {
			f.affSet[dst] = true // current best hop went dirty
		}
	}
	for _, h := range dirty {
		if !f.prevFresh[h] {
			continue // a stale intermediate cannot improve any destination
		}
		ca := uint32(f.costsBuf[h])
		if ca >= uint32(wire.InfCost) {
			continue
		}
		row := f.table.OutRow(h)
		for dst := 0; dst < n; dst++ {
			if dst == h || f.affSet[dst] {
				continue
			}
			if s := ca + uint32(row[dst]); s <= uint32(f.lastOut[dst].Cost) {
				f.affSet[dst] = true // could beat or tie (and re-break) the old best
			}
		}
	}
	aff := f.affBuf[:0]
	for dst := 0; dst < n; dst++ {
		if f.affSet[dst] {
			aff = append(aff, dst)
			f.affSet[dst] = false
		}
	}
	f.affBuf = aff
	for _, h := range dirty {
		f.dirtySet[h] = false
	}
	if len(aff) > 0 {
		f.table.BestOneHopViaDsts(f.costsBuf, now, stale, aff, f.affOut[:len(aff)])
		for i, dst := range aff {
			f.lastOut[dst] = f.affOut[i]
		}
		f.stats.dstsRecomputed += uint64(len(aff))
	}
	f.prevSelf = append(f.prevSelf[:0], f.costsBuf...)
}

// HandleLinkState implements Router.
func (f *FullMesh) HandleLinkState(h wire.Header, body []byte) {
	ls, err := wire.ParseLinkState(body)
	if err != nil || ls.ViewVersion != f.view.VersionNum() {
		return
	}
	slot, ok := f.view.SlotOf(h.Src)
	if !ok || slot == f.self {
		return
	}
	f.table.Put(slot, lsdb.Row{Seq: ls.Seq, When: f.env.Now(), Entries: ls.Entries})
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
	e := f.routes[dst]
	if e.Source != SourceNone && e.Hop >= 0 && now.Sub(e.When) <= f.cfg.Staleness {
		return e, true
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
	if se, ok := staleHop(e, now, f.cfg.Staleness, f.cfg.DegradedHold, alive, via); ok {
		return se, true
	}
	return RouteEntry{Hop: -1, Cost: wire.InfCost}, false
}

// Routes implements Router.
func (f *FullMesh) Routes() []RouteEntry {
	out := make([]RouteEntry, len(f.routes))
	copy(out, f.routes)
	return out
}
