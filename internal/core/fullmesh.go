package core

import (
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
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
	// Workers has no effect: the recompute runs on the router's own
	// goroutine. The field is a vestige kept because benchmark/ sets it
	// (ROADMAP item 1).
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
// paper's comparison baseline: the same row core as Quorum (rows, ingest,
// expiry, view install, BestHop and its LinkAlive), with a broadcast and a
// full recompute for rounds. Its row core parks the n−1 rows an interval
// brings and applies them at the tick that reads them (rowCore), so the
// recompute streams rows just written rather than rows gone cold since they
// arrived. As RON does, it sends every row in full: deltas are the quorum's.
type FullMesh struct {
	rowCore
	cfg FullMeshConfig

	hopsBuf    []lsdb.HopCost // the kernel's output, one entry per slot, reused across recomputes
	recomputes uint64
}

// NewFullMesh creates the baseline router for the node at slot self.
func NewFullMesh(env transport.Env, cfg FullMeshConfig, view *membership.ViewInfo, self int) *FullMesh {
	cfg.fill()
	f := &FullMesh{rowCore: rowCore{env: env, staleness: cfg.Staleness, hold: cfg.DegradedHold, park: true}, cfg: cfg}
	_ = f.SetView(view, self) // always nil
	return f
}

// SetView installs a new membership view: stably extended in place or cold
// (rowCore.installView). The error is always nil (it is the Router
// signature).
func (f *FullMesh) SetView(view *membership.ViewInfo, self int) error {
	f.installView(view, self, lsdb.NewTable)
	return nil
}

// ViewChangeStats reports how view re-installs have executed: stable
// extensions (per-slot state preserved) versus cold installs.
func (f *FullMesh) ViewChangeStats() (extends, remaps uint64) {
	return f.viewExtends, f.viewRemaps
}

// Interval implements Router.
func (f *FullMesh) Interval() time.Duration { return f.cfg.Interval }

// RecomputeStats reports the number of recomputes as full; incremental and
// dstsRecomputed are always 0. The three-value shape is a vestige kept because
// benchmark/harness.go reads it (ROADMAP item 1).
func (f *FullMesh) RecomputeStats() (full, incremental, dstsRecomputed uint64) {
	return f.recomputes, 0, 0
}

// Tick implements Router: broadcast the row to all n−1 nodes (the Θ(n²)
// behaviour the paper improves on), then recompute the full route table.
func (f *FullMesh) Tick() {
	f.expire()
	msg := f.announce()
	for _, m := range f.view.Members() {
		if int(m.Slot) != f.self {
			f.env.Send(m.ID, msg)
		}
	}
	f.recompute()
}

// recompute rebuilds the route table from the link-state database: unpack
// the live self row, run the §4.2 kernel over every destination, and install
// every destination that has a usable hop.
//
//lint:allocfree
func (f *FullMesh) recompute() {
	f.recomputes++
	now := f.env.Now()
	nowNs := now.UnixNano()
	n := f.view.Slots()
	costs, _ := f.selfCosts()
	if cap(f.hopsBuf) < n {
		//lint:allowalloc grows with the view
		f.hopsBuf = make([]lsdb.HopCost, n)
	}
	out := f.hopsBuf[:n]
	f.table.BestOneHopViaAll(costs, now, f.cfg.Staleness, out)
	for dst, hc := range out {
		if dst == f.self || hc.Hop < 0 {
			continue // no usable hop: keep the stale entry; BestHop ages it out
		}
		f.install(dst, route{when: nowNs, hop: uint16(hc.Hop), from: noSlot, cost: hc.Cost, source: SourceSelf})
	}
}

// HandleLinkState implements Router: a member's row is checked and parked
// (rowCore.ingest), its entry bytes kept until the next read of the table
// applies it — the payload is the router's to keep (transport.Handler). A
// delta, which no full mesh sends, is dropped once parsed, and an ack, which
// answers only a quorum node's rows, unread.
//
//lint:allocfree
func (f *FullMesh) HandleLinkState(h wire.Header, body []byte) (uint32, bool) {
	switch h.Type {
	case wire.TLinkStateAck:
		return 0, false
	case wire.TLinkStateDelta:
		d, err := wire.LinkStateDeltaBody(body)
		return d.ViewVersion, err == nil
	}
	version, ok, _, _ := f.ingest(h, body)
	return version, ok
}

// HandleRecommendation implements Router. The baseline never receives
// recommendations; the message is parsed for its version and ignored.
//
//lint:allocfree
func (f *FullMesh) HandleRecommendation(_ wire.Header, body []byte) (uint32, bool) {
	rec, err := wire.RecommendationBody(body)
	return rec.ViewVersion, err == nil
}
