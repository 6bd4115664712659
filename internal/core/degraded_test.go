package core

import (
	"testing"
	"time"

	"allpairs/internal/wire"
)

// degradedCluster builds a converged 9-node cluster where node 0's route to
// node 5 must go through an intermediate: the direct link is dead in probing
// ground truth, so once the stored entry and table rows expire, the
// always-fresh self row cannot supply a direct fallback and BestHop reaches
// the degraded path. The control-plane outage itself is injected by
// partitioning node 0's packet traffic — recommendations and rows stop
// flowing, exactly what a membership/coordinator outage produces — while
// the probing ground truth keeps the intermediate links alive.
func degradedCluster(t *testing.T, algo string) *cluster {
	c := newCluster(t, 9, 9, algo, QuorumConfig{
		Interval:     15 * time.Second,
		DegradedHold: 90 * time.Second,
	})
	c.dead[0][5], c.dead[5][0] = true, true
	c.nw.RunFor(60 * time.Second) // converge
	return c
}

// outage is how long node 0 of a degraded cluster must be cut off before its
// route to node 5 can only be the damped last-known-good entry. A quorum
// node's recommendation and the rendezvous rows the fallback needs both age
// out at Staleness (45 s). A full-mesh node keeps recomputing from its stored
// rows, re-stamping the entry each tick, until they age past Staleness; only
// then does the entry itself start aging.
var outage = map[string]time.Duration{"quorum": 60 * time.Second, "fullmesh": 120 * time.Second}

// Degraded-mode damping is one test over both routers: rowCore.bestHop
// resolves the route for each.
func TestQuorumStaleHopDamping(t *testing.T) { testStaleHopDamping(t, "quorum") }

func TestFullMeshStaleHopDamping(t *testing.T) { testStaleHopDamping(t, "fullmesh") }

func testStaleHopDamping(t *testing.T, algo string) {
	c := degradedCluster(t, algo)
	dst := 5
	fresh, ok := c.routers[0].BestHop(dst)
	if !ok || fresh.Source == SourceStale {
		t.Fatalf("no fresh route before outage: %+v ok=%v", fresh, ok)
	}

	// Control-plane outage: node 0 stops hearing recommendations and rows.
	c.nw.SetPartition([]int{0})
	c.nw.RunFor(outage[algo])
	e1, ok := c.routers[0].BestHop(dst)
	if !ok {
		t.Fatal("degraded mode did not serve the stale entry")
	}
	if e1.Source != SourceStale {
		t.Fatalf("source = %v, want stale", e1.Source)
	}
	if e1.Cost < fresh.Cost {
		t.Errorf("stale cost %d below fresh cost %d (no damping)", e1.Cost, fresh.Cost)
	}

	// The penalty grows with age.
	c.nw.RunFor(30 * time.Second)
	e2, ok := c.routers[0].BestHop(dst)
	if !ok || e2.Source != SourceStale {
		t.Fatalf("stale entry gone too early: %+v ok=%v", e2, ok)
	}
	if e2.Cost <= e1.Cost {
		t.Errorf("penalty not increasing: %d then %d", e1.Cost, e2.Cost)
	}

	// Past Staleness + DegradedHold the entry is finally dropped.
	c.nw.RunFor(60 * time.Second)
	if e3, ok := c.routers[0].BestHop(dst); ok {
		t.Errorf("entry served past the degraded hold: %+v", e3)
	}
}

func TestQuorumStaleHopRequiresLiveFirstHop(t *testing.T) {
	c := degradedCluster(t, "quorum")
	dst := 5
	fresh, ok := c.routers[0].BestHop(dst)
	if !ok {
		t.Fatal("no fresh route")
	}
	c.nw.SetPartition([]int{0})
	c.nw.RunFor(60 * time.Second)
	e, ok := c.routers[0].BestHop(dst)
	if !ok || e.Source != SourceStale {
		t.Fatalf("expected stale entry, got %+v ok=%v", e, ok)
	}
	// The prober now reports the remembered first hop dead: a stale entry
	// through a hop known to be down must not be served.
	hop := fresh.Hop
	c.dead[0][hop], c.dead[hop][0] = true, true
	if e, ok := c.routers[0].BestHop(dst); ok && e.Source == SourceStale && e.Hop == hop {
		t.Errorf("stale entry served through a dead hop: %+v", e)
	}
}

// The second-order fallback is one test over both routers.
func TestQuorumStaleHopSecondOrderFallback(t *testing.T) {
	testStaleHopSecondOrderFallback(t, "quorum")
}

func TestFullMeshStaleHopSecondOrderFallback(t *testing.T) {
	testStaleHopSecondOrderFallback(t, "fullmesh")
}

func testStaleHopSecondOrderFallback(t *testing.T, algo string) {
	c := degradedCluster(t, algo)
	dst := 5
	if _, ok := c.routers[0].BestHop(dst); !ok {
		t.Fatal("no fresh route")
	}
	c.nw.SetPartition([]int{0})
	c.nw.RunFor(outage[algo])
	e, ok := c.routers[0].BestHop(dst)
	if !ok || e.Source != SourceStale {
		t.Fatalf("expected stale entry, got %+v ok=%v", e, ok)
	}
	// The remembered first hop dies mid-outage. Dropping the route outright
	// would end the degraded grace early even though other intermediates are
	// alive and the stale rows still cover them: the router must re-derive a
	// second-best hop from the extended-staleness window and keep serving.
	hop := e.Hop
	c.dead[0][hop], c.dead[hop][0] = true, true
	e2, ok := c.routers[0].BestHop(dst)
	if !ok {
		t.Fatal("no second-order fallback served after the first hop died")
	}
	if e2.Source != SourceStale {
		t.Fatalf("fallback source = %v, want stale", e2.Source)
	}
	if e2.Hop == hop || e2.Hop < 0 {
		t.Fatalf("fallback hop = %d, want a live hop other than dead %d", e2.Hop, hop)
	}
	if e2.Cost == wire.InfCost {
		t.Error("fallback served at infinite cost")
	}
}

func TestDegradedHoldOffByDefault(t *testing.T) {
	// Without DegradedHold, the pre-existing contract stands: expired entry
	// plus no fallback means no route.
	c := newCluster(t, 9, 9, "quorum", QuorumConfig{Interval: 15 * time.Second})
	c.dead[0][5], c.dead[5][0] = true, true
	c.nw.RunFor(60 * time.Second)
	if _, ok := c.routers[0].BestHop(5); !ok {
		t.Fatal("no route after convergence")
	}
	c.nw.SetPartition([]int{0})
	c.nw.RunFor(60 * time.Second)
	if e, ok := c.routers[0].BestHop(5); ok {
		t.Errorf("route served with degradation disabled: %+v", e)
	}
}

func TestStaleCostPenaltySaturates(t *testing.T) {
	// The damping arithmetic must saturate, not wrap, for near-infinite
	// costs.
	q := &Quorum{cfg: QuorumConfig{Staleness: time.Second, DegradedHold: time.Second}}
	q.cfg.fill()
	q.LinkAlive = func(int) bool { return true }
	base := time.Unix(0, 0)
	e := RouteEntry{Hop: 1, Cost: wire.InfCost - 1, When: base, Source: SourceRendezvous}
	got, ok := staleHop(e, base.Add(q.cfg.Staleness+q.cfg.DegradedHold), q.cfg.Staleness, q.cfg.DegradedHold, q.LinkAlive, nil)
	if !ok {
		t.Fatal("edge-of-window entry not served")
	}
	if got.Cost != wire.InfCost {
		t.Errorf("cost = %d, want saturation at InfCost", got.Cost)
	}
}
