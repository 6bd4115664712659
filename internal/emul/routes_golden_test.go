package emul

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/overlay"
	"allpairs/internal/traces"
)

// routeTableHash runs a deterministic fleet and digests every node's full
// route table (hop, cost, from, source per destination). The golden values
// below were captured from the scalar BestOneHop implementation; the batched
// cost-matrix kernels must reproduce them bit for bit.
func routeTableHash(algo overlay.Algorithm, n int, seed int64, env *traces.Env, d time.Duration) string {
	f := NewFleet(FleetOptions{N: n, Algorithm: algo, Seed: seed, Env: env})
	f.Run(d)
	h := sha256.New()
	var buf [8]byte
	for _, node := range f.Nodes {
		for dst, e := range node.Router().Routes() {
			binary.BigEndian.PutUint32(buf[:4], uint32(dst))
			binary.BigEndian.PutUint32(buf[4:], uint32(e.Hop))
			h.Write(buf[:])
			binary.BigEndian.PutUint16(buf[:2], uint16(e.Cost))
			binary.BigEndian.PutUint32(buf[2:6], uint32(e.From))
			buf[6] = byte(e.Source)
			buf[7] = 0
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestRouteTablesMatchScalarGolden pins the route tables of both routers on
// the deterministic simnet seeds used throughout the test suite, so kernel
// rewrites cannot silently change routing decisions.
func TestRouteTablesMatchScalarGolden(t *testing.T) {
	cases := []struct {
		name string
		algo overlay.Algorithm
		n    int
		seed int64
		env  *traces.Env
		want string
	}{
		{"fullmesh/homogeneous", overlay.AlgFullMesh, 16, 1, nil, "701d961db4d1b605"},
		{"quorum/homogeneous", overlay.AlgQuorum, 16, 1, nil, "97828e4d43c695ff"},
		{"fullmesh/planetlab", overlay.AlgFullMesh, 25, 77, traces.PlanetLab(25, 77), "23a7b9dcf6c06547"},
		{"quorum/planetlab", overlay.AlgQuorum, 25, 77, traces.PlanetLab(25, 77), "c36507c126ea3110"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := routeTableHash(tc.algo, tc.n, tc.seed, tc.env, 4*time.Minute)
			if got != tc.want {
				t.Errorf("route table hash = %s, want %s", got, tc.want)
			}
		})
	}
}

// dynamicRouteHash digests every active node's full route table, walking
// endpoints in ascending order (Routes returns a dense slice, so the digest
// is deterministic).
func dynamicRouteHash(f *DynamicFleet) string {
	h := sha256.New()
	var buf [8]byte
	for _, ep := range f.ActiveEndpoints() {
		binary.BigEndian.PutUint32(buf[:4], uint32(ep))
		binary.BigEndian.PutUint32(buf[4:], 0xffffffff)
		h.Write(buf[:])
		for dst, e := range f.Node(ep).Router().Routes() {
			binary.BigEndian.PutUint32(buf[:4], uint32(dst))
			binary.BigEndian.PutUint32(buf[4:], uint32(e.Hop))
			h.Write(buf[:])
			binary.BigEndian.PutUint16(buf[:2], uint16(e.Cost))
			binary.BigEndian.PutUint32(buf[2:6], uint32(e.From))
			buf[6] = byte(e.Source)
			buf[7] = 0
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// churnFleet builds the 16-member dynamic fleet the churn tests drive;
// scratch forces the full-mesh router to recompute every destination from
// scratch each interval.
func churnFleet(algo overlay.Algorithm, asym, scratch bool) *DynamicFleet {
	opt := DynamicFleetOptions{MaxN: 20, Seed: 42, Algorithm: algo}
	opt.Probe.Asymmetric = asym
	opt.Quorum.Asymmetric = asym
	opt.FullMesh.DisableIncremental = scratch
	return NewDynamicFleet(16, opt)
}

// driveChurn runs the fleets in lockstep through convergence, a crash, a
// graceful departure and a join, with four routing intervals after each
// event; check runs after convergence and after every interval.
func driveChurn(fleets []*DynamicFleet, check func(when string)) {
	step := func(d time.Duration, when string) {
		for _, f := range fleets {
			f.Run(d)
		}
		check(when)
	}
	step(90*time.Second, "after convergence")
	for _, ev := range []struct {
		name string
		do   func(f *DynamicFleet)
	}{
		{"crash", func(f *DynamicFleet) { f.Depart(f.ActiveEndpoints()[2], false) }},
		{"leave", func(f *DynamicFleet) { f.Depart(f.ActiveEndpoints()[5], true) }},
		{"join", func(f *DynamicFleet) { f.Spawn() }},
	} {
		for _, f := range fleets {
			ev.do(f)
		}
		for k := 0; k < 4; k++ {
			step(15*time.Second, fmt.Sprintf("%s, tick %d", ev.name, k))
		}
	}
}

// TestIncrementalMatchesScratchUnderChurn runs two identically-seeded
// full-mesh churn fleets — one on the default incremental dirty-set
// recompute, one forced to recompute every destination from scratch — and
// diffs every node's full route table each recomputation interval across
// joins, crashes, and graceful departures. Byte-identity here is the
// correctness contract of the incremental path: the dirty-set bookkeeping may
// only skip work, never change a decision. (The quorum router has no
// incremental path: round 2 evaluates every pair every interval.)
func TestIncrementalMatchesScratchUnderChurn(t *testing.T) {
	inc := churnFleet(overlay.AlgFullMesh, false, false)
	scr := churnFleet(overlay.AlgFullMesh, false, true)
	driveChurn([]*DynamicFleet{inc, scr}, func(when string) {
		if hi, hs := dynamicRouteHash(inc), dynamicRouteHash(scr); hi != hs {
			t.Fatalf("%s: incremental tables %s diverged from scratch tables %s", when, hi, hs)
		}
	})

	// The equality above is only meaningful if the incremental fleet
	// actually took the fast path and the scratch fleet never did.
	count := func(f *DynamicFleet) (n uint64) {
		for _, ep := range f.ActiveEndpoints() {
			_, incr, _ := f.Node(ep).Router().(*core.FullMesh).RecomputeStats()
			n += incr
		}
		return n
	}
	if count(inc) == 0 {
		t.Error("incremental fleet never exercised the incremental path")
	}
	if count(scr) != 0 {
		t.Error("DisableIncremental fleet took the incremental path")
	}
}

// TestChurnInstallsAreStableExtensions pins slot-addressed views for every
// router mode: each join, crash, and leave must reach survivors as a stable
// extension — zero cold re-installs anywhere in the fleet, with at least one
// node actually exercising the in-place path.
func TestChurnInstallsAreStableExtensions(t *testing.T) {
	for _, tc := range []struct {
		name string
		algo overlay.Algorithm
		asym bool
	}{
		{"quorum", overlay.AlgQuorum, false},
		{"quorum-directional", overlay.AlgQuorum, true},
		{"fullmesh", overlay.AlgFullMesh, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := churnFleet(tc.algo, tc.asym, false)
			driveChurn([]*DynamicFleet{f}, func(string) {})
			var extends, remaps uint64
			for _, ep := range f.ActiveEndpoints() {
				switch r := f.Node(ep).Router().(type) {
				case *core.Quorum:
					st := r.Stats()
					extends += st.ViewExtends
					remaps += st.ViewRemaps
				case *core.FullMesh:
					e, rm := r.ViewChangeStats()
					extends += e
					remaps += rm
				}
			}
			if remaps != 0 {
				t.Errorf("churn triggered %d cold view re-installs, want 0 (stable slots)", remaps)
			}
			if extends == 0 {
				t.Error("no node took the stable-extension view path across join/crash/leave")
			}
		})
	}
}
