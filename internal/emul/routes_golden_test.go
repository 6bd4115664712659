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

// TestIncrementalMatchesScratchUnderChurn runs two identically-seeded churn
// fleets — one on the default incremental dirty-set recompute, one forced to
// recompute every destination from scratch — and diffs every node's full
// route table each recomputation interval across joins, crashes, and
// graceful departures. Byte-identity here is the correctness contract of the
// incremental path: the dirty-set bookkeeping may only skip work, never
// change a decision. The directional case runs the quorum in footnote-2 mode,
// where the pair cache holds a value per direction.
func TestIncrementalMatchesScratchUnderChurn(t *testing.T) {
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
			build := func(disable bool) *DynamicFleet {
				opt := DynamicFleetOptions{
					MaxN:      20,
					Seed:      42,
					Algorithm: tc.algo,
				}
				opt.Probe.Asymmetric = tc.asym
				opt.Quorum.Asymmetric = tc.asym
				opt.Quorum.DisableIncremental = disable
				opt.FullMesh.DisableIncremental = disable
				return NewDynamicFleet(16, opt)
			}
			inc, scr := build(false), build(true)
			step := func(d time.Duration) {
				inc.Run(d)
				scr.Run(d)
			}
			compare := func(when string) {
				t.Helper()
				if hi, hs := dynamicRouteHash(inc), dynamicRouteHash(scr); hi != hs {
					t.Fatalf("%s: incremental tables %s diverged from scratch tables %s", when, hi, hs)
				}
			}

			step(90 * time.Second) // join and converge
			compare("after convergence")

			events := []struct {
				name string
				do   func(f *DynamicFleet)
			}{
				{"crash", func(f *DynamicFleet) { f.Depart(f.ActiveEndpoints()[2], false) }},
				{"leave", func(f *DynamicFleet) { f.Depart(f.ActiveEndpoints()[5], true) }},
				{"join", func(f *DynamicFleet) { f.Spawn() }},
			}
			for _, ev := range events {
				ev.do(inc)
				ev.do(scr)
				for k := 0; k < 4; k++ {
					step(15 * time.Second)
					compare(fmt.Sprintf("%s, tick %d", ev.name, k))
				}
			}

			// The equality above is only meaningful if the incremental fleet
			// actually took the fast path and the scratch fleet never did.
			took, scratchTook := false, false
			count := func(f *DynamicFleet) (n uint64) {
				for _, ep := range f.ActiveEndpoints() {
					switch r := f.Node(ep).Router().(type) {
					case *core.Quorum:
						n += r.Stats().PairsCached
					case *core.FullMesh:
						_, incr, _ := r.RecomputeStats()
						n += incr
					}
				}
				return n
			}
			took = count(inc) > 0
			scratchTook = count(scr) > 0
			if !took {
				t.Error("incremental fleet never exercised the incremental path")
			}
			if scratchTook {
				t.Error("DisableIncremental fleet took the incremental path")
			}

			// Slot-addressed views: every join, crash, and leave above must
			// have reached survivors as a stable extension — zero wholesale
			// remaps anywhere in the fleet, with at least one node actually
			// exercising the in-place path.
			var extends, remaps uint64
			for _, ep := range inc.ActiveEndpoints() {
				switch r := inc.Node(ep).Router().(type) {
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
				t.Errorf("churn triggered %d wholesale view remaps, want 0 (stable slots)", remaps)
			}
			if extends == 0 {
				t.Error("no node took the stable-extension view path across join/crash/leave")
			}
		})
	}
}
