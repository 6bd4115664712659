package emul

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/lsdb"
	"allpairs/internal/overlay"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// routeTableHash runs a deterministic fleet and digests every node's full
// route table (hop, cost, from, source per destination). The golden values
// below were captured from the scalar BestOneHop implementation; the batched
// cost-matrix kernels must reproduce them bit for bit. The two quorum values
// were re-captured once, in PR 18, for the hop column alone: a symmetric
// round 2 used to tell the second endpoint of a pair whose best path is
// direct "hop = yourself" and now names the far end (costs, provenance and
// every other hop are as captured; with that one relabelling reverted the
// old values reproduce). They were re-captured a second time when an unprobed
// link stopped counting as a dead rendezvous: every entry's hop and cost are
// unchanged, and only which rendezvous spoke last (from, source) moved,
// because cold nodes no longer recruit failovers (68 and 240 of them in these
// fixtures' first minute). The planetlab one was re-captured a third time
// when recommendations began travelling as deltas, and again every entry's
// hop and cost are unchanged and only the provenance moved: on its lossy
// links a client that refuses a delta waits a round trip for the answer to
// re-install the unchanged entries, and its other rendezvous may speak last
// in between. It was re-captured a fourth time when a pairing's row began
// riding behind its recommendation, once more with every hop and cost
// unchanged: on its lossy links one datagram now carries what two did, so
// other datagrams are lost, and other rendezvous speak last.
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
		{"quorum/homogeneous", overlay.AlgQuorum, 16, 1, nil, "2af5477473282f71"},
		{"fullmesh/planetlab", overlay.AlgFullMesh, 25, 77, traces.PlanetLab(25, 77), "23a7b9dcf6c06547"},
		{"quorum/planetlab", overlay.AlgQuorum, 25, 77, traces.PlanetLab(25, 77), "82e18d55ffba64c3"},
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

// churnFleet builds the 16-member dynamic fleet the churn tests drive.
func churnFleet(algo overlay.Algorithm, asym bool) *DynamicFleet {
	opt := DynamicFleetOptions{MaxN: 20, Seed: 42, Algorithm: algo}
	opt.Quorum.Asymmetric = asym
	return NewDynamicFleet(16, opt)
}

// driveChurn runs the fleet through convergence, a crash, a graceful
// departure and a join, with four routing intervals after each event; check
// runs after convergence and after every interval.
func driveChurn(f *DynamicFleet, check func(when string)) {
	step := func(d time.Duration, when string) {
		f.Run(d)
		check(when)
	}
	step(90*time.Second, "after convergence")
	for _, ev := range []struct {
		name string
		do   func()
	}{
		{"crash", func() { f.Depart(f.ActiveEndpoints()[2], false) }},
		{"leave", func() { f.Depart(f.ActiveEndpoints()[5], true) }},
		{"join", func() { f.Spawn() }},
	} {
		ev.do()
		for k := 0; k < 4; k++ {
			step(15*time.Second, fmt.Sprintf("%s, tick %d", ev.name, k))
		}
	}
}

// oracleVia is §4.2 written out longhand for one destination: the direct
// path, then every intermediate whose row is fresher than maxAge in slot
// order, the first strict minimum winning.
func oracleVia(tab *lsdb.Table, self []wire.LinkEntry, dst int, now time.Time, maxAge time.Duration) (hop int, cost wire.Cost) {
	hop, cost = -1, wire.InfCost
	if c := self[dst].Cost(); c != wire.InfCost {
		hop, cost = dst, c
	}
	for h := range self {
		if h == dst || !tab.FreshAt(h, now, maxAge) {
			continue
		}
		if c := self[h].Cost().Add(tab.OutRow(h)[dst]); c < cost {
			hop, cost = h, c
		}
	}
	return hop, cost
}

// TestFullMeshRoutesMatchOracleUnderChurn drives a full-mesh fleet through a
// crash, a graceful departure and a join and, after every interval, ticks
// each node and holds the route table that tick installed to oracleVia over
// the node's own table and prober row: every destination with a usable hop
// reads the oracle's (hop, cost) stamped now, every other keeps the entry it
// had. The tables have by then been grown, retired into and aged, so this is
// the recompute against an independent scalar loop on churned state, not on
// a fresh fixture.
func TestFullMeshRoutesMatchOracleUnderChurn(t *testing.T) {
	f := churnFleet(overlay.AlgFullMesh, false)
	installed, kept := 0, 0
	driveChurn(f, func(when string) {
		for _, ep := range f.ActiveEndpoints() {
			node := f.Node(ep)
			if !node.Ready() {
				continue
			}
			r := node.Router().(*core.FullMesh)
			before := r.Routes()
			r.Tick()
			now, self := node.Env().Now(), node.Prober().Row()
			for dst, got := range r.Routes() {
				want := before[dst]
				if hop, cost := oracleVia(r.Table(), self, dst, now, 3*r.Interval()); hop >= 0 && dst != node.Slot() {
					want = core.RouteEntry{Hop: hop, Cost: cost, When: now, From: -1, Source: core.SourceSelf}
					installed++
				} else {
					kept++
				}
				if got != want {
					t.Fatalf("%s: endpoint %d route to slot %d = %+v, oracle says %+v", when, ep, dst, got, want)
				}
			}
		}
	})
	// The comparison means something only if both arms ran: routes the
	// oracle chose, and entries a recompute had to leave alone (self,
	// tombstones, members that stopped answering).
	if installed == 0 || kept == 0 {
		t.Errorf("oracle installed %d routes and kept %d: one arm never ran", installed, kept)
	}
}

// TestLinkStateRowsCarryMembers watches every link-state datagram a churning
// fleet sends, for each router and row format: a row carries one entry per
// member of its sender's view, never one per slot, so the tombstones a crash
// and a departure leave cost nothing on the wire.
func TestLinkStateRowsCarryMembers(t *testing.T) {
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
			f := churnFleet(tc.algo, tc.asym)
			rows, tombstoned, wrong := 0, 0, 0
			account := f.Net.OnSend
			f.Net.OnSend = func(from, to int, p []byte) {
				account(from, to, p)
				for _, m := range messages(p) { // a row riding behind a recommendation too
					typ := m.h.Type
					if typ != wire.TLinkState && typ != wire.TLinkStateAsym {
						continue
					}
					view := f.Node(from).View()
					want := wire.LinkStateSize(view.N())
					if typ == wire.TLinkStateAsym {
						want = wire.AsymLinkStateSize(view.N())
					}
					if rows++; view.N() < view.Slots() {
						tombstoned++
					}
					if size := wire.HeaderLen + len(m.body); size != want {
						if wrong == 0 {
							t.Errorf("endpoint %d sent a %d-byte row on a view of %d members in %d slots, want %d",
								from, size, view.N(), view.Slots(), want)
						}
						wrong++
					}
				}
			}
			driveChurn(f, func(string) {})
			if wrong != 0 || tombstoned == 0 {
				t.Errorf("%d of %d rows mis-sized; %d sent on a view holding tombstones, want some", wrong, rows, tombstoned)
			}
		})
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
			f := churnFleet(tc.algo, tc.asym)
			driveChurn(f, func(string) {})
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
