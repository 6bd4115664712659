package core_test

import (
	"math/rand"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/emul"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
)

// TestSilenceStateBoundedUnderFailures runs the fleet of
// emul.RunFailoverScenario (25 nodes, live probing) through all three of its
// failure patterns at once from several sources, plus a dead node, and holds
// every router's §4.1 state to its bound afterwards: failures recruit and
// replace failover servers, they never grow the table.
func TestSilenceStateBoundedUnderFailures(t *testing.T) {
	const n = 25
	f := emul.NewFleet(emul.FleetOptions{
		N: n, Algorithm: overlay.AlgQuorum, Seed: 4,
		Probe: probe.Config{Interval: 30 * time.Second, ReplyTimeout: 3 * time.Second},
	})
	f.Run(3 * time.Minute)
	g := f.Nodes[0].Router().(*core.Quorum).Grid()
	for _, pair := range [][2]int{{0, 18}, {7, 15}, {12, 24}, {21, 3}} {
		src, dst := pair[0], pair[1]
		f.Net.SetLinkDown(src, dst, true)
		for _, k := range g.Common(src, dst) {
			if k != src && k != dst {
				f.Net.SetLinkDown(src, k, true) // proximal
				f.Net.SetLinkDown(k, dst, true) // remote
			}
		}
	}
	for i := 0; i < n; i++ {
		f.Net.SetLinkDown(i, 9, true) // node 9 dies
	}
	attempts := uint64(0)
	for minute := 0; minute < 10; minute++ {
		f.Run(time.Minute)
		for i, node := range f.Nodes {
			q := node.Router().(*core.Quorum)
			if err := core.CheckSilenceState(q); err != nil {
				t.Fatalf("minute %d, node %d: %v", minute, i, err)
			}
			attempts = max(attempts, q.Stats().FailoverAttempts)
		}
	}
	if attempts == 0 {
		t.Error("no failover was ever attempted: the run exercised nothing")
	}
}

// TestSilenceStateBoundedUnderChurn replaces 5 % of a 60-member dynamic
// fleet per minute, alternately by crash and by leave: slots retire, are
// reused and appended, and every install rebuilds the table inside the same
// bound.
func TestSilenceStateBoundedUnderChurn(t *testing.T) {
	f := emul.NewDynamicFleet(60, emul.DynamicFleetOptions{MaxN: 90, Seed: 11, Algorithm: overlay.AlgQuorum})
	f.Run(2 * time.Minute)
	rng := rand.New(rand.NewSource(11))
	extends := uint64(0)
	for minute := 0; minute < 6; minute++ {
		for k, ep := range f.ActiveEndpoints() {
			if rng.Float64() < 0.05 {
				f.Depart(ep, k%2 == 0)
				f.Spawn()
			}
		}
		f.Run(time.Minute)
		for _, ep := range f.ActiveEndpoints() {
			if !f.Node(ep).Ready() {
				continue
			}
			q := f.Node(ep).Router().(*core.Quorum)
			if err := core.CheckSilenceState(q); err != nil {
				t.Fatalf("minute %d, endpoint %d: %v", minute, ep, err)
			}
			extends += q.Stats().ViewExtends
		}
	}
	if f.Joins <= 60 || extends == 0 {
		t.Errorf("%d joins, %d stable installs: the run exercised nothing", f.Joins, extends)
	}
}
