package emul

import (
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
)

// TestColdStartRecruitsNoFailover: on a clean static quorum fleet every link
// answers its first probe, so over the first two minutes — while each link is
// probed for the first time — no node detects a rendezvous failure: nobody
// recruits a failover, and no rendezvous holds fresh rows from more members
// than its grid clients. Counting unprobed links as dead recruited failovers
// on the first tick of every node.
func TestColdStartRecruitsNoFailover(t *testing.T) {
	const n = 64
	f := NewFleet(FleetOptions{N: n, Algorithm: overlay.AlgQuorum, Seed: 1})
	var fresh []int
	for f.Elapsed() < 2*time.Minute {
		f.Run(5 * time.Second)
		for i, node := range f.Nodes {
			q := node.Router().(*core.Quorum)
			if a := q.Stats().FailoverAttempts; a != 0 {
				t.Fatalf("%v: node %d has recruited %d failovers", f.Elapsed(), i, a)
			}
			fresh = q.Table().FreshSlots(fresh[:0], node.Env().Now(), 3*q.Interval())
			if clients := len(q.Grid().Clients(i)); len(fresh) > clients {
				t.Fatalf("%v: node %d holds %d fresh rows, more than its %d grid clients", f.Elapsed(), i, len(fresh), clients)
			}
		}
	}
}

// TestDeadFromStartRendezvousFailsOver: an unprobed link is unknown, but a
// link that is dead from the start is detected by its first probe — sent within
// one probing interval, lost one reply timeout later — and the next routing
// tick, one interval later (jitter included), recruits a failover.
func TestDeadFromStartRendezvousFailsOver(t *testing.T) {
	const n, src, dst = 25, 0, 6 // 5×5 grid: (0, 6) has two third-party rendezvous
	probeCfg := probe.Config{Interval: 30 * time.Second, ReplyTimeout: 3 * time.Second}
	quorumCfg := core.QuorumConfig{Interval: 15 * time.Second}
	bound := probeCfg.Interval + probeCfg.ReplyTimeout + quorumCfg.Interval + quorumCfg.Interval/32
	for seed := int64(1); seed <= 8; seed++ {
		f := NewFleet(FleetOptions{N: n, Algorithm: overlay.AlgQuorum, Seed: seed, Probe: probeCfg, Quorum: quorumCfg})
		q := f.Nodes[src].Router().(*core.Quorum)
		defaults := q.Grid().Common(src, dst)
		if len(defaults) != 2 {
			t.Fatalf("pair (%d, %d) has rendezvous %v, want two third parties", src, dst, defaults)
		}
		for _, k := range defaults {
			f.Net.SetLinkDown(src, k, true)
		}
		for q.FailoverServer(dst) < 0 {
			if f.Elapsed() > bound {
				t.Fatalf("seed %d: no failover toward %d recruited within %v of both default rendezvous %v being down",
					seed, dst, bound, defaults)
			}
			f.Run(250 * time.Millisecond)
		}
	}
}
