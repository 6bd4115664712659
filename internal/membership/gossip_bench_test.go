package membership

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// BenchmarkViewDissemination measures the cost of propagating one membership
// change (a leave followed by a rejoin at the same endpoint) across an
// n-member overlay over the gossip tree with pull repair. Three custom
// metrics matter more than ns/op:
//
//	msgs/view    membership packets per view change (primary egress plus
//	             member forwards and repair pulls)
//	primsgs/view the primary's share of those: O(fanout) seeds, not O(n)
//	convms/view  virtual milliseconds until every member's stamp matches
//	             the coordinator's
func BenchmarkViewDissemination(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("gossip/n=%d", n), func(b *testing.B) {
			benchViewDissemination(b, n)
		})
	}
}

func benchViewDissemination(b *testing.B, n int) {
	// Long heartbeats keep keep-alive traffic out of the measurement window;
	// the short coalesce keeps the leave and the rejoin as distinct versions.
	sc := newSimCluster(b, n,
		ClientConfig{Heartbeat: 5 * time.Minute},
		CoordinatorConfig{Coalesce: 200 * time.Millisecond})
	for _, cl := range sc.clients {
		cl.Start()
	}
	// Admission storm: run until every member joined and converged.
	deadline := sc.nw.Elapsed() + 10*time.Minute
	for !benchConverged(sc, n) {
		if sc.nw.Elapsed() > deadline {
			b.Fatalf("setup never converged: %d members", sc.coord.MemberCount())
		}
		sc.nw.RunFor(time.Second)
	}

	churnEP := n - 1
	churner := sc.clients[churnEP]
	// primary counts coordinator egress alone; msgs adds the member-plane
	// forwards and pulls. A loss-free gossip tree moves n−1 envelopes in
	// total, of which the primary sends O(fanout).
	primary := func() uint64 {
		cs := sc.coord.Stats()
		return cs.SeedsSent + cs.DeltasSent + cs.FullViewsSent
	}
	msgs := func() uint64 {
		agg := ClientStats{}
		for _, cl := range sc.clients {
			if cl != nil {
				agg.Add(cl.Stats())
			}
		}
		return primary() + agg.GossipForwards + agg.PullsSent + agg.PullsServed + agg.FullViewRequests
	}
	// converge runs until the coordinator has flushed a version past prev and
	// every live member holds that stamp. Requiring the version to advance
	// keeps the coalesce window (when the old stamp still matches everywhere)
	// from reading as instant convergence.
	converge := func(prev wire.ViewStamp) time.Duration {
		start := sc.nw.Elapsed()
		bound := start + 2*time.Minute
		for sc.coord.Stamp() == prev || !benchConverged(sc, n) {
			if sc.nw.Elapsed() > bound {
				b.Fatalf("view change never converged (n=%d)", n)
			}
			sc.nw.RunFor(20 * time.Millisecond)
		}
		return sc.nw.Elapsed() - start
	}

	var totalMsgs, totalPrim uint64
	var totalConv time.Duration
	views := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// View change 1: the churner leaves gracefully.
		before, primBefore := msgs(), primary()
		prev := sc.coord.Stamp()
		churner.Leave()
		churner.Stop()
		churner = nil
		sc.clients[churnEP] = nil
		sc.views[churnEP] = nil
		totalConv += converge(prev)
		totalMsgs += msgs() - before
		totalPrim += primary() - primBefore

		// View change 2: a fresh client rejoins at the same endpoint (the new
		// SimEnv replaces the old delivery handler).
		before, primBefore = msgs(), primary()
		prev = sc.coord.Stamp()
		env := transport.NewSimEnv(sc.nw, sc.reg, churnEP, int64(1000+i))
		// The coordinator sits at endpoint n in newSimCluster's layout; the
		// sim addressing convention carries the endpoint in the port.
		env.SetPeer(CoordinatorID, netip.AddrPortFrom(netip.AddrFrom4([4]byte{}), uint16(n)))
		cl := NewClient(env, ClientConfig{Heartbeat: 5 * time.Minute},
			func(v *ViewInfo) { sc.views[churnEP] = v })
		env.Bind(func(from wire.NodeID, payload []byte) {
			h, body, err := wire.ParseHeader(payload)
			if err != nil {
				return
			}
			cl.HandlePacket(h, body)
		})
		cl.Start()
		sc.clients[churnEP] = cl
		churner = cl
		totalConv += converge(prev)
		totalMsgs += msgs() - before
		totalPrim += primary() - primBefore
		views += 2
	}
	b.StopTimer()
	if views > 0 {
		b.ReportMetric(float64(totalMsgs)/float64(views), "msgs/view")
		b.ReportMetric(float64(totalPrim)/float64(views), "primsgs/view")
		b.ReportMetric(float64(totalConv.Milliseconds())/float64(views), "convms/view")
	}
}

// benchConverged reports whether every live member holds the coordinator's
// exact view stamp. A nil client slot (the churner mid-swap) is skipped; the
// coordinator must still account for n members when none is departed.
func benchConverged(sc *simCluster, n int) bool {
	want := sc.coord.Stamp()
	members := sc.coord.MemberCount()
	for i, cl := range sc.clients {
		if cl == nil {
			continue
		}
		if sc.views[i] == nil || sc.views[i].Stamp() != want {
			return false
		}
	}
	live := 0
	for _, cl := range sc.clients {
		if cl != nil {
			live++
		}
	}
	return members == live && members >= n-1
}
