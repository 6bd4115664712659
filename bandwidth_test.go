package allpairs

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"allpairs/internal/bwmodel"
	"allpairs/internal/core"
	"allpairs/internal/emul"
	"allpairs/internal/membership"
	"allpairs/internal/metrics"
	"allpairs/internal/probe"
	"allpairs/internal/simnet"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// TestBandwidthLaw holds the overlay's bytes to the paper's law (§6.1) as the
// implementation model (bwmodel.Params) states it: both routers' routing
// bytes at five sizes, the crossover between them, the law's own slopes up
// to n = 10⁴, probing against the paper's 49.1·n, and routing bytes under
// Poisson churn. A regression in round 1 or round 2 bytes fails here.
//
// The law is a steady state, so the routing bytes are measured after one
// full-mesh interval: in its first interval a quorum node's round 2 finds
// only the rows of the clients that ticked before it, and sends as many
// recommendations (about half of one interval's), which no term prices.
func TestBandwidthLaw(t *testing.T) {
	const warmup, measured = 30 * time.Second, 4 * time.Minute
	for _, n := range []int{9, 16, 36, 64, 144} {
		var kbps [2]float64
		for i, alg := range []Algorithm{Quorum, FullMesh} {
			sim, err := NewSimulation(SimOptions{N: n, Algorithm: alg, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(warmup)
			routing := func() (sum uint64) {
				for ep := range n {
					sum += sim.fleet.Col.TotalBytes(ep, wire.CatRouting)
				}
				return sum
			}
			before := routing()
			shares := rowShares(sim.fleet.Net)
			sim.Run(measured)
			kbps[i] = metrics.Kbps(routing()-before, measured) / float64(n)
			at := shares()
			model := at.QuorumRouting(n)
			if alg == FullMesh {
				model = at.FullMeshRouting(n)
			}
			r := kbps[i] * 1000 / model
			t.Logf("n=%d %v: routing %.3f kbps, %.4f× the model at %+v", n, alg, kbps[i], r, at)
			if math.Abs(r-1) > 0.03 {
				t.Errorf("n=%d %v: routing %.3f kbps is %.3f× the model's %.3f at %+v", n, alg, kbps[i], r, model/1000, at)
			}
			if alg == Quorum {
				// The paper's 49.1·n is four 46-byte packets per peer per
				// 30 s; a node probes its n−1 peers with a 61-byte probe and
				// a 69-byte reply, 1.41× that per peer.
				perPeer := sim.ProbingKbps() * 1000 / bwmodel.PaperProbing(n) * float64(n) / float64(n-1)
				if perPeer < 1.39 || perPeer > 1.42 {
					t.Errorf("n=%d: probing %.3f kbps is %.3f× the paper's 49.1·n per peer, want 1.39–1.42×", n, sim.ProbingKbps(), perPeer)
				}
			}
		}
		// The quorum costs less at every size measured, 9 included: the
		// measured crossover lies below 9 members (between 9 and 16 while a
		// pairing's row and recommendation took a datagram each, between 16
		// and 36 while every recommendation went in full).
		if kbps[0] >= kbps[1] {
			t.Errorf("n=%d: quorum %.3f kbps, full mesh %.3f kbps: the quorum should cost less", n, kbps[0], kbps[1])
		}
	}

	// The model's local log–log slopes rise toward the leading terms'
	// exponents: 1.5 for the quorum (n√n), 2 for the full mesh (n²).
	for _, law := range []struct {
		name  string
		f     func(int) float64
		limit float64
	}{
		{"quorum", bwmodel.Params{}.QuorumRouting, 1.5},
		{"full mesh", bwmodel.Params{}.FullMeshRouting, 2},
	} {
		prev := 0.0
		for k := 4; k < 100; k *= 2 { // n = k², so ⌈√n⌉ has no rounding
			n1, n2 := k*k, 4*k*k
			slope := math.Log(law.f(n2)/law.f(n1)) / math.Log(float64(n2)/float64(n1))
			if slope <= prev || slope > law.limit {
				t.Errorf("%s: slope %.4f over n = %d…%d, after %.4f; want rising toward %.1f", law.name, slope, n1, n2, prev, law.limit)
			}
			prev = slope
		}
		if prev < law.limit-0.1 {
			t.Errorf("%s: slope %.4f at n = 10⁴ is not near %.1f", law.name, prev, law.limit)
		}
	}

	// Under churn the churned ratio, at the run's counted shares, is 1 + R/M:
	// M the model's kbps a member at the mean member count, R the remainder
	// it does not price. The grid spans slots, members and the tombstones of
	// departed ones, and crashed members hold their seats until their lease
	// runs out, while the model counts members; it prices no refusal of a
	// row (0.055 a row here) or of a recommendation, and no answer; and the
	// recommendation deltas after an install change more entries than the
	// mean delta it prices. It is an exact count of one seeded run, so any
	// drift is a change of behaviour, and a re-pin names M and R:
	//   - 1.140: M 2.106, R 0.296 kbps, once §4.1's guard ran before an
	//     episode's first recruitment (1.200 before).
	//   - 1.166: rows ride behind recommendations. The run repeats every other
	//     counted share, and Shared is 0.879: M falls 2.106 → 1.566 and the
	//     run's bytes 2.402 → 1.826, so R falls 0.296 → 0.260, for rows to
	//     the slots M does not count ride too.
	const want = 1.166
	r, recDeltas := churnedRoutingVsModel(t)
	t.Logf("churned quorum: %.4f× the model, %.3f of the recommendations as deltas", r, recDeltas)
	if math.Abs(r-want) > 0.002 {
		t.Errorf("churned quorum: routing is %.4f× the model at the mean member count, want %.3f", r, want)
	}
}

// churnedRoutingVsModel runs a 45-member quorum fleet through six minutes of
// Poisson churn — every minute a tenth of the members leave or crash and as
// many join, on the two-minute lease of the churn workloads — and returns its
// routing bytes per member over bwmodel.Params' prediction at the mean member
// count and at the shares of the rows it sent meanwhile (rowShares), and the
// share of its run-form recommendations that went as deltas.
func churnedRoutingVsModel(t *testing.T) (ratio, recDeltas float64) {
	t.Helper()
	const (
		n       = 45
		rate    = 0.1
		minutes = 6
	)
	maxN := n + 2*int(math.Round(rate*n))*minutes + 8
	env := traces.Generate(maxN, 1, traces.Config{BadNodeFrac: 0.0001})
	for a := range env.Loss {
		for b := range env.Loss[a] {
			env.Loss[a][b], env.DownFrac[a][b] = 0, 0
		}
	}
	f := emul.NewDynamicFleet(n, emul.DynamicFleetOptions{
		MaxN:        maxN,
		Seed:        1,
		Env:         env,
		Probe:       probe.Config{RampIntervals: 3},
		Quorum:      core.QuorumConfig{DegradedHold: 10 * 15 * time.Second},
		Membership:  membership.ClientConfig{Heartbeat: 30 * time.Second, JoinRetry: 2 * time.Second},
		Coordinator: membership.CoordinatorConfig{Timeout: 2 * time.Minute, Sweep: 15 * time.Second, Coalesce: time.Second},
	})
	f.Run(3 * time.Minute)
	shares := rowShares(f.Net)
	routing := func() (sum uint64) {
		for ep := range f.Col.N() {
			sum += f.Col.TotalBytes(ep, wire.CatRouting)
		}
		return sum
	}
	before, members := routing(), 0
	rng := rand.New(rand.NewSource(1))
	for range minutes {
		live := f.ActiveEndpoints()
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		leavers := live[:int(rate*float64(len(live))+0.5)]
		for i, ep := range leavers {
			f.Depart(ep, i%2 == 0)
		}
		for range leavers {
			f.Spawn()
		}
		for range 2 {
			f.Run(30 * time.Second)
			members += f.Primary().MemberCount()
		}
	}
	mean := float64(members) / (2 * minutes)
	perMember := metrics.Kbps(routing()-before, minutes*time.Minute) / mean
	at := shares()
	model := at.QuorumRouting(int(mean+0.5)) / 1000
	t.Logf("churned: %.3f kbps per member, M %.3f, R %.3f; %.1f members on average, %d slots at the end, at %+v",
		perMember, model, perMember-model, mean, len(f.Primary().Members()), at)
	return perMember / model, at.RecDeltas
}

// rowShares hooks the link-state rows and the run-form recommendations net
// sends from now on and returns the model's parameters for them: the share
// of the rows that went as deltas, the share of those that carried no entry,
// and the share of a delta's entries that changed, one entry per member a
// row; the share of the recommendations that went as deltas, and the share
// of a delta's named entries that changed; and the share of the rows that
// rode behind a recommendation.
func rowShares(net *simnet.Network) func() bwmodel.Params {
	var rows, deltas, quiet, entries, changed int
	var recs, recDeltas, named, recChanged int
	shared := 0
	count := func(h wire.Header, body []byte) {
		switch h.Type {
		case wire.TLinkStateDelta:
			d, _ := wire.LinkStateDeltaBody(body)
			rows, deltas, entries, changed = rows+1, deltas+1, entries+d.Members, changed+d.Changed
			if d.Changed == 0 {
				quiet++
			}
		case wire.TLinkState:
			rows++
		case wire.TRecommendation:
			if r, err := wire.RecommendationBody(body); err == nil && r.ByRun {
				recs++
				if r.Delta {
					recDeltas, named, recChanged = recDeltas+1, named+r.Named, recChanged+r.Carried
				}
			}
		}
	}
	account := net.OnSend
	net.OnSend = func(from, to int, p []byte) {
		account(from, to, p)
		h, body, err := wire.ParseHeader(p)
		if err != nil {
			return
		}
		if h.Type == wire.TRecommendation {
			if rec, rowType, row, err := wire.SplitRecommendation(body, wire.TLinkState); err == nil && row != nil {
				count(wire.Header{Type: rowType, Src: h.Src}, row)
				body, shared = rec, shared+1
			}
		}
		count(h, body)
	}
	return func() bwmodel.Params {
		return bwmodel.Params{
			Deltas:     float64(deltas) / float64(max(rows, 1)),
			Quiet:      float64(quiet) / float64(max(deltas, 1)),
			Changed:    float64(changed) / float64(max(entries, 1)),
			RecDeltas:  float64(recDeltas) / float64(max(recs, 1)),
			RecChanged: float64(recChanged) / float64(max(named, 1)),
			Shared:     float64(shared) / float64(max(rows, 1)),
		}
	}
}
