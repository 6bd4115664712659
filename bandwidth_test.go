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
// bytes at four sizes, the crossover between them, the law's own slopes up
// to n = 10⁴, probing against the paper's 49.1·n, and routing bytes under
// Poisson churn. A regression in round 1 or round 2 bytes fails here.
func TestBandwidthLaw(t *testing.T) {
	const measured = 4 * time.Minute
	for _, n := range []int{16, 36, 64, 144} {
		var kbps [2]float64
		for i, alg := range []Algorithm{Quorum, FullMesh} {
			sim, err := NewSimulation(SimOptions{N: n, Algorithm: alg, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			share := changeShare(sim.fleet.Net)
			sim.Run(measured)
			kbps[i] = sim.RoutingKbps()
			at := bwmodel.Params{Changed: share()}
			model := at.QuorumRouting(n)
			if alg == FullMesh {
				model = at.FullMeshRouting(n)
			}
			r := kbps[i] * 1000 / model
			t.Logf("n=%d %v: routing %.3f kbps, %.4f× the model at change share %.4f", n, alg, kbps[i], r, at.Changed)
			if math.Abs(r-1) > 0.03 {
				t.Errorf("n=%d %v: routing %.3f kbps is %.3f× the model's %.3f at change share %.4f", n, alg, kbps[i], r, model/1000, at.Changed)
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
		// The measured crossover lies between 16 and 36 members.
		if quorumAbove := kbps[0] > kbps[1]; quorumAbove != (n == 16) {
			t.Errorf("n=%d: quorum %.3f kbps, full mesh %.3f kbps: quorum should cost more only at 16", n, kbps[0], kbps[1])
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

	// Under churn the grid spans slots, members and the tombstones of
	// departed ones, while the model counts members: the churned ratio, at the
	// run's change share, reads how many tombstones the grid still spans. It
	// is an exact count of one seeded run, so any drift is a change of
	// behaviour. Most of what is left above 1 is crashed members, who hold
	// their seats until their lease runs out.
	const want = 1.092
	if r := churnedRoutingVsModel(t); math.Abs(r-want) > 0.002 {
		t.Errorf("churned quorum: routing is %.4f× the model at the mean member count, want %.3f", r, want)
	}
}

// churnedRoutingVsModel runs a 45-member quorum fleet through six minutes of
// Poisson churn — every minute a tenth of the members leave or crash and as
// many join, on the two-minute lease of the churn workloads — and returns its
// routing bytes per member over bwmodel.Params' prediction at the mean member
// count and at the change share of the rows it sent meanwhile.
func churnedRoutingVsModel(t *testing.T) float64 {
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
	changed := changeShare(f.Net)
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
	share := changed()
	t.Logf("churned: %.3f kbps per member, %.1f members on average, %d slots at the end, change share %.4f", perMember, mean, len(f.Primary().Members()), share)
	return perMember * 1000 / bwmodel.Params{Changed: share}.QuorumRouting(int(mean+0.5))
}

// changeShare hooks the link-state rows net sends from now on and returns
// the share of their entries they carry, one entry per member a row: all of
// a full row's, the changed ones of a delta's. It is the change share
// bwmodel.Params reads.
func changeShare(net *simnet.Network) func() float64 {
	var entries, carried int
	account := net.OnSend
	net.OnSend = func(from, to int, p []byte) {
		account(from, to, p)
		h, body, err := wire.ParseHeader(p)
		switch {
		case err != nil:
		case h.Type == wire.TLinkStateDelta:
			d, _ := wire.LinkStateDeltaBody(body)
			entries, carried = entries+d.Members, carried+d.Changed
		case h.Type == wire.TLinkState:
			_, _, row, _ := wire.LinkStateBody(h.Type, body)
			entries, carried = entries+len(row)/wire.LinkEntryLen, carried+len(row)/wire.LinkEntryLen
		}
	}
	return func() float64 { return float64(carried) / float64(max(entries, 1)) }
}
