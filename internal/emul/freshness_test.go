package emul

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
)

// TestDeploymentFreshnessGolden pins the Figure 12–14 output of a small
// deployment run: every pair's freshness summary and the two subject nodes'
// per-destination summaries, bit for bit. A change to how route ages are
// sampled or summarized must leave this hash alone unless it means to move
// the figures. The value was captured while a route-update hook fed a
// separate n×n clock; reading the route table's own stamps reproduces it. It
// was re-captured when recommendations began travelling as deltas: on the
// deployment's lossy links a refused delta's unchanged entries are
// re-installed a round trip later, by the answer. It was re-captured again
// when a pairing's row began riding behind its recommendation: a lost
// datagram now takes both, and the network's loss draws fall on other
// datagrams.
func TestDeploymentFreshnessGolden(t *testing.T) {
	res := RunDeployment(DeploymentOptions{N: 36, Seed: 1, Duration: 10 * time.Minute})
	h := sha256.New()
	var buf [8]byte
	for _, set := range [][]PairStats{res.Pairs, res.WellStats, res.PoorStats} {
		binary.BigEndian.PutUint64(buf[:], uint64(len(set)))
		h.Write(buf[:])
		for _, p := range set {
			binary.BigEndian.PutUint32(buf[:4], uint32(p.Src))
			binary.BigEndian.PutUint32(buf[4:], uint32(p.Dst))
			h.Write(buf[:])
			for _, v := range [...]float64{p.Median, p.Mean, p.P97, p.Max} {
				binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	const want = "71a62a93606106b4"
	if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want {
		t.Errorf("freshness hash = %s, want %s", got, want)
	}
}

func TestRouteAgesSample(t *testing.T) {
	f := NewFleet(FleetOptions{N: 3, Seed: 1})
	ages := newRouteAges(3)
	// Nothing is learned yet: every pair reads its age since start.
	ages.sample(f, f.Start().Add(-30*time.Second))
	f.Run(time.Minute)
	ages.sample(f, f.Start())
	for s, node := range f.Nodes {
		for d, e := range node.Router().Routes() {
			got := ages.samples[s*3+d]
			if s == d {
				if len(got) != 0 {
					t.Errorf("self pair %d sampled: %v", s, got)
				}
				continue
			}
			if e.When.IsZero() {
				t.Fatalf("no route %d→%d after a minute", s, d)
			}
			want := []float64{30, f.Net.Now().Sub(e.When).Seconds()}
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Errorf("samples(%d,%d) = %v, want %v", s, d, got, want)
			}
		}
	}
}

func TestRouteAgesStats(t *testing.T) {
	ages := newRouteAges(2)
	ages.samples[0*2+1] = []float64{1, 2, 3, 100}
	all := ages.stats()
	if len(all) != 1 {
		t.Fatalf("stats len = %d", len(all))
	}
	st := all[0]
	if st.Src != 0 || st.Dst != 1 {
		t.Errorf("pair = (%d,%d)", st.Src, st.Dst)
	}
	if st.Median != 2.5 || st.Max != 100 || math.Abs(st.Mean-26.5) > 1e-9 {
		t.Errorf("stats = %+v", st)
	}
	if st.P97 != 100 {
		t.Errorf("p97 = %v", st.P97)
	}
	if node := pairsFrom(all, 0); len(node) != 1 || node[0].Max != 100 {
		t.Errorf("pairsFrom(0) = %+v", node)
	}
	if got := pairsFrom(all, 1); len(got) != 0 {
		t.Errorf("pairsFrom(1) = %+v", got)
	}
}

func TestSummarizeOddEven(t *testing.T) {
	if got := summarize(0, 1, []float64{5}); got != (PairStats{Src: 0, Dst: 1, Median: 5, Mean: 5, P97: 5, Max: 5}) {
		t.Errorf("single sample: %+v", got)
	}
	if got := summarize(0, 1, []float64{4, 1, 3, 2}); got.Median != 2.5 || got.Mean != 2.5 || got.Max != 4 {
		t.Errorf("even: %+v", got)
	}
	if got := summarize(0, 1, []float64{3, 1, 2}); got.Median != 2 || got.Max != 3 {
		t.Errorf("odd: %+v", got)
	}
}
