package bwmodel

import (
	"math"
	"testing"
	"time"
)

// The paper's §6.1 spot-check: at 140 nodes, full-mesh routing traffic is
// 34.8 Kbps and quorum routing traffic is 15.3 Kbps.
func TestPaperModel140Nodes(t *testing.T) {
	mesh := PaperFullMeshRouting(140) / 1000
	if math.Abs(mesh-34.8) > 0.1 {
		t.Errorf("full-mesh @140 = %.2f Kbps, paper says 34.8", mesh)
	}
	quorum := PaperQuorumRouting(140) / 1000
	if math.Abs(quorum-15.3) > 0.1 {
		t.Errorf("quorum @140 = %.2f Kbps, paper says 15.3", quorum)
	}
}

// §1: "a RON with 56Kbps of probing and routing traffic ... from 165 to 300
// nodes".
func TestPaperCapacityClaim56Kbps(t *testing.T) {
	mesh := PaperCapacityFullMesh(56_000)
	if mesh < 160 || mesh > 170 {
		t.Errorf("full-mesh capacity @56Kbps = %d, paper says ~165", mesh)
	}
	quorum := PaperCapacityQuorum(56_000)
	if quorum < 290 || quorum > 310 {
		t.Errorf("quorum capacity @56Kbps = %d, paper says ~300", quorum)
	}
	if float64(quorum)/float64(mesh) < 1.7 {
		t.Errorf("capacity gain %d/%d below the paper's ~2x", quorum, mesh)
	}
}

// §1: "an overlay running at each of the 416 PlanetLab sites would consume
// 86Kbps ... using prior systems ... 307Kbps".
func TestPaperPlanetLab416Claim(t *testing.T) {
	mesh := PaperTotal(416, false) / 1000
	if math.Abs(mesh-307) > 2 {
		t.Errorf("full-mesh @416 = %.1f Kbps, paper says 307", mesh)
	}
	quorum := PaperTotal(416, true) / 1000
	if math.Abs(quorum-86) > 2 {
		t.Errorf("quorum @416 = %.1f Kbps, paper says 86", quorum)
	}
}

func TestPaperProbingLinear(t *testing.T) {
	if PaperProbing(100) != 4910 {
		t.Errorf("probing(100) = %v", PaperProbing(100))
	}
	if PaperProbing(200) != 2*PaperProbing(100) {
		t.Error("probing not linear")
	}
}

func TestImplementationModelTracksPaperShape(t *testing.T) {
	// The first-principles model with our wire sizes should stay within a
	// modest constant factor of the paper's published model across scales —
	// same asymptotics, slightly different constants (the run form's 4-byte
	// entries plus its bitmap, different fixed headers).
	var p Params
	for _, n := range []int{25, 64, 140, 256, 400} {
		ratioQ := p.QuorumRouting(n) / PaperQuorumRouting(n)
		if ratioQ < 0.5 || ratioQ > 2.0 {
			t.Errorf("quorum model ratio @%d = %.2f", n, ratioQ)
		}
		ratioM := p.FullMeshRouting(n) / PaperFullMeshRouting(n)
		if ratioM < 0.5 || ratioM > 2.0 {
			t.Errorf("full-mesh model ratio @%d = %.2f", n, ratioM)
		}
	}
}

func TestCrossoverAlwaysFavorsQuorumAtScale(t *testing.T) {
	// Figure 9: the curves cross near n≈40-50; beyond that the quorum
	// algorithm must win for every n, under both models.
	var p Params
	for n := 60; n <= 1000; n += 10 {
		if PaperQuorumRouting(n) >= PaperFullMeshRouting(n) {
			t.Errorf("paper model: quorum not cheaper at n=%d", n)
		}
		if p.QuorumRouting(n) >= p.FullMeshRouting(n) {
			t.Errorf("impl model: quorum not cheaper at n=%d", n)
		}
	}
	// And the crossover itself exists at small n: full mesh is at least
	// competitive somewhere below 50.
	crossed := false
	for n := 4; n <= 50; n++ {
		if PaperFullMeshRouting(n) <= PaperQuorumRouting(n) {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("no small-n region where full mesh is competitive; Figure 9's crossover shape lost")
	}
}

func TestQuorumDegree(t *testing.T) {
	cases := map[int]int{1: 0, 4: 2, 9: 4, 16: 6, 25: 8, 140: 22, 144: 22}
	for n, want := range cases {
		if got := QuorumDegree(n); got != want {
			t.Errorf("QuorumDegree(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCapacityMonotone(t *testing.T) {
	prev := 0
	for _, budget := range []float64{10_000, 56_000, 100_000, 500_000} {
		c := PaperCapacityQuorum(budget)
		if c <= prev {
			t.Errorf("capacity not increasing: %d at %.0f", c, budget)
		}
		prev = c
	}
	// A budget below the cost of a 2-node overlay yields 1.
	if c := Capacity(1, func(n int) float64 { return float64(n * 1000) }); c != 1 {
		t.Errorf("tiny budget capacity = %d", c)
	}
}

func TestParamsIntervalScaling(t *testing.T) {
	// Halving the routing interval doubles routing traffic.
	a := Params{QuorumInterval: 15 * time.Second}
	b := Params{QuorumInterval: 30 * time.Second}
	ra := a.QuorumRouting(100)
	rb := b.QuorumRouting(100)
	if math.Abs(ra-2*rb) > 1e-6 {
		t.Errorf("interval scaling wrong: %v vs %v", ra, rb)
	}
}

// TestSharedRowsHalveTheOverheadTerm: with every row riding behind a
// recommendation (Shared 1) a pairing pays one packet overhead an interval
// each way, not two, so the term the overhead buys, 4k·46 bytes an interval
// in the paper's law (196.3·√n), halves to 2k·46 (≈ 98·√n), and each row
// sheds its 2-byte source ID as well.
func TestSharedRowsHalveTheOverheadTerm(t *testing.T) {
	const perInterval = 8 / 15.0 // bits a byte, a byte an interval, in bps
	for _, n := range []int{16, 144, 1024} {
		k := float64(QuorumDegree(n))
		perByte := func(p Params) float64 { // bps one more byte of overhead costs
			q := p
			q.Overhead++
			return q.QuorumRouting(n) - p.QuorumRouting(n)
		}
		paper, shared := perByte(Params{Overhead: 46}), perByte(Params{Overhead: 46, Shared: 1})
		if math.Abs(paper-4*k*perInterval) > 1e-9 || math.Abs(shared-2*k*perInterval) > 1e-9 {
			t.Errorf("n=%d: a byte of overhead costs %.4f bps with rows alone and %.4f riding, want %.4f and %.4f", n, paper, shared, 4*k*perInterval, 2*k*perInterval)
		}
		saved := Params{}.QuorumRouting(n) - Params{Shared: 1}.QuorumRouting(n)
		if want := 2 * k * (46 + 2) * perInterval; math.Abs(saved-want) > 1e-9 {
			t.Errorf("n=%d: riding rows save %.3f bps, want %.3f", n, saved, want)
		}
	}
	// 4k·46 bytes an interval at k = 2√n is the paper's √n coefficient.
	if c := 4 * 2 * 46 * perInterval; math.Abs(c-196.3) > 0.05 {
		t.Errorf("the overhead term reads %.2f·√n, the paper's is 196.3·√n", c)
	}
}
