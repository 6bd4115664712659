package traces

import (
	"testing"
	"time"
)

func TestGenerateDeterministic(t *testing.T) {
	a := PlanetLab(50, 42)
	b := PlanetLab(50, 42)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if a.LatencyMS[i][j] != b.LatencyMS[i][j] || a.Loss[i][j] != b.Loss[i][j] {
				t.Fatalf("non-deterministic at (%d,%d)", i, j)
			}
		}
	}
	c := PlanetLab(50, 43)
	same := true
	for i := 0; i < 50 && same; i++ {
		for j := 0; j < 50; j++ {
			if a.LatencyMS[i][j] != c.LatencyMS[i][j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical environments")
	}
}

func TestMatricesWellFormed(t *testing.T) {
	e := PlanetLab(80, 7)
	for i := 0; i < e.N; i++ {
		if e.LatencyMS[i][i] != 0 || e.Loss[i][i] != 0 || e.DownFrac[i][i] != 0 {
			t.Errorf("nonzero diagonal at %d", i)
		}
		for j := 0; j < e.N; j++ {
			if e.LatencyMS[i][j] != e.LatencyMS[j][i] {
				t.Errorf("asymmetric latency (%d,%d)", i, j)
			}
			if i != j && (e.LatencyMS[i][j] <= 0 || e.LatencyMS[i][j] > 1800) {
				t.Errorf("latency out of range: %f", e.LatencyMS[i][j])
			}
			if e.Loss[i][j] < 0 || e.Loss[i][j] > 0.3 {
				t.Errorf("loss out of range: %f", e.Loss[i][j])
			}
			if e.DownFrac[i][j] < 0 || e.DownFrac[i][j] > 0.9 {
				t.Errorf("down fraction out of range: %f", e.DownFrac[i][j])
			}
		}
	}
}

func TestHighLatencyPathsExist(t *testing.T) {
	// Figure 1's population: the paper found 2656 of ~64k pairs above 400 ms
	// (≈4%). The generator must produce a comparable heavy tail.
	e := PlanetLab(359, 1)
	high := 0
	total := 0
	for i := 0; i < e.N; i++ {
		for j := i + 1; j < e.N; j++ {
			total++
			if e.LatencyMS[i][j] > 400 {
				high++
			}
		}
	}
	frac := float64(high) / float64(total)
	if frac < 0.01 || frac > 0.20 {
		t.Errorf("high-latency fraction = %.3f, want a few percent", frac)
	}
}

func TestDetoursRescueHighLatencyPaths(t *testing.T) {
	// For a meaningful share of >400 ms pairs, some one-hop detour must beat
	// 400 ms — the precondition for Figure 1's "Best 1-Hop" curve.
	e := PlanetLab(200, 2)
	rescued, high := 0, 0
	for i := 0; i < e.N; i++ {
		for j := i + 1; j < e.N; j++ {
			if e.LatencyMS[i][j] <= 400 {
				continue
			}
			high++
			for h := 0; h < e.N; h++ {
				if h == i || h == j {
					continue
				}
				if e.LatencyMS[i][h]+e.LatencyMS[h][j] < 400 {
					rescued++
					break
				}
			}
		}
	}
	if high == 0 {
		t.Fatal("no high-latency pairs generated")
	}
	if frac := float64(rescued) / float64(high); frac < 0.25 {
		t.Errorf("only %.2f of high-latency pairs have a sub-400ms detour", frac)
	}
}

func TestBadnessHeterogeneity(t *testing.T) {
	e := PlanetLab(140, 3)
	bad, healthy := 0, 0
	for _, b := range e.Badness {
		if b >= 0.15 {
			bad++
		}
		if b < 0.02 {
			healthy++
		}
	}
	if bad == 0 {
		t.Error("no poorly connected nodes")
	}
	if healthy < 70 {
		t.Errorf("only %d healthy nodes of 140", healthy)
	}
	wc, pc := e.WellConnected(), e.PoorlyConnected()
	if e.Badness[wc] >= e.Badness[pc] {
		t.Error("well-connected node is worse than poorly-connected one")
	}
	// Figure 8 shape: expected concurrent failures mostly small, with a tail.
	exp := make([]float64, e.N)
	over40 := 0
	for i := range exp {
		exp[i] = e.ExpectedConcurrentFailures(i)
		if exp[i] > 40 {
			over40++
		}
	}
	if over40 > e.N/5 {
		t.Errorf("%d of %d nodes expect >40 concurrent failures; tail too heavy", over40, e.N)
	}
	if e.ExpectedConcurrentFailures(pc) < e.ExpectedConcurrentFailures(wc) {
		t.Error("poorly connected node expects fewer failures than well connected")
	}
}

func TestFailureScheduleStatistics(t *testing.T) {
	e := PlanetLab(30, 5)
	dur := 2 * time.Hour
	events := e.FailureSchedule(dur, 99)
	if len(events) == 0 {
		t.Fatal("no failure events")
	}
	// Events sorted and within range.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("events out of order")
		}
	}
	for _, ev := range events {
		if ev.At < 0 || ev.At >= dur {
			t.Errorf("event at %v outside run", ev.At)
		}
		if ev.A >= ev.B || ev.B >= e.N {
			t.Errorf("bad endpoints (%d,%d)", ev.A, ev.B)
		}
	}
	// Replay one pair's events: measured down-time should be near the
	// configured stationary fraction (loose bounds; it's a random draw).
	a, b := e.worstPair()
	want := e.DownFrac[a][b]
	var downAt time.Duration
	var total time.Duration
	down := false
	last := time.Duration(0)
	for _, ev := range events {
		if ev.A != a || ev.B != b {
			continue
		}
		if down {
			total += ev.At - last
		}
		down = ev.Down
		last = ev.At
	}
	if down {
		total += dur - last
	}
	downAt = total
	got := float64(downAt) / float64(dur)
	if got < want/4 || got > want*4+0.05 {
		t.Errorf("pair (%d,%d): measured down fraction %.3f, configured %.3f", a, b, got, want)
	}
}

// worstPair returns the pair with the highest down fraction.
func (e *Env) worstPair() (int, int) {
	wa, wb := 0, 1
	for i := 0; i < e.N; i++ {
		for j := i + 1; j < e.N; j++ {
			if e.DownFrac[i][j] > e.DownFrac[wa][wb] {
				wa, wb = i, j
			}
		}
	}
	return wa, wb
}

func TestGeneratePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for n=0")
		}
	}()
	PlanetLab(0, 1)
}

func TestSitesShareLowLatency(t *testing.T) {
	e := Generate(100, 11, Config{Sites: 20})
	found := false
	for i := 0; i < e.N && !found; i++ {
		for j := i + 1; j < e.N; j++ {
			if e.Site[i] == e.Site[j] {
				found = true
				if e.LatencyMS[i][j] > 5 {
					t.Errorf("co-located pair (%d,%d) has RTT %.1f ms", i, j, e.LatencyMS[i][j])
				}
				break
			}
		}
	}
	if !found {
		t.Skip("no co-located pair drawn")
	}
}

// ExpectedConcurrentFailures returns the expected number of concurrently
// failed links for node i under the stationary failure model — the
// analytical counterpart of Figure 8's per-node mean.
func (e *Env) ExpectedConcurrentFailures(i int) float64 {
	var s float64
	for j := 0; j < e.N; j++ {
		if j != i {
			s += e.DownFrac[i][j]
		}
	}
	return s
}
