// Package traces generates the synthetic PlanetLab-like network environments
// that substitute for the paper's measurement data (the 2005 all-pairs-ping
// dataset behind Figure 1 and the 2008 140-node deployment behind Figures
// 8–14). The rest of this comment is the substitution rationale.
//
// The latency model is geographic: sites are clustered around a handful of
// world regions, base RTT grows with distance, and a heavy tail of inflated
// paths models circuitous Internet routes. This yields the two properties
// Figure 1 depends on: a population of high-latency direct paths, and
// one-hop detours whose quality is concentrated in a few geographically
// well-placed intermediaries.
//
// The failure model is heterogeneous: each node draws a "badness" level, and
// a link's long-run down-fraction grows with the badness of its endpoints.
// This reproduces Figure 8's shape — most nodes see few concurrent link
// failures, a few poorly connected nodes see many.
package traces

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Env is a synthetic network environment: static latency/loss matrices plus
// the per-link failure intensity from which failure schedules are drawn.
type Env struct {
	// N is the number of nodes.
	N int
	// LatencyMS[i][j] is the round-trip latency in milliseconds (symmetric,
	// zero diagonal).
	LatencyMS [][]float64
	// Loss[i][j] is the per-packet loss probability (symmetric).
	Loss [][]float64
	// DownFrac[i][j] is the long-run fraction of time the link is failed
	// (symmetric).
	DownFrac [][]float64
	// Badness[i] is the node's connectivity badness in [0, 1); it drives
	// DownFrac and identifies the "poorly connected" nodes of Figures 13/14.
	Badness []float64
	// Site[i] is the node's site index (nodes at one site are co-located).
	Site []int
}

// LinkEvent is one scheduled link transition in a failure schedule.
type LinkEvent struct {
	At   time.Duration
	A, B int
	Down bool
}

// Config tunes the generator. Zero values take PlanetLab-like defaults.
type Config struct {
	// Sites is the number of distinct sites (default max(n/2, 1)).
	Sites int
	// InflateFrac is the fraction of otherwise-healthy pairs with a
	// circuitous route (default 0.01).
	InflateFrac float64
	// BadNodeFrac is the fraction of nodes with very poor connectivity
	// (default 0.05).
	BadNodeFrac float64
}

// The generator's fixed PlanetLab-like parameters.
const (
	// remoteFrac is the fraction of nodes with chronically circuitous
	// routing: all their paths carry a large absolute detour penalty except
	// through a handful of nearby gateway nodes. This concentration of good
	// detours in few intermediaries is the property behind Figure 1's
	// "excluding top n%" curves.
	remoteFrac = 0.07
	// gatewayMin and gatewayMax bound how many gateway nodes a remote node
	// has (whether a pair's detours survive a top-3% exclusion depends on
	// this count).
	gatewayMin, gatewayMax = 2, 18
	// inflateMin and inflateMax bound a circuitous route's inflation factor.
	inflateMin, inflateMax = 4.0, 10.0
	// meanDown is the mean duration of a link failure episode in
	// FailureSchedule.
	meanDown = 90 * time.Second
	// baseLoss is the background per-packet loss probability.
	baseLoss = 0.002
)

func (c *Config) fill(n int) {
	if c.Sites <= 0 {
		c.Sites = n/2 + 1
	}
	if c.InflateFrac <= 0 {
		c.InflateFrac = 0.01
	}
	if c.BadNodeFrac <= 0 {
		c.BadNodeFrac = 0.05
	}
}

// region centers on an abstract 2D map scaled so that cross-world base RTTs
// land in the 150–330 ms range, like transcontinental Internet paths.
var regions = []struct {
	x, y   float64
	weight float64
}{
	{0, 0, 0.35},     // North America
	{95, 12, 0.30},   // Europe
	{205, 30, 0.20},  // Asia
	{50, 135, 0.08},  // South America
	{250, 150, 0.07}, // Oceania
}

// PlanetLab generates an n-node environment with the given seed and default
// configuration.
func PlanetLab(n int, seed int64) *Env {
	return Generate(n, seed, Config{})
}

// Generate builds an environment from an explicit configuration. The result
// is deterministic in (n, seed, cfg).
func Generate(n int, seed int64, cfg Config) *Env {
	if n < 1 {
		panic(fmt.Sprintf("traces: n = %d", n))
	}
	cfg.fill(n)
	rng := rand.New(rand.NewSource(seed))

	e := &Env{
		N:         n,
		LatencyMS: newMatrix(n),
		Loss:      newMatrix(n),
		DownFrac:  newMatrix(n),
		Badness:   make([]float64, n),
		Site:      make([]int, n),
	}

	// Place sites.
	sx := make([]float64, cfg.Sites)
	sy := make([]float64, cfg.Sites)
	for s := 0; s < cfg.Sites; s++ {
		r := pickRegion(rng)
		sx[s] = regions[r].x + rng.NormFloat64()*18
		sy[s] = regions[r].y + rng.NormFloat64()*18
	}
	// Assign nodes to sites and draw per-node properties.
	access := make([]float64, n) // access-link delay contribution
	remote := make([]float64, n) // inflation severity; 0 = normal routing
	for i := 0; i < n; i++ {
		e.Site[i] = rng.Intn(cfg.Sites)
		access[i] = 1 + rng.ExpFloat64()*6
		if rng.Float64() < remoteFrac {
			// Absolute detour penalty (ms): a chronically circuitous route
			// adds path length, it does not scale with the destination.
			remote[i] = 250 + 650*rng.Float64()
		}
		switch {
		case rng.Float64() < cfg.BadNodeFrac:
			e.Badness[i] = 0.15 + 0.3*rng.Float64() // poorly connected
		case rng.Float64() < 0.10:
			e.Badness[i] = 0.03 + 0.07*rng.Float64() // mediocre
		default:
			e.Badness[i] = 0.002 + 0.015*rng.Float64() // healthy
		}
	}
	// Guarantee the poorly connected population Figures 8/11/13/14 depend
	// on: if the random draw produced fewer than the configured fraction,
	// promote random nodes.
	if want := int(cfg.BadNodeFrac*float64(n) + 0.5); want > 0 {
		have := 0
		for _, b := range e.Badness {
			if b >= 0.15 {
				have++
			}
		}
		for have < want {
			i := rng.Intn(n)
			if e.Badness[i] < 0.15 {
				e.Badness[i] = 0.15 + 0.3*rng.Float64()
				have++
			}
		}
	}
	// Remote nodes escape their bad routing only through a few nearby,
	// normally-routed gateway nodes (think: the one well-peered host in the
	// region). Gateways are drawn from the nearest third of healthy nodes.
	gateways := pickGateways(rng, n, remote, e.Site, sx, sy)

	// Pairwise latencies: distance + access + jitter, with a heavy tail of
	// inflated (circuitously routed) paths.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var rtt float64
			if e.Site[i] == e.Site[j] {
				rtt = 0.5 + rng.Float64()*3
			} else {
				dx := sx[e.Site[i]] - sx[e.Site[j]]
				dy := sy[e.Site[i]] - sy[e.Site[j]]
				dist := math.Hypot(dx, dy)
				rtt = 1.55*dist + access[i] + access[j] + rng.Float64()*8
				if rng.Float64() < cfg.InflateFrac {
					rtt *= inflateMin + rng.Float64()*(inflateMax-inflateMin)
				}
				// Remote endpoints pay their detour penalty except through
				// their gateways; penalties stack when both ends are remote.
				if remote[i] > 0 && !gateways[i][j] {
					rtt += remote[i]
				}
				if remote[j] > 0 && !gateways[j][i] {
					rtt += remote[j]
				}
			}
			if rtt > 1800 {
				rtt = 1800
			}
			e.LatencyMS[i][j], e.LatencyMS[j][i] = rtt, rtt

			loss := baseLoss * (1 + rng.ExpFloat64())
			if rng.Float64() < 0.05 {
				loss += 0.02 + 0.08*rng.Float64() // chronically lossy path
			}
			if loss > 0.3 {
				loss = 0.3
			}
			e.Loss[i][j], e.Loss[j][i] = loss, loss

			down := (e.Badness[i] + e.Badness[j]) * 0.65
			if down > 0.9 {
				down = 0.9
			}
			e.DownFrac[i][j], e.DownFrac[j][i] = down, down
		}
	}
	return e
}

// pickGateways selects, for each remote node, its gateway set: nearby
// non-remote nodes whose paths to the node are normally routed.
func pickGateways(rng *rand.Rand, n int, remote []float64, site []int, sx, sy []float64) []map[int]bool {
	gw := make([]map[int]bool, n)
	type cand struct {
		node int
		dist float64
	}
	for i := 0; i < n; i++ {
		if remote[i] == 0 {
			continue
		}
		var cands []cand
		for j := 0; j < n; j++ {
			if j == i || remote[j] > 0 {
				continue
			}
			dx := sx[site[i]] - sx[site[j]]
			dy := sy[site[i]] - sy[site[j]]
			cands = append(cands, cand{j, math.Hypot(dx, dy)})
		}
		if len(cands) == 0 {
			continue
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
		pool := len(cands) / 3
		if pool < gatewayMax {
			pool = min(len(cands), gatewayMax)
		}
		k := gatewayMin + rng.Intn(gatewayMax-gatewayMin+1)
		if k > pool {
			k = pool
		}
		gw[i] = make(map[int]bool, k)
		for len(gw[i]) < k {
			gw[i][cands[rng.Intn(pool)].node] = true
		}
	}
	return gw
}

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

func pickRegion(rng *rand.Rand) int {
	x := rng.Float64()
	for i, r := range regions {
		if x < r.weight {
			return i
		}
		x -= r.weight
	}
	return len(regions) - 1
}

// FailureSchedule draws a deterministic sequence of link up/down transitions
// over the given duration from the environment's per-link down fractions,
// using a two-state continuous-time process with mean failure episode
// meanDown. Events are returned in time order.
func (e *Env) FailureSchedule(duration time.Duration, seed int64) []LinkEvent {
	rng := rand.New(rand.NewSource(seed))
	var events []LinkEvent
	for a := 0; a < e.N; a++ {
		for b := a + 1; b < e.N; b++ {
			f := e.DownFrac[a][b]
			if f <= 0 {
				continue
			}
			if f >= 1 {
				events = append(events, LinkEvent{At: 0, A: a, B: b, Down: true})
				continue
			}
			// Mean up duration so that the stationary down fraction is f.
			meanUp := time.Duration(float64(meanDown) * (1 - f) / f)
			t := time.Duration(0)
			down := rng.Float64() < f // stationary start
			if down {
				events = append(events, LinkEvent{At: 0, A: a, B: b, Down: true})
			}
			for t < duration {
				var hold time.Duration
				if down {
					hold = expDuration(rng, meanDown)
				} else {
					hold = expDuration(rng, meanUp)
				}
				t += hold
				if t >= duration {
					break
				}
				down = !down
				events = append(events, LinkEvent{At: t, A: a, B: b, Down: down})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < time.Second {
		d = time.Second
	}
	return d
}

func (e *Env) WellConnected() int {
	best := 0
	for i, b := range e.Badness {
		if b < e.Badness[best] {
			best = i
		}
	}
	return best
}

// PoorlyConnected returns the index of the node with the highest badness,
// the subject of Figure 14.
func (e *Env) PoorlyConnected() int {
	worst := 0
	for i, b := range e.Badness {
		if b > e.Badness[worst] {
			worst = i
		}
	}
	return worst
}
