package allpairs

import (
	"fmt"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/emul"
	"allpairs/internal/metrics"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// SimOptions configures an in-process simulated overlay.
type SimOptions struct {
	// N is the number of overlay nodes (node IDs are 0..N-1).
	N int
	// Algorithm selects Quorum (default) or FullMesh routing.
	Algorithm Algorithm
	// Seed makes the simulation deterministic (default 1).
	Seed int64
	// LatencyMS supplies the round-trip latency matrix in milliseconds. Nil
	// uses a synthetic PlanetLab-like environment; see GeneratePlanetLab.
	LatencyMS [][]float64
	// LossRate supplies per-link packet loss probabilities (optional).
	LossRate [][]float64
	// RoutingInterval overrides the routing interval r (default: 15 s for
	// Quorum, 30 s for FullMesh, per the paper's configuration).
	RoutingInterval time.Duration
	// ProbeInterval overrides the probing interval p (default 30 s).
	ProbeInterval time.Duration
	// Asymmetric enables the footnote 2 variant: one-way latencies are
	// measured from probe timestamps and routing is computed per direction.
	// Use OneWayLatencyMS to supply a directional matrix; otherwise each
	// direction gets half the (symmetric) RTT.
	Asymmetric bool
	// OneWayLatencyMS optionally supplies directed one-way latencies in
	// milliseconds; entry [i][j] is the i→j delay. Implies Asymmetric.
	OneWayLatencyMS [][]float64
}

// Simulation is a deterministic in-process overlay: N protocol-faithful
// nodes on a virtual-time network. It is single-threaded; methods must not
// be called concurrently.
type Simulation struct {
	fleet *emul.Fleet
	env   *traces.Env
}

// NewSimulation builds and starts a simulated overlay.
func NewSimulation(opt SimOptions) (*Simulation, error) {
	if opt.N < 2 {
		return nil, fmt.Errorf("allpairs: need at least 2 nodes, got %d", opt.N)
	}
	if opt.N > wire.MaxSlots {
		return nil, fmt.Errorf("allpairs: %d nodes exceed the wire's ceiling of %d", opt.N, wire.MaxSlots)
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	env := traces.PlanetLab(opt.N, opt.Seed)
	// A user-provided matrix replaces the synthetic one; failures are left
	// to explicit injection via FailLink/FailNode.
	if opt.LatencyMS != nil {
		if len(opt.LatencyMS) != opt.N {
			return nil, fmt.Errorf("allpairs: latency matrix is %dx?, want %dx%d", len(opt.LatencyMS), opt.N, opt.N)
		}
		env.LatencyMS = opt.LatencyMS
	}
	if opt.LossRate != nil {
		env.Loss = opt.LossRate
	} else {
		for a := 0; a < opt.N; a++ {
			for b := 0; b < opt.N; b++ {
				env.Loss[a][b] = 0
			}
		}
	}

	asym := opt.Asymmetric || opt.OneWayLatencyMS != nil
	fo := emul.FleetOptions{
		N:         opt.N,
		Algorithm: opt.Algorithm,
		Seed:      opt.Seed,
		Env:       env,
		Probe:     probe.Config{Interval: opt.ProbeInterval},
		Quorum:    core.QuorumConfig{Interval: opt.RoutingInterval, Asymmetric: asym},
		FullMesh:  core.FullMeshConfig{Interval: opt.RoutingInterval},
	}
	sim := &Simulation{fleet: emul.NewFleet(fo), env: env}
	if opt.OneWayLatencyMS != nil {
		if len(opt.OneWayLatencyMS) != opt.N {
			return nil, fmt.Errorf("allpairs: one-way matrix is %dx?, want %dx%d", len(opt.OneWayLatencyMS), opt.N, opt.N)
		}
		for a := 0; a < opt.N; a++ {
			for b := 0; b < opt.N; b++ {
				if a != b {
					sim.fleet.Net.SetLatencyOneWay(a, b, time.Duration(opt.OneWayLatencyMS[a][b]*float64(time.Millisecond)))
				}
			}
		}
	}
	return sim, nil
}

// GeneratePlanetLab returns a synthetic PlanetLab-like RTT matrix (in
// milliseconds) for n nodes: geographically clustered sites with a heavy
// tail of circuitously routed paths. Useful as SimOptions.LatencyMS or as a
// MultiHop cost source.
func GeneratePlanetLab(n int, seed int64) [][]float64 {
	return traces.PlanetLab(n, seed).LatencyMS
}

// N returns the number of nodes.
func (s *Simulation) N() int { return s.fleet.Opt.N }

// Run advances virtual time by d, delivering packets and firing protocol
// timers. Routing converges within two routing intervals of startup (§5).
func (s *Simulation) Run(d time.Duration) { s.fleet.Run(d) }

// Elapsed returns the virtual time since the simulation started.
func (s *Simulation) Elapsed() time.Duration { return s.fleet.Elapsed() }

// BestHop returns src's current best one-hop route to dst.
func (s *Simulation) BestHop(src, dst NodeID) (Route, bool) {
	if int(src) >= s.N() {
		return Route{}, false
	}
	return s.fleet.Nodes[src].BestHop(dst)
}

// RouteTable returns src's full route table.
func (s *Simulation) RouteTable(src NodeID) []Route {
	if int(src) >= s.N() {
		return nil
	}
	return s.fleet.Nodes[src].RouteTable()
}

// DirectLatency returns the configured round-trip latency between two nodes
// in milliseconds.
func (s *Simulation) DirectLatency(a, b NodeID) float64 {
	return s.env.LatencyMS[a][b]
}

// FailLink injects (or clears) a bidirectional link failure between a and b.
// Probing detects it within about one probing interval; routing recovers per
// §4.1.
func (s *Simulation) FailLink(a, b NodeID, down bool) {
	s.fleet.Net.SetLinkDown(int(a), int(b), down)
}

// FailNode kills (or revives) a node entirely.
func (s *Simulation) FailNode(a NodeID, down bool) {
	s.fleet.Net.SetNodeDown(int(a), down)
}

// RoutingKbps returns the average per-node routing-plane bandwidth (in +
// out) in Kbps since the simulation started.
func (s *Simulation) RoutingKbps() float64 {
	var total uint64
	for i := 0; i < s.N(); i++ {
		total += s.fleet.Col.TotalBytes(i, wire.CatRouting)
	}
	return metrics.Kbps(total, s.Elapsed()) / float64(s.N())
}

// ProbingKbps returns the average per-node probing-plane bandwidth (in +
// out) in Kbps since the simulation started.
func (s *Simulation) ProbingKbps() float64 {
	var total uint64
	for i := 0; i < s.N(); i++ {
		total += s.fleet.Col.TotalBytes(i, wire.CatProbing)
	}
	return metrics.Kbps(total, s.Elapsed()) / float64(s.N())
}

// OnData installs a data-plane delivery handler on one node: fn receives
// every application payload addressed to it, with the originating node's ID.
func (s *Simulation) OnData(node NodeID, fn func(origin NodeID, payload []byte)) {
	if int(node) < s.N() {
		s.fleet.Nodes[node].OnData = fn
	}
}

// SendData routes an application payload from src to dst through the
// overlay's current best one-hop route (the paper's data plane: the overlay
// tells endpoints the best intermediary, and traffic relays through it).
func (s *Simulation) SendData(src, dst NodeID, payload []byte) error {
	if int(src) >= s.N() {
		return overlay.ErrUnknownDst
	}
	return s.fleet.Nodes[src].SendData(dst, payload)
}
