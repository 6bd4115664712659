// Package emul is the experiment harness: it runs fleets of unmodified
// overlay nodes on the deterministic simulator and produces the data behind
// every table and figure of the paper's evaluation (§6). The experiment
// index in README.md maps each figure to the functions in this package.
//
// Beyond the paper, a DynamicFleet takes its faults as data: a fault schedule
// is a []Step over ten primitives (Op), Apply interprets one step, and Play is
// the one loop that runs a schedule under a sampler. Every dynamic-fleet run
// is a DynamicFleetOptions plus a []Step that Play runs: the nine churn
// scenarios are the rows of one table of []Step constructors (schedule.go)
// that RunChurn plays, and the experiments soak plays minutes of Poisson
// churn the same way, reading its heap on Play's tick.
package emul

import (
	"time"

	"allpairs/internal/core"
	"allpairs/internal/membership"
	"allpairs/internal/metrics"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
	"allpairs/internal/simnet"
	"allpairs/internal/traces"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// FleetOptions configures an emulated overlay fleet.
type FleetOptions struct {
	// N is the number of overlay nodes.
	N int
	// Algorithm selects quorum or full-mesh routing.
	Algorithm overlay.Algorithm
	// Seed drives all randomness (network, probers, routers).
	Seed int64
	// Env supplies latencies and loss. Nil means a homogeneous 40 ms RTT
	// lossless network.
	Env *traces.Env
	// Probe, Quorum, FullMesh override component configurations (zero values
	// take the paper's defaults).
	Probe    probe.Config
	Quorum   core.QuorumConfig
	FullMesh core.FullMeshConfig
}

// Fleet is a running emulation: n overlay nodes, the simulated network, and
// the measurement instruments.
type Fleet struct {
	Opt   FleetOptions
	Net   *simnet.Network
	Nodes []*overlay.Node
	Col   *metrics.Collector

	start time.Time
}

// NewFleet builds and starts a fleet with a static membership view (node i
// has ID i), mirroring the paper's emulation methodology: admission is not
// under test, steady-state routing is.
func NewFleet(opt FleetOptions) *Fleet {
	nw, col := newNetwork(opt.N, opt.N, opt.Seed, opt.Env)
	f := &Fleet{Opt: opt, Net: nw, Col: col, start: nw.Now()}
	if opt.Env != nil { // a static fleet also takes the environment's loss
		for a := 0; a < opt.N; a++ {
			for b := a + 1; b < opt.N; b++ {
				nw.SetLoss(a, b, opt.Env.Loss[a][b])
			}
		}
	}

	ids := make([]wire.NodeID, opt.N)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	view := membership.NewStaticView(ids)
	reg := transport.NewRegistry()

	f.Nodes = make([]*overlay.Node, opt.N)
	for i := 0; i < opt.N; i++ {
		env := transport.NewSimEnv(nw, reg, i, opt.Seed*7919+int64(i))
		env.SetLocalID(wire.NodeID(i))
		node := overlay.New(env, overlay.Config{
			Algorithm:  opt.Algorithm,
			Probe:      opt.Probe,
			Quorum:     opt.Quorum,
			FullMesh:   opt.FullMesh,
			StaticView: view,
			StaticID:   wire.NodeID(i),
		})
		if err := node.Start(); err != nil {
			panic(err) // static views with valid IDs cannot fail
		}
		f.Nodes[i] = node
	}
	return f
}

// newNetwork builds the simulator both fleets share: endpoints members and up
// belong to the caller; every pair below members gets a one-way latency of
// RTT/2 from env, or the homogeneous 20 ms when env is nil; and the collector
// charges senders on transmission (lost packets still cost their sender) and
// receivers on delivery, as in the paper's measurements.
func newNetwork(endpoints, members int, seed int64, env *traces.Env) (*simnet.Network, *metrics.Collector) {
	nw := simnet.New(endpoints, seed)
	for a := 0; a < members; a++ {
		for b := a + 1; b < members; b++ {
			oneWay := 20 * time.Millisecond
			if env != nil {
				oneWay = time.Duration(env.LatencyMS[a][b] / 2 * float64(time.Millisecond))
			}
			nw.SetLatency(a, b, oneWay)
		}
	}
	col := metrics.New(endpoints, nw.Now(), time.Minute)
	nw.OnSend = func(from, to int, payload []byte) {
		col.Record(from, metrics.Out, wire.CategoryOf(wire.PeekType(payload)), len(payload), nw.Now())
	}
	nw.OnDeliver = func(from, to int, payload []byte) {
		col.Record(to, metrics.In, wire.CategoryOf(wire.PeekType(payload)), len(payload), nw.Now())
	}
	return nw, col
}

// Run advances the emulation by d of virtual time.
func (f *Fleet) Run(d time.Duration) { f.Net.RunFor(d) }

// Elapsed returns virtual time since the fleet started.
func (f *Fleet) Elapsed() time.Duration { return f.Net.Elapsed() }

// Start returns the fleet's epoch.
func (f *Fleet) Start() time.Time { return f.start }

// ApplyFailureSchedule installs link up/down transitions (from
// traces.Env.FailureSchedule) as future simulator events. Call before
// running past the first event time.
func (f *Fleet) ApplyFailureSchedule(events []traces.LinkEvent) {
	now := f.Net.Elapsed()
	for _, ev := range events {
		ev := ev
		delay := ev.At - now
		if delay < 0 {
			delay = 0
		}
		f.Net.After(delay, func() {
			f.Net.SetLinkDown(ev.A, ev.B, ev.Down)
		})
	}
}

// RoutingKbpsPerNode returns each node's average routing-plane traffic
// (in + out) in Kbps between two byte snapshots taken `over` apart.
func RoutingKbpsPerNode(before, after []uint64, over time.Duration) []float64 {
	out := make([]float64, len(before))
	for i := range out {
		out[i] = metrics.Kbps(after[i]-before[i], over)
	}
	return out
}

// QuorumStats returns the quorum router statistics for node i (zero value
// for full-mesh fleets).
func (f *Fleet) QuorumStats(i int) core.QuorumStats {
	if q, ok := f.Nodes[i].Router().(*core.Quorum); ok {
		return q.Stats()
	}
	return core.QuorumStats{}
}
