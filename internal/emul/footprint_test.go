package emul

import (
	"math"
	"runtime"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/overlay"
	"allpairs/internal/traces"
)

// footprintCfg is the quorum configuration of the two footprint tests, spelled
// out because they compute row ages from it.
var footprintCfg = core.QuorumConfig{Interval: 15 * time.Second, Staleness: 45 * time.Second, DegradedHold: 30 * time.Second}

// footprintFleet is a static 64-node quorum fleet on a PlanetLab-like network,
// warmed up for two minutes and then subjected to the environment's link
// failures — each double rendezvous failure recruits a failover rendezvous
// (§4.1), which is thereby sent a row it would otherwise never hold.
func footprintFleet() *Fleet {
	const n = 64
	env := traces.PlanetLab(n, 3)
	f := NewFleet(FleetOptions{N: n, Algorithm: overlay.AlgQuorum, Seed: 3, Env: env, Quorum: footprintCfg})
	f.Run(2 * time.Minute)
	f.ApplyFailureSchedule(env.FailureSchedule(22*time.Minute, 4))
	return f
}

// TestQuorumHoldsOnlyReadableRows: a node stores a client row only while
// somebody may read it. Every reader bounds a row's age by Staleness +
// DegradedHold at most and Expire runs once per tick, so at any instant a row
// with storage is younger than that plus one (jittered) routing interval. Before
// Table.Expire existed the count only grew: one row for good from everyone who
// ever recruited the node as a failover, Θ(n√n) state drifting toward Θ(n²).
func TestQuorumHoldsOnlyReadableRows(t *testing.T) {
	f := footprintFleet()
	n := len(f.Nodes)
	readable := footprintCfg.Staleness + footprintCfg.DegradedHold
	sinceTick := footprintCfg.Interval + footprintCfg.Interval/32
	released := 0
	for minute := 1; minute <= 20; minute++ {
		f.Run(time.Minute)
		now := f.Net.Now()
		released = 0
		for i, node := range f.Nodes {
			tab := node.Router().(*core.Quorum).Table()
			announced, young := 0, 0
			for s := 0; s < n; s++ {
				if tab.Have(s) {
					announced++
				}
				if tab.FreshAt(s, now, readable+sinceTick) {
					young++
				}
			}
			if stored := tab.Stored(); stored > young {
				t.Fatalf("minute %d: node %d stores %d rows, %d of them young enough for anyone to read (%d announced)",
					minute, i, stored, young, announced)
			}
			released += announced - tab.Stored()
		}
	}
	if released == 0 {
		t.Error("no row was ever released: the schedule recruited no failover rendezvous and the test saw nothing")
	}
}

// TestFleetFootprintPerNode bounds the live heap of the same fleet, per node,
// by what the paper says a node holds — 2√n client rows of n two-byte costs
// (§3) — plus this tree's per-destination tables — a 16-byte route, a 24-byte
// probe link and its 12-byte deadline, a 2-byte row index, and its share of
// the simulator's links, 16 bytes and a down byte each — and its round-2
// bases — 4 bytes a silence pairing, k² of them for its k = 2(√n−1) servers,
// the hop and cost it holds of each server's last recommendation, and 4
// bytes a pair of its k+1-long full run, what it last sent its clients
// (core.recBase) — with 2× head-room, so that the next table that forgets to
// shrink fails here and not in a ledger run. The rest of a simulated node is
// budgeted as measured when the bound was first cut, plus a margin (9.7 KB of
// 11 at n = 64): its share of the trace's n² link matrices, a 4.9 KB
// math/rand source per endpoint, the silence clocks, per-row metadata and
// datagrams in flight. The fleet reads 26 585 B a node, in any test order,
// against this 26 856 (26 264–26 265 B before a row riding behind a
// recommendation was copied into each datagram; 24 397 B against 24 448
// before the bases, whose terms read 1 204 B here); with each of the
// per-destination tables wider, and a failover pointer per destination, it
// read 25.1 KB alone and 25.7 KB after the rest of the package, without the
// bases.
//
// Only the fleet's bytes are counted. A second collection drops what sync.Pool
// caches hold at the start, such as the regexp state of the -run filter, 576 B
// a node here, which the run would otherwise free and subtract. The run has
// one P, set before the baseline: with an idle P the scheduler may start an
// OS thread mid-run, whose runtime structures, ≈ 87 B a node, stay on the
// heap.
func TestFleetFootprintPerNode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := footprintFleet()
	f.Run(20 * time.Minute)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)

	n := float64(len(f.Nodes))
	rows := 2 * math.Sqrt(n) * n * 2
	tables := n * (16 + 24 + 12 + 2 + 17)
	k := 2 * (math.Sqrt(n) - 1)
	bases := 4*k*k + 4*k*(k+1)/2
	const rest = 11 << 10
	bound := 2*(rows+tables+bases) + rest
	perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.0f bytes of live heap a node, bound %.0f", perNode, bound)
	if perNode > bound {
		t.Errorf("%.0f bytes of live heap a node, more than 2×(%.0f of rows + %.0f of tables + %.0f of round-2 bases) + %d", perNode, rows, tables, bases, rest)
	}
}
