package allpairs

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"allpairs/internal/wire"
)

func TestNewSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(SimOptions{N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := NewSimulation(SimOptions{N: 1 << 16}); err == nil {
		t.Error("oversized N accepted")
	}
	if _, err := NewSimulation(SimOptions{N: 4, LatencyMS: [][]float64{{0}}}); err == nil {
		t.Error("mis-sized latency matrix accepted")
	}
}

// TestNewSimulationRefusesPastWireCeiling: static IDs 0…N−1 and the view's
// 16-bit slot count stop at wire.MaxSlots, the ceiling the coordinator's slot
// allocator refuses at too (membership.TestSlotAllocatorRefusesPastWireCeiling).
// The refusal comes before anything of size N² is built, or this test would
// not return.
func TestNewSimulationRefusesPastWireCeiling(t *testing.T) {
	_, err := NewSimulation(SimOptions{N: wire.MaxSlots + 1})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(wire.MaxSlots)) {
		t.Errorf("N=%d: err = %v, want a refusal naming the ceiling %d", wire.MaxSlots+1, err, wire.MaxSlots)
	}
}

func TestSimulationFindsOptimalDetour(t *testing.T) {
	// Four nodes; the 0-3 direct path is awful but 0-1-3 is fast.
	lat := [][]float64{
		{0, 20, 300, 500},
		{20, 0, 300, 30},
		{300, 300, 0, 300},
		{500, 30, 300, 0},
	}
	sim, err := NewSimulation(SimOptions{
		N: 4, LatencyMS: lat, Seed: 2,
		RoutingInterval: 5 * time.Second,
		ProbeInterval:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Minute)
	r, ok := sim.BestHop(0, 3)
	if !ok {
		t.Fatal("no route 0->3")
	}
	if r.Hop != 1 {
		t.Errorf("hop = %d, want detour via 1 (route %+v)", r.Hop, r)
	}
	if r.Cost > 60 {
		t.Errorf("cost = %d, want ≈50", r.Cost)
	}
	if sim.DirectLatency(0, 3) != 500 {
		t.Errorf("DirectLatency = %f", sim.DirectLatency(0, 3))
	}
}

func TestSimulationSurvivesLinkFailure(t *testing.T) {
	sim, err := NewSimulation(SimOptions{
		N: 16, Seed: 3,
		RoutingInterval: 10 * time.Second,
		ProbeInterval:   15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Minute)
	r, ok := sim.BestHop(0, 5)
	if !ok {
		t.Fatal("no initial route")
	}
	sim.FailLink(0, 5, true)
	if r.Hop == 5 {
		// Direct was best; after failure a detour (or nothing) must appear.
		sim.Run(3 * time.Minute)
		r2, ok2 := sim.BestHop(0, 5)
		if ok2 && r2.Hop == 5 {
			t.Errorf("route still direct after link failure: %+v", r2)
		}
	}
}

func TestSimulationBandwidthShape(t *testing.T) {
	run := func(algo Algorithm) float64 {
		sim, err := NewSimulation(SimOptions{N: 49, Algorithm: algo, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(5 * time.Minute)
		return sim.RoutingKbps()
	}
	quorum := run(Quorum)
	mesh := run(FullMesh)
	if quorum >= mesh {
		t.Errorf("quorum %.2f Kbps ≥ full-mesh %.2f Kbps", quorum, mesh)
	}
	sim, _ := NewSimulation(SimOptions{N: 9, Seed: 5})
	sim.Run(2 * time.Minute)
	if sim.ProbingKbps() <= 0 {
		t.Error("no probing traffic")
	}
	if sim.N() != 9 || sim.Elapsed() != 2*time.Minute {
		t.Errorf("N=%d elapsed=%v", sim.N(), sim.Elapsed())
	}
}

func TestSimulationOutOfRangeQueries(t *testing.T) {
	sim, _ := NewSimulation(SimOptions{N: 4, Seed: 1})
	if _, ok := sim.BestHop(99, 1); ok {
		t.Error("BestHop from unknown src")
	}
	if sim.RouteTable(99) != nil {
		t.Error("RouteTable for unknown src")
	}
}

func TestGeneratePlanetLab(t *testing.T) {
	m := GeneratePlanetLab(50, 7)
	if len(m) != 50 || m[0][0] != 0 || m[3][7] != m[7][3] {
		t.Error("malformed matrix")
	}
}

func TestMultiHopPublicAPI(t *testing.T) {
	inf := InfCost
	costs := [][]Cost{
		{0, inf, 10},
		{inf, 0, 10},
		{10, 10, 0},
	}
	res, err := MultiHop(costs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0][1] != 20 {
		t.Errorf("dist = %d, want 20 via node 2", res.Dist[0][1])
	}
	path := res.Path(0, 1)
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("path = %v", path)
	}
	if _, err := MultiHop(nil, 2); err == nil {
		t.Error("nil matrix accepted")
	}
}

func TestUDPDeploymentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	coord, err := StartCoordinator(CoordinatorOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	const n = 4
	nodes := make([]*Node, 0, n)
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 0; i < n; i++ {
		nd, err := StartNode(NodeOptions{
			Listen:          "127.0.0.1:0",
			Coordinator:     coord.Addr().String(),
			RoutingInterval: 500 * time.Millisecond,
			ProbeInterval:   time.Second,
			Seed:            int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}

	deadline := time.Now().Add(30 * time.Second)
	ready := func() bool {
		if coord.MemberCount() != n {
			return false
		}
		for _, nd := range nodes {
			if !nd.Ready() || len(nd.Members()) != n {
				return false
			}
			if len(nd.RouteTable()) != n-1 {
				return false
			}
		}
		return true
	}
	for !ready() {
		if time.Now().After(deadline) {
			for i, nd := range nodes {
				t.Logf("node %d: id=%d ready=%v members=%d routes=%d",
					i, nd.ID(), nd.Ready(), len(nd.Members()), len(nd.RouteTable()))
			}
			t.Fatal("UDP overlay did not converge in 30 s")
		}
		time.Sleep(200 * time.Millisecond)
	}

	// All-pairs routes exist and report sane localhost costs.
	for i, nd := range nodes {
		for _, peer := range nd.Members() {
			if peer == nd.ID() {
				continue
			}
			r, ok := nd.BestHop(peer)
			if !ok {
				t.Errorf("node %d: no route to %d", i, peer)
				continue
			}
			if r.Cost > 100 {
				t.Errorf("node %d -> %d: cost %d ms on loopback", i, peer, r.Cost)
			}
		}
	}

	fmt.Println("UDP end-to-end: all-pairs routes established")
}

// TestUDPReplicaFailover runs the replicated coordinator plane over real
// sockets: three replicas and four nodes converge on loopback, rank 0 closes,
// and rank 1 must take over while every node keeps its ID and a full route
// table. Beacons, pre-votes and snapshot chunks all cross a socket here.
func TestUDPReplicaFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Every replica needs its peers' addresses before any of them listens:
	// hold three loopback ports open at once so they differ, then free them.
	addrs := make([]string, 3)
	var held []*net.UDPConn
	for r := range addrs {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
		addrs[r] = c.LocalAddr().String()
	}
	for _, c := range held {
		c.Close()
	}
	coords := make([]*Coordinator, len(addrs))
	for r, a := range addrs {
		c, err := StartCoordinator(CoordinatorOptions{Listen: a, Rank: r, Peers: addrs})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		coords[r] = c
	}

	const n = 4
	nodes := make([]*Node, 0, n)
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 0; i < n; i++ {
		nd, err := StartNode(NodeOptions{
			Listen:          "127.0.0.1:0",
			Coordinator:     strings.Join(addrs, ","),
			RoutingInterval: 500 * time.Millisecond,
			ProbeInterval:   time.Second,
			Seed:            int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	fullTables := func() bool {
		for _, nd := range nodes {
			if len(nd.RouteTable()) != n-1 {
				return false
			}
		}
		return true
	}
	logState := func() {
		for r, c := range coords[1:] {
			t.Logf("rank %d: primary=%v members=%d", r+1, c.IsPrimary(), c.MemberCount())
		}
		for i, nd := range nodes {
			t.Logf("node %d: id=%d members=%d routes=%d", i, nd.ID(), len(nd.Members()), len(nd.RouteTable()))
		}
	}

	// Converged: the primary admitted everyone, the standbys hold the same
	// view, and every node routes to every other.
	deadline := time.Now().Add(30 * time.Second)
	for !(coords[0].MemberCount() == n && coords[1].MemberCount() == n &&
		coords[2].MemberCount() == n && fullTables()) {
		if time.Now().After(deadline) {
			logState()
			t.Fatal("replicated UDP overlay did not converge in 30 s")
		}
		time.Sleep(200 * time.Millisecond)
	}
	ids := make([]NodeID, n)
	for i, nd := range nodes {
		ids[i] = nd.ID()
	}

	// Rank 1 promotes at most its election timeout, (3+1) beacon intervals,
	// plus the pre-vote wait of two more after rank 0's last beacon: 12 s at
	// the 2 s default, given two more seconds of scheduling slack here.
	coords[0].Close()
	closed := time.Now()
	deadline = closed.Add(14 * time.Second)
	for !coords[1].IsPrimary() {
		if time.Now().After(deadline) {
			logState()
			t.Fatal("rank 1 did not promote within its election timeout plus pre-vote wait")
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("rank 1 promoted %v after rank 0 closed", time.Since(closed).Round(100*time.Millisecond))
	if got := coords[1].MemberCount(); got != n {
		t.Errorf("new primary admits %d members, want %d", got, n)
	}
	for i, nd := range nodes {
		if id := nd.ID(); id != ids[i] {
			t.Errorf("node %d: ID %d after failover, was %d", i, id, ids[i])
		}
		if got := len(nd.RouteTable()); got != n-1 {
			t.Errorf("node %d: %d routes after failover, want %d", i, got, n-1)
		}
	}
}

func TestAsymmetricSimulationRoutesPerDirection(t *testing.T) {
	// Directed one-way matrix: 0→1 is fast, 1→0 is slow but cheap via 2.
	ow := [][]float64{
		{0, 10, 40},
		{200, 0, 30},
		{40, 30, 0},
	}
	sim, err := NewSimulation(SimOptions{
		N: 3, OneWayLatencyMS: ow, Seed: 9,
		RoutingInterval: 5 * time.Second,
		ProbeInterval:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(90 * time.Second)
	// 0→1: direct 10 beats via 2 (40+30=70).
	r01, ok := sim.BestHop(0, 1)
	if !ok || r01.Hop != 1 {
		t.Errorf("0→1 = %+v ok=%v, want direct", r01, ok)
	}
	// 1→0: direct 200 loses to via 2 (30+40=70).
	r10, ok := sim.BestHop(1, 0)
	if !ok {
		t.Fatal("no route 1→0")
	}
	if r10.Hop != 2 {
		t.Errorf("1→0 hop = %d, want detour via 2 (route %+v)", r10.Hop, r10)
	}
	if r10.Cost > 85 || r10.Cost < 55 {
		t.Errorf("1→0 cost = %d, want ≈70", r10.Cost)
	}
}

func TestDataPlaneDeliversThroughDetour(t *testing.T) {
	lat := [][]float64{
		{0, 20, 300, 500},
		{20, 0, 300, 30},
		{300, 300, 0, 300},
		{500, 30, 300, 0},
	}
	sim, err := NewSimulation(SimOptions{
		N: 4, LatencyMS: lat, Seed: 2,
		RoutingInterval: 5 * time.Second,
		ProbeInterval:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Minute)

	var gotOrigin NodeID
	var gotPayload string
	sim.OnData(3, func(origin NodeID, payload []byte) {
		gotOrigin = origin
		gotPayload = string(payload)
	})
	if err := sim.SendData(0, 3, []byte("voice packet")); err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Second)
	if gotPayload != "voice packet" || gotOrigin != 0 {
		t.Fatalf("payload %q from %d", gotPayload, gotOrigin)
	}
	// The route used was the detour via 1 (cost ≈50), so delivery is far
	// faster than the 500 ms direct path — verified implicitly by the 2 s
	// run budget covering the 25+15+... ms one-way hops.
	if err := sim.SendData(0, 99, nil); err == nil {
		t.Error("send to unknown destination accepted")
	}
}

// TestSimulationFailNodeLeavesTheRoutes: a node failed whole, the one most
// routes go through, leaves every other node's route table, as a destination
// and as a hop, and is back in every one of them once revived.
func TestSimulationFailNodeLeavesTheRoutes(t *testing.T) {
	const n = 16
	sim, err := NewSimulation(SimOptions{N: n, Seed: 3, RoutingInterval: 10 * time.Second, ProbeInterval: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// uses counts the other nodes' routes to node x and through it.
	uses := func(x NodeID) (to, via int) {
		for src := range NodeID(n) {
			for _, r := range sim.RouteTable(src) {
				if src != x && r.Dst == x {
					to++
				} else if src != x && r.Hop == x {
					via++
				}
			}
		}
		return to, via
	}
	sim.Run(2 * time.Minute)
	dead, most := NodeID(0), 0
	for x := range NodeID(n) {
		if _, via := uses(x); via > most {
			dead, most = x, via
		}
	}
	if to, via := uses(dead); to != n-1 || via == 0 {
		t.Fatalf("node %d: before the failure %d nodes route to it and %d routes go through it", dead, to, via)
	}
	before := sim.RouteTable(dead)
	sim.FailNode(dead, true)
	sim.Run(2 * time.Minute)
	if to, via := uses(dead); to != 0 || via != 0 {
		t.Errorf("node %d failed for 2 min: %d routes to it, %d through it", dead, to, via)
	}
	sim.FailNode(dead, false)
	sim.Run(time.Minute)
	if to, via := uses(dead); to != n-1 || via == 0 {
		t.Errorf("node %d revived for 1 min: %d nodes route to it, %d routes go through it", dead, to, via)
	}
	if after := sim.RouteTable(dead); len(after) != len(before) {
		t.Errorf("node %d revived routes to %d nodes, to %d before", dead, len(after), len(before))
	}
}
