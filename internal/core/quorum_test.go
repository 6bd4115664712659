package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// cluster wires n routers over a simulated network with a mutable
// ground-truth cost matrix standing in for the probing layer: each node's
// SelfRow and LinkAlive read the matrix directly, so routing behaviour can
// be tested in isolation from probe timing.
type cluster struct {
	t       *testing.T
	nw      *simnet.Network
	view    *membership.ViewInfo
	envs    []*transport.SimEnv
	routers []Router
	n       int

	lat  [][]wire.Cost // symmetric ground-truth latencies (ms)
	dead [][]bool      // symmetric link failures as seen by "probing"
}

// newCluster builds the fixture. algo is "quorum" or "fullmesh".
func newCluster(t *testing.T, n int, seed int64, algo string, qcfg QuorumConfig) *cluster {
	t.Helper()
	c := &cluster{t: t, n: n, nw: simnet.New(n, seed)}
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	c.view = membership.NewStaticView(ids)

	rng := rand.New(rand.NewSource(seed))
	c.lat = make([][]wire.Cost, n)
	c.dead = make([][]bool, n)
	for i := 0; i < n; i++ {
		c.lat[i] = make([]wire.Cost, n)
		c.dead[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := wire.Cost(5 + rng.Intn(400))
			c.lat[i][j], c.lat[j][i] = l, l
			c.nw.SetLatency(i, j, 5*time.Millisecond)
		}
	}

	reg := transport.NewRegistry()
	for i := 0; i < n; i++ {
		i := i
		env := transport.NewSimEnv(c.nw, reg, i, seed+int64(i)+1)
		env.SetLocalID(wire.NodeID(i))
		selfRow := func() []wire.LinkEntry {
			row := make([]wire.LinkEntry, n)
			for j := 0; j < n; j++ {
				if j == i {
					row[j] = wire.LinkEntry{Latency: 0, Status: wire.MakeStatus(true, 0)}
				} else if c.dead[i][j] {
					row[j] = wire.LinkEntry{Status: wire.StatusDead}
				} else {
					row[j] = wire.LinkEntry{Latency: uint16(c.lat[i][j]), Status: wire.MakeStatus(true, 0)}
				}
			}
			return row
		}
		r := newRouter(t, algo, env, qcfg, c.view, i)
		rowsOf(r).SelfRow = selfRow
		if q, ok := r.(*Quorum); ok {
			q.LinkAlive = func(slot int) bool { return slot == i || !c.dead[i][slot] }
		}
		env.Bind(func(from wire.NodeID, payload []byte) {
			h, body, err := wire.ParseHeader(payload)
			if err != nil {
				return
			}
			switch h.Type {
			case wire.TLinkState, wire.TLinkStateDelta:
				r.HandleLinkState(h, body)
			case wire.TRecommendation:
				r.HandleRecommendation(h, body)
			case wire.TLinkStateAck:
				if q, ok := r.(*Quorum); ok {
					q.HandleLinkStateAck(h, body)
				}
			}
		})
		c.envs = append(c.envs, env)
		c.routers = append(c.routers, r)
	}
	// Staggered periodic ticks.
	interval := c.routers[0].Interval()
	for i := 0; i < n; i++ {
		i := i
		offset := time.Duration(i) * interval / time.Duration(n)
		var tick func()
		tick = func() {
			c.routers[i].Tick()
			c.envs[i].After(interval, tick)
		}
		c.envs[i].After(offset, tick)
	}
	return c
}

// newRouter builds the router algo names ("quorum" or "fullmesh") for the
// node at slot self of view; the full mesh takes qcfg's interval and degraded
// hold.
func newRouter(t *testing.T, algo string, env transport.Env, qcfg QuorumConfig, view *membership.ViewInfo, self int) Router {
	t.Helper()
	switch algo {
	case "quorum":
		q, err := NewQuorum(env, qcfg, view, self)
		if err != nil {
			t.Fatal(err)
		}
		return q
	case "fullmesh":
		return NewFullMesh(env, FullMeshConfig{Interval: qcfg.Interval, DegradedHold: qcfg.DegradedHold}, view, self)
	}
	t.Fatalf("unknown algo %q", algo)
	return nil
}

// setLink changes ground truth for the (symmetric) pair and mirrors the
// failure into the packet network so routing messages across it die too.
func (c *cluster) setLink(a, b int, dead bool) {
	c.dead[a][b], c.dead[b][a] = dead, dead
	c.nw.SetLinkDown(a, b, dead)
}

// oracle computes the true optimal one-hop cost from a to b under the
// current ground truth.
func (c *cluster) oracle(a, b int) wire.Cost {
	cost := func(x, y int) wire.Cost {
		if x == y {
			return 0
		}
		if c.dead[x][y] {
			return wire.InfCost
		}
		return c.lat[x][y]
	}
	best := wire.InfCost
	for h := 0; h < c.n; h++ {
		if h == a {
			continue
		}
		if v := cost(a, h).Add(cost(h, b)); v < best {
			best = v
		}
	}
	return best
}

// assertAllOptimal checks that every node holds the optimal one-hop route to
// every destination.
func (c *cluster) assertAllOptimal() {
	c.t.Helper()
	bad := 0
	for a := 0; a < c.n; a++ {
		for b := 0; b < c.n; b++ {
			if a == b {
				continue
			}
			want := c.oracle(a, b)
			e, ok := c.routers[a].BestHop(b)
			if want == wire.InfCost {
				if ok && e.Cost != wire.InfCost {
					c.t.Errorf("route %d->%d: got cost %d, want unreachable", a, b, e.Cost)
					bad++
				}
				continue
			}
			if !ok {
				c.t.Errorf("route %d->%d: no route, want cost %d", a, b, want)
				bad++
				continue
			}
			if e.Cost != want {
				c.t.Errorf("route %d->%d: cost %d via %d (src %v), want %d", a, b, e.Cost, e.Hop, e.Source, want)
				bad++
			}
			if bad > 10 {
				c.t.Fatal("too many failures")
			}
		}
	}
}

func TestQuorumFindsAllOptimalOneHopRoutes(t *testing.T) {
	for _, n := range []int{4, 9, 12, 25, 30} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := newCluster(t, n, int64(n), "quorum", QuorumConfig{Interval: 15 * time.Second})
			// Two routing intervals to converge (paper §5) plus slack.
			c.nw.RunFor(4 * 15 * time.Second)
			c.assertAllOptimal()
		})
	}
}

func TestFullMeshFindsAllOptimalOneHopRoutes(t *testing.T) {
	c := newCluster(t, 16, 3, "fullmesh", QuorumConfig{Interval: 30 * time.Second})
	c.nw.RunFor(3 * 30 * time.Second)
	c.assertAllOptimal()
}

func TestQuorumAndFullMeshAgree(t *testing.T) {
	q := newCluster(t, 18, 5, "quorum", QuorumConfig{Interval: 15 * time.Second})
	f := newCluster(t, 18, 5, "fullmesh", QuorumConfig{Interval: 30 * time.Second})
	q.nw.RunFor(time.Minute)
	f.nw.RunFor(2 * time.Minute)
	for a := 0; a < 18; a++ {
		for b := 0; b < 18; b++ {
			if a == b {
				continue
			}
			eq, okq := q.routers[a].BestHop(b)
			ef, okf := f.routers[a].BestHop(b)
			if okq != okf || (okq && eq.Cost != ef.Cost) {
				t.Errorf("route %d->%d: quorum %v/%v fullmesh %v/%v", a, b, eq.Cost, okq, ef.Cost, okf)
			}
		}
	}
}

func TestQuorumMessageComplexity(t *testing.T) {
	// Theorem 1: per tick each node sends at most 4√n messages. Count sends
	// over a steady-state window.
	n := 25
	c := newCluster(t, n, 9, "quorum", QuorumConfig{Interval: 15 * time.Second})
	c.nw.RunFor(time.Minute) // warm up
	counts := make([]int, n)
	c.nw.OnSend = func(from, to int, payload []byte) {
		if wire.CategoryOf(wire.PeekType(payload)) == wire.CatRouting {
			counts[from]++
		}
	}
	c.nw.RunFor(15 * time.Second) // exactly one interval
	bound := 4 * 5                // 4√25
	for i, got := range counts {
		if got > bound {
			t.Errorf("node %d sent %d routing messages in one interval, bound %d", i, got, bound)
		}
		if got == 0 {
			t.Errorf("node %d sent nothing", i)
		}
	}
}

func TestScenario1DirectAndBestHopFailure(t *testing.T) {
	// §4.1 scenario 1: the direct link Src–Dst and the link to the best hop
	// C fail. Src must learn the new best hop within ~2 routing intervals.
	n := 25
	r := 15 * time.Second
	c := newCluster(t, n, 11, "quorum", QuorumConfig{Interval: r})
	c.nw.RunFor(4 * r)
	c.assertAllOptimal()

	src, dst := 0, 24
	e, ok := c.routers[src].BestHop(dst)
	if !ok {
		t.Fatal("no initial route")
	}
	bestHop := e.Hop
	if bestHop == dst {
		// Force a detour configuration: make the direct path expensive.
		c.lat[src][dst] = 20000 // will clamp into range via uint16? keep < 65535
		c.lat[dst][src] = 20000
		c.nw.RunFor(4 * r)
		e, _ = c.routers[src].BestHop(dst)
		bestHop = e.Hop
		if bestHop == dst {
			t.Skip("topology has no useful detour; skip")
		}
	}
	c.setLink(src, dst, true)
	c.setLink(src, bestHop, true)
	c.nw.RunFor(3 * r) // paper bound: ≤2r after detection; ground-truth probes are instant here

	want := c.oracle(src, dst)
	got, ok := c.routers[src].BestHop(dst)
	if want == wire.InfCost {
		t.Skip("failures partitioned the pair")
	}
	if !ok || got.Cost != want {
		t.Errorf("after scenario 1: got %v/%v, want cost %d", got.Cost, ok, want)
	}
	if got.Hop == bestHop || got.Hop == dst {
		t.Errorf("route still uses failed element: hop %d", got.Hop)
	}
}

func TestScenario2ProximalRendezvousFailover(t *testing.T) {
	// §4.1 scenario 2: Src loses its links to both default rendezvous for
	// Dst and the direct link to Dst. Failover must recruit one of Dst's
	// row/column nodes and recover the optimal route within ~2 intervals.
	n := 25
	r := 15 * time.Second
	c := newCluster(t, n, 13, "quorum", QuorumConfig{Interval: r})
	c.nw.RunFor(4 * r)

	src, dst := 0, 18
	q := c.routers[src].(*Quorum)
	defaults := q.Grid().Common(src, dst)
	for _, k := range defaults {
		if k != src {
			c.setLink(src, k, true)
		}
	}
	c.setLink(src, dst, true)
	c.nw.RunFor(4 * r)

	want := c.oracle(src, dst)
	got, ok := c.routers[src].BestHop(dst)
	if !ok || got.Cost != want {
		t.Errorf("after scenario 2: got %v/%v want %d", got.Cost, ok, want)
	}
	if q.Stats().FailoverAttempts == 0 {
		t.Error("no failover attempted")
	}
	if fs := q.FailoverServer(dst); fs >= 0 {
		// The recruited failover must come from dst's row/column.
		found := false
		for _, cand := range q.Grid().FailoverCandidates(dst) {
			if cand == fs {
				found = true
			}
		}
		if !found {
			t.Errorf("failover server %d not in dst's row/column", fs)
		}
	}
}

func TestScenario3RemoteRendezvousFailure(t *testing.T) {
	// §4.1 scenario 3: one proximal failure (Src–R1), one remote failure
	// (R2–Dst), plus the direct link. Detection of the remote failure takes
	// up to the remote-silence bound; total recovery ≤ ~3-4 intervals.
	n := 25
	r := 15 * time.Second
	c := newCluster(t, n, 17, "quorum", QuorumConfig{Interval: r})
	c.nw.RunFor(4 * r)

	src, dst := 2, 22
	q := c.routers[src].(*Quorum)
	defaults := []int{}
	for _, k := range q.Grid().Common(src, dst) {
		if k != src && k != dst {
			defaults = append(defaults, k)
		}
	}
	if len(defaults) < 2 {
		t.Fatalf("pair (%d,%d) has %d third-party rendezvous", src, dst, len(defaults))
	}
	c.setLink(src, defaults[0], true) // proximal
	c.setLink(defaults[1], dst, true) // remote: R2 loses Dst's row
	c.setLink(src, dst, true)         // direct failure
	c.nw.RunFor(6 * r)                // remote detection (2.5r) + failover (2r) + slack

	want := c.oracle(src, dst)
	got, ok := c.routers[src].BestHop(dst)
	if !ok || got.Cost != want {
		t.Errorf("after scenario 3: got %v/%v want %d", got.Cost, ok, want)
	}
}

func TestDeadDestinationStopsFailover(t *testing.T) {
	n := 16
	r := 15 * time.Second
	c := newCluster(t, n, 19, "quorum", QuorumConfig{Interval: r})
	c.nw.RunFor(4 * r)

	// Node 7 dies completely.
	dead := 7
	for i := 0; i < n; i++ {
		if i != dead {
			c.setLink(i, dead, true)
		}
	}
	c.nw.RunFor(8 * r)
	q := c.routers[0].(*Quorum)
	if _, ok := c.routers[0].BestHop(dead); ok {
		t.Error("route to dead node still reported")
	}
	st := q.Stats()
	if st.DeadDestinations == 0 {
		t.Errorf("dead destination not detected: %+v", st)
	}
	// Failover attempts must be bounded: after detecting death the node must
	// not burn through all 2√n candidates repeatedly.
	before := st.FailoverAttempts
	c.nw.RunFor(8 * r)
	after := c.routers[0].(*Quorum).Stats().FailoverAttempts
	if after-before > 6 {
		t.Errorf("failover attempts kept growing on a dead destination: %d -> %d", before, after)
	}
}

func TestFallbackWithFailoverDisabled(t *testing.T) {
	// §4.2: with failover disabled and both defaults down, BestHop must
	// still produce a usable (possibly suboptimal) route from neighbor rows.
	n := 25
	r := 15 * time.Second
	c := newCluster(t, n, 23, "quorum", QuorumConfig{Interval: r, disableFailover: true})
	c.nw.RunFor(4 * r)

	src, dst := 0, 18
	q := c.routers[src].(*Quorum)
	for _, k := range q.Grid().Common(src, dst) {
		if k != src {
			c.setLink(src, k, true)
		}
	}
	c.setLink(src, dst, true)
	c.nw.RunFor(4 * r)

	got, ok := c.routers[src].BestHop(dst)
	if !ok {
		t.Fatal("no fallback route")
	}
	if got.Source != SourceFallback && got.Source != SourceRendezvous && got.Source != SourceSelf {
		t.Errorf("unexpected source %v", got.Source)
	}
	// The fallback route must be real: verify against ground truth.
	if got.Hop != dst {
		viaCost := c.lat[src][got.Hop].Add(c.lat[got.Hop][dst])
		if c.dead[src][got.Hop] || c.dead[got.Hop][dst] {
			t.Errorf("fallback route uses dead link via %d", got.Hop)
		} else if viaCost != got.Cost {
			t.Errorf("fallback cost %d, ground truth via %d is %d", got.Cost, got.Hop, viaCost)
		}
	}
	if q.Stats().FailoverAttempts != 0 {
		t.Error("failover ran despite being disabled")
	}
}

func TestViewVersionMismatchIgnored(t *testing.T) {
	c := newCluster(t, 9, 29, "quorum", QuorumConfig{Interval: 15 * time.Second})
	q := c.routers[0].(*Quorum)
	// A link-state row from a different view version must be dropped.
	row := make([]wire.LinkEntry, 9)
	msg := wire.AppendLinkState(nil, 5, wire.LinkState{ViewVersion: 999, Seq: 1, Entries: row})
	h, body, _ := wire.ParseHeader(msg)
	q.HandleLinkState(h, body)
	if q.Table().Have(5) {
		t.Error("row from wrong view stored")
	}
	// Same for recommendations.
	rec := wire.AppendRecommendation(nil, 5, wire.Recommendation{ViewVersion: 999, Entries: []wire.RecEntry{{Dst: 1, Hop: 2, Cost: 3}}})
	h2, body2, _ := wire.ParseHeader(rec)
	q.HandleRecommendation(h2, body2)
	if e := q.Routes()[1]; e.Source != SourceNone {
		t.Error("recommendation from wrong view installed")
	}
}

func TestBestHopEdgeCases(t *testing.T) {
	c := newCluster(t, 9, 31, "quorum", QuorumConfig{Interval: 15 * time.Second})
	q := c.routers[0].(*Quorum)
	if _, ok := q.BestHop(0); ok {
		t.Error("BestHop(self) returned a route")
	}
	if _, ok := q.BestHop(-1); ok {
		t.Error("BestHop(-1) returned a route")
	}
	if _, ok := q.BestHop(99); ok {
		t.Error("BestHop(99) returned a route")
	}
	// Before any protocol activity the fallback can still return the direct
	// link (from the self row).
	e, ok := q.BestHop(3)
	if !ok || e.Source != SourceFallback {
		t.Errorf("pre-protocol BestHop = %+v ok=%v", e, ok)
	}
}

func TestRouteSourceString(t *testing.T) {
	for _, s := range []RouteSource{SourceNone, SourceRendezvous, SourceSelf, SourceFallback} {
		if s.String() == "" {
			t.Errorf("empty name for %d", s)
		}
	}
}

func TestQuorumRejectsSingleNodeViewGracefully(t *testing.T) {
	// A single-node overlay routes to nobody but must construct fine.
	nw := simnet.New(1, 1)
	reg := transport.NewRegistry()
	env := transport.NewSimEnv(nw, reg, 0, 1)
	env.SetLocalID(0)
	view := membership.NewStaticView([]wire.NodeID{0})
	q, err := NewQuorum(env, QuorumConfig{}, view, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.SelfRow = func() []wire.LinkEntry { return []wire.LinkEntry{{}} }
	q.LinkAlive = func(int) bool { return true }
	q.Tick() // no peers: must not panic
	if len(q.Routes()) != 1 {
		t.Error("routes sized wrong")
	}
}

func TestReliableLinkStateRetransmits(t *testing.T) {
	// Under heavy loss, reliable mode must retransmit unacknowledged rows
	// and keep the overlay converged.
	n := 16
	r := 15 * time.Second
	c := newCluster(t, n, 41, "quorum", QuorumConfig{Interval: r, ReliableLinkState: true})
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			c.nw.SetLoss(a, b, 0.25)
		}
	}
	c.nw.RunFor(6 * r)
	retrans := uint64(0)
	for _, router := range c.routers {
		retrans += router.(*Quorum).Stats().Retransmits
	}
	if retrans == 0 {
		t.Error("no retransmissions under 25% loss")
	}
	// Convergence: with retransmission, nearly all routes exist and are
	// optimal despite the loss.
	missing := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if e, ok := c.routers[a].BestHop(b); !ok || e.Cost != c.oracle(a, b) {
				missing++
			}
		}
	}
	if missing > n { // allow a small transient tail
		t.Errorf("%d of %d routes missing/suboptimal despite reliable mode", missing, n*(n-1))
	}
}

func TestReliableModeAcksStopRetransmission(t *testing.T) {
	// On a lossless network reliable mode must not retransmit at all.
	c := newCluster(t, 9, 43, "quorum", QuorumConfig{Interval: 15 * time.Second, ReliableLinkState: true})
	c.nw.RunFor(2 * time.Minute)
	for i, router := range c.routers {
		if got := router.(*Quorum).Stats().Retransmits; got != 0 {
			t.Errorf("node %d retransmitted %d times on a lossless network", i, got)
		}
	}
	c.assertAllOptimal()
}

func TestRetransmitSurvivesFailoverRecruitment(t *testing.T) {
	// Reliable mode: a failover recruitment between round 1 and the
	// retransmit timeout must not cancel the pending retransmission. The
	// old code bumped q.seq for the failover push, tripping the closure's
	// seq != q.seq guard and silently dropping every outstanding
	// retransmission.
	nw := simnet.New(1, 1)
	reg := transport.NewRegistry()
	env := transport.NewSimEnv(nw, reg, 0, 1)
	env.SetLocalID(0)
	ids := make([]wire.NodeID, 9)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	view := membership.NewStaticView(ids)
	q, err := NewQuorum(env, QuorumConfig{
		Interval:          15 * time.Second,
		ReliableLinkState: true,
	}, view, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]wire.LinkEntry, 9)
	for i := range row {
		row[i] = wire.LinkEntry{Latency: 10, Status: wire.MakeStatus(true, 0)}
	}
	lsdb.SelfRow(0, row)
	q.SelfRow = func() []wire.LinkEntry { return row }
	q.LinkAlive = func(slot int) bool { return true }

	// Round 1: no other endpoints exist, so no acks ever arrive.
	q.sendLinkState()
	pending := 0
	for _, seq := range q.pendingAcks {
		if seq != 0 {
			pending++
		}
	}
	if pending == 0 {
		t.Fatal("no pending acks after round 1")
	}

	// A failover recruitment lands mid-interval.
	q.failovers = []failoverState{{dst: 5, server: -1, tried: make(map[int]bool)}}
	fo := &q.failovers[0]
	q.recruitFailover(5, fo)
	if fo.server < 0 {
		t.Fatal("no failover recruited")
	}

	nw.RunFor(3 * time.Second)
	if got := q.Stats().Retransmits; got != uint64(pending) {
		t.Errorf("retransmits = %d, want %d (failover recruitment cancelled them)", got, pending)
	}
}

// recordingEnv digests what its router sends instead of delivering it, so a
// router's output can be pinned byte for byte, and keeps the last payload
// sent to each addressee.
type recordingEnv struct {
	*transport.SimEnv
	sent hash.Hash
	last map[wire.NodeID][]byte
}

func (e *recordingEnv) Send(to wire.NodeID, payload []byte) {
	e.sent.Write([]byte{byte(to >> 8), byte(to)})
	e.sent.Write(payload)
	e.last[to] = payload
}

// round2Fixture builds a rendezvous at slot 0 of a 625-slot static view
// (25×25 grid: 48 clients) holding a fresh row from every client, on a
// symmetric or a directional table, whose env digests what it sends.
func round2Fixture(tb testing.TB, directional bool) (*Quorum, *recordingEnv) {
	tb.Helper()
	const n = 625
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	view := membership.NewStaticView(ids)
	rng := rand.New(rand.NewSource(7))
	rows := make([][]wire.AsymEntry, n) // symmetric mode announces the Out half
	for s := range rows {
		rows[s] = make([]wire.AsymEntry, n)
		for j := range rows[s] {
			st := wire.MakeStatus(true, 0)
			if rng.Intn(20) == 0 {
				st = wire.StatusDead
			}
			rows[s][j] = wire.AsymEntry{Out: uint16(5 + rng.Intn(400)), In: uint16(5 + rng.Intn(400)), Status: st}
		}
		rows[s][s] = wire.AsymEntry{Status: wire.MakeStatus(true, 0)}
	}
	symmetric := func(s int) []wire.LinkEntry {
		row := make([]wire.LinkEntry, n)
		for j, e := range rows[s] {
			row[j] = wire.LinkEntry{Latency: e.Out, Status: e.Status}
		}
		return row
	}
	env := &recordingEnv{SimEnv: transport.NewSimEnv(simnet.New(1, 1), transport.NewRegistry(), 0, 1), sent: sha256.New(), last: map[wire.NodeID][]byte{}}
	env.SetLocalID(0)
	q, err := NewQuorum(env, QuorumConfig{Asymmetric: directional}, view, 0)
	if err != nil {
		tb.Fatal(err)
	}
	q.SelfRow = func() []wire.LinkEntry { return symmetric(0) }
	q.SelfAsymRow = func() []wire.AsymEntry { return rows[0] }
	q.LinkAlive = func(int) bool { return true }
	for _, c := range q.Grid().Clients(0) {
		if directional {
			putAsym(tb, q.Table(), c, env.Now(), rows[c])
		} else {
			q.Table().Put(c, lsdb.Row{Seq: 1, When: env.Now(), Entries: symmetric(c)})
		}
	}
	return q, env
}

// TestQuorumRound2Golden pins the bytes round 2 sends: the SHA-256 of every
// recommendation, addressee first, in send order, on round2Fixture's
// symmetric and directional tables.
func TestQuorumRound2Golden(t *testing.T) {
	for _, tc := range []struct {
		directional bool
		want        string
	}{
		{false, "7d4fdde387f5fc9c79f3d0b7578bb385c695c9da3f80a372f7f2ce0351ca58ae"},
		{true, "0c78ce27581923a6a56517733add9b1b714063cb7ada7fc1d118b2d4a26345d5"},
	} {
		q, env := round2Fixture(t, tc.directional)
		q.sendRecommendations()
		if st := q.Stats(); st.RecommendationsSent != uint64(len(q.Grid().Clients(0))) {
			t.Fatalf("directional=%v: %d recommendations for %d clients", tc.directional, st.RecommendationsSent, len(q.Grid().Clients(0)))
		}
		if got := hex.EncodeToString(env.sent.Sum(nil)); got != tc.want {
			t.Errorf("directional=%v: round 2 sent %s, want %s", tc.directional, got, tc.want)
		}
	}
}

// TestQuorumRound2SaysTheSame pins what round 2 says, whatever its encoding:
// per addressee in slot order, the (dst, hop, cost) set its recommendation
// decodes to, sorted, on round2Fixture's symmetric and directional tables.
func TestQuorumRound2SaysTheSame(t *testing.T) {
	for _, tc := range []struct {
		directional bool
		want        string
	}{
		{false, "dfadb8b60060983c03f9c8d0ccabc800eab221e123b65c2f27f68be5d4ec0322"},
		{true, "aa319d038bf04cff9403ccd1023436986cd398a88f890cb7020abb7ea5554c30"},
	} {
		q, env := round2Fixture(t, tc.directional)
		q.sendRecommendations()
		sum := sha256.New()
		for _, c := range q.Grid().Clients(0) {
			entries := decodeRound2(t, q, c, env.last[q.view.IDAt(c)])
			slices.SortFunc(entries, func(a, b wire.RecEntry) int { return cmp.Compare(a.Dst, b.Dst) })
			fmt.Fprintf(sum, "%d:", c)
			for _, e := range entries {
				fmt.Fprintf(sum, " %d/%d/%d", e.Dst, e.Hop, e.Cost)
			}
			fmt.Fprintln(sum)
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != tc.want {
			t.Errorf("directional=%v: round 2 says %s, want %s", tc.directional, got, tc.want)
		}
	}
}

// decodeRound2 decodes what rendezvous q sent the client at slot c. A run
// form names its destinations by the run c holds for q, rebuilt here from the
// grid: q's clients and q, ascending, less c.
func decodeRound2(tb testing.TB, q *Quorum, c int, msg []byte) []wire.RecEntry {
	tb.Helper()
	h, body, err := wire.ParseHeader(msg)
	if err != nil || h.Type != wire.TRecommendation || h.Src != q.env.LocalID() {
		tb.Fatalf("slot %d was sent no recommendation from %d: %+v %v", c, q.env.LocalID(), h, err)
	}
	rec, err := wire.RecommendationBody(body)
	if err != nil {
		tb.Fatalf("slot %d's recommendation: %v", c, err)
	}
	run := gridRun(q.Grid(), q.self, c)
	if rec.ByRun && rec.Run != len(run) {
		tb.Fatalf("slot %d's recommendation spans a run of %d, it holds %d", c, rec.Run, len(run))
	}
	var out []wire.RecEntry
	for p := rec.NextRun(0); p < rec.Run; p = rec.NextRun(p + 1) {
		e := rec.Entry(len(out))
		e.Dst = q.view.IDAt(run[p])
		out = append(out, e)
	}
	for i := len(out); i < rec.Entries; i++ {
		out = append(out, rec.Entry(i))
	}
	return out
}

// TestQuorumPairPassAllocatesNothing: once a tick has sized round 2's
// buffers, the pass over the client pairs allocates nothing — the kernels'
// source row and output live on the router, the messages are the caller's.
func TestQuorumPairPassAllocatesNothing(t *testing.T) {
	for _, directional := range []bool{false, true} {
		q, env := round2Fixture(t, directional)
		q.Tick()
		clients := q.table.FreshSlots(nil, env.Now(), q.cfg.Staleness)
		msgs := q.messages(clients)
		if allocs := testing.AllocsPerRun(10, func() { q.clientPairs(clients, msgs) }); allocs != 0 {
			t.Errorf("directional=%v: the pair pass over %d clients allocates %.0f times", directional, len(clients), allocs)
		}
	}
}
