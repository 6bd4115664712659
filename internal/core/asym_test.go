package core

import (
	"math/rand"
	"testing"
	"time"

	"allpairs/internal/membership"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// asymCluster wires quorum routers in asymmetric mode over a directed
// ground-truth cost matrix.
type asymCluster struct {
	t       *testing.T
	nw      *simnet.Network
	routers []*Quorum
	n       int
	cost    [][]wire.Cost // directed: cost[i][j] is i→j
	dead    [][]bool      // symmetric link failures
}

func newAsymCluster(t *testing.T, n int, seed int64) *asymCluster {
	t.Helper()
	c := &asymCluster{t: t, n: n, nw: simnet.New(n, seed)}
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	view := membership.NewStaticView(ids)
	rng := rand.New(rand.NewSource(seed))
	c.cost = make([][]wire.Cost, n)
	c.dead = make([][]bool, n)
	for i := 0; i < n; i++ {
		c.cost[i] = make([]wire.Cost, n)
		c.dead[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				c.cost[i][j] = wire.Cost(5 + rng.Intn(400)) // directed, independent
				c.nw.SetLatencyOneWay(i, j, 3*time.Millisecond)
			}
		}
	}

	reg := transport.NewRegistry()
	for i := 0; i < n; i++ {
		i := i
		env := transport.NewSimEnv(c.nw, reg, i, seed+int64(i)+1)
		env.SetLocalID(wire.NodeID(i))
		q, err := NewQuorum(env, QuorumConfig{Interval: 15 * time.Second, Asymmetric: true}, view, i)
		if err != nil {
			t.Fatal(err)
		}
		q.SelfRow = func() []wire.LinkEntry { return make([]wire.LinkEntry, n) }
		q.SelfAsymRow = func() []wire.AsymEntry {
			row := make([]wire.AsymEntry, n)
			for j := 0; j < n; j++ {
				switch {
				case j == i:
					row[j] = wire.AsymEntry{Status: wire.MakeStatus(true, 0)}
				case c.dead[i][j]:
					row[j] = wire.AsymEntry{Status: wire.StatusDead}
				default:
					row[j] = wire.AsymEntry{
						Out:    uint16(c.cost[i][j]),
						In:     uint16(c.cost[j][i]),
						Status: wire.MakeStatus(true, 0),
					}
				}
			}
			return row
		}
		q.LinkAlive = func(slot int) bool { return slot == i || !c.dead[i][slot] }
		env.Bind(func(from wire.NodeID, payload []byte) { deliver(q, payload) })
		c.routers = append(c.routers, q)
		// Staggered ticks.
		offset := time.Duration(i) * 15 * time.Second / time.Duration(n)
		var tick func()
		tick = func() {
			q.Tick()
			env.After(15*time.Second, tick)
		}
		env.After(offset, tick)
	}
	return c
}

// oracle computes the directed optimal one-hop cost a→b.
func (c *asymCluster) oracle(a, b int) wire.Cost {
	cost := func(x, y int) wire.Cost {
		if x == y {
			return 0
		}
		if c.dead[x][y] {
			return wire.InfCost
		}
		return c.cost[x][y]
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

func TestAsymmetricQuorumFindsDirectionalOptima(t *testing.T) {
	c := newAsymCluster(t, 25, 7)
	rides := countRides(c.nw, wire.TLinkStateAsym) // directional rows ride too
	c.nw.RunFor(4 * 15 * time.Second)
	if *rides == 0 {
		t.Error("no directional row rode behind a recommendation")
	}

	asymmetricPairs := 0
	for a := 0; a < c.n; a++ {
		for b := 0; b < c.n; b++ {
			if a == b {
				continue
			}
			want := c.oracle(a, b)
			e, ok := c.routers[a].BestHop(b)
			if !ok || e.Cost != want {
				t.Errorf("route %d→%d: got %v/%v, want %d", a, b, e.Cost, ok, want)
				if asymmetricPairs > 10 {
					t.FailNow()
				}
				continue
			}
			if c.oracle(a, b) != c.oracle(b, a) {
				asymmetricPairs++
			}
		}
	}
	// The random directed matrix must actually exercise asymmetry.
	if asymmetricPairs == 0 {
		t.Error("no directionally asymmetric pairs in the workload")
	}
}

func TestAsymmetricHopsDifferPerDirection(t *testing.T) {
	c := newAsymCluster(t, 16, 3)
	c.nw.RunFor(time.Minute)
	differ := false
	for a := 0; a < c.n && !differ; a++ {
		for b := a + 1; b < c.n; b++ {
			ea, oka := c.routers[a].BestHop(b)
			eb, okb := c.routers[b].BestHop(a)
			if oka && okb && ea.Hop != b && eb.Hop != a && ea.Hop != eb.Hop {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Log("no pair with direction-dependent hops under this seed (acceptable but unusual)")
	}
}

func TestAsymmetricFallback(t *testing.T) {
	c := newAsymCluster(t, 9, 5)
	c.nw.RunFor(time.Minute)
	q := c.routers[0]
	// Kill every rendezvous for destination 8 plus the direct link, with
	// failover disabled the fallback must still find a route from neighbor
	// rows.
	q.cfg.disableFailover = true
	for _, k := range q.Grid().Common(0, 8) {
		if k != 0 {
			c.dead[0][k], c.dead[k][0] = true, true
			c.nw.SetLinkDown(0, k, true)
		}
	}
	c.dead[0][8], c.dead[8][0] = true, true
	c.nw.SetLinkDown(0, 8, true)
	c.nw.RunFor(2 * time.Minute)
	e, ok := q.BestHop(8)
	if !ok {
		t.Fatal("no route after rendezvous loss")
	}
	if e.Hop == 8 {
		t.Error("fallback chose the dead direct link")
	}
}

func TestAsymmetricMessageFormatRejected(t *testing.T) {
	// A symmetric-mode router must ignore asymmetric rows and vice versa; the
	// full-mesh baseline's table is symmetric. Each wrong-format row carries
	// exactly as many entry bytes as the router's own rows (15 symmetric
	// entries are 9 directional ones), so only the format check refuses it,
	// and the same bytes in the router's format are taken.
	symRow := wire.AppendLinkState(nil, 3, wire.LinkState{ViewVersion: 1, Seq: 1, Entries: make([]wire.LinkEntry, 15)})
	asymRow := wire.AppendLinkStateAsym(nil, 3, wire.LinkStateAsym{ViewVersion: 1, Seq: 1, Entries: make([]wire.AsymEntry, 9)})
	for _, tc := range []struct {
		name       string
		router     Router
		wrong, own []byte
	}{
		{"symmetric row into asymmetric router", newAsymCluster(t, 9, 9).routers[0], symRow, asymRow},
		{"directional row into symmetric router", newCluster(t, 15, 9, "quorum", QuorumConfig{}).routers[0], asymRow, symRow},
		{"directional row into the full mesh", newCluster(t, 15, 9, "fullmesh", QuorumConfig{}).routers[0], asymRow, symRow},
	} {
		deliver := func(msg []byte) (stored bool) {
			h, body, err := wire.ParseHeader(msg)
			if err != nil {
				t.Fatal(err)
			}
			tc.router.HandleLinkState(h, body)
			return rowsOf(tc.router).Table().Have(3)
		}
		if deliver(tc.wrong) {
			t.Errorf("%s: stored", tc.name)
		}
		if !deliver(tc.own) {
			t.Errorf("%s: the same entry bytes in the router's own format were not stored", tc.name)
		}
	}
}
