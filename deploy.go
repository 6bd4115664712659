package allpairs

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/membership"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// NodeOptions configures a real UDP overlay node.
type NodeOptions struct {
	// Listen is the UDP listen address, e.g. ":4400".
	Listen string
	// Advertise is the externally reachable address announced to the
	// membership coordinator; empty means the socket's local address.
	Advertise string
	// Coordinator is the membership coordinator address, e.g.
	// "198.51.100.7:4400". A replicated coordinator set is given as a
	// comma-separated list in rank order ("a:4400,b:4400,c:4400"); the node
	// sends its joins and heartbeats to every replica, and the primary serves
	// them: a heartbeat renews the node's lease and draws no answer unless
	// the primary seats no member under its ID. Required.
	Coordinator string
	// Algorithm selects Quorum (default) or FullMesh routing.
	Algorithm Algorithm
	// RoutingInterval and ProbeInterval override the paper's defaults
	// (quorum r = 15 s, full-mesh r = 30 s, p = 30 s).
	RoutingInterval time.Duration
	ProbeInterval   time.Duration
	// Asymmetric enables per-direction routing from one-way latency
	// estimates (footnote 2). Requires closely synchronized clocks across
	// the overlay (NTP-grade); quorum algorithm only.
	Asymmetric bool
	// ReliableLinkState enables acknowledged, once-retransmitted round-1
	// rows (§6.2.2's option). Must be set overlay-wide.
	ReliableLinkState bool
	// Seed for the node's randomness; 0 derives one from the current time.
	Seed int64
}

// Node is a live overlay node on a UDP socket.
type Node struct {
	env  *transport.UDPEnv
	node *overlay.Node
}

// StartNode opens the socket, joins through the coordinator, and begins
// probing and routing.
func StartNode(opt NodeOptions) (*Node, error) {
	var coords []netip.AddrPort
	for _, a := range strings.Split(opt.Coordinator, ",") {
		ap, err := netip.ParseAddrPort(strings.TrimSpace(a))
		if err != nil {
			return nil, fmt.Errorf("allpairs: coordinator address %q: %w", a, err)
		}
		coords = append(coords, ap)
	}
	var adv netip.AddrPort
	var err error
	if opt.Advertise != "" {
		adv, err = netip.ParseAddrPort(opt.Advertise)
		if err != nil {
			return nil, fmt.Errorf("allpairs: advertise address: %w", err)
		}
	}
	seed := opt.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	env, err := transport.NewUDPEnv(opt.Listen, adv, seed)
	if err != nil {
		return nil, err
	}
	coordIDs := membership.CoordinatorIDs(len(coords))
	var node *overlay.Node
	var startErr error
	env.Do(func() {
		for r, ap := range coords {
			env.SetPeer(coordIDs[r], ap)
		}
		node = overlay.New(env, overlay.Config{
			Algorithm: opt.Algorithm,
			Probe:     probe.Config{Interval: opt.ProbeInterval},
			Quorum: core.QuorumConfig{
				Interval:          opt.RoutingInterval,
				Asymmetric:        opt.Asymmetric,
				ReliableLinkState: opt.ReliableLinkState,
			},
			FullMesh:   core.FullMeshConfig{Interval: opt.RoutingInterval},
			Membership: membership.ClientConfig{Coordinators: coordIDs},
		})
		startErr = node.Start()
	})
	if startErr != nil {
		env.Close()
		return nil, startErr
	}
	return &Node{env: env, node: node}, nil
}

// ID returns the node's assigned overlay ID (NilNode until joined).
func (n *Node) ID() NodeID {
	id := wire.NilNode
	n.env.Do(func() { id = n.env.LocalID() })
	return id
}

// Ready reports whether the node has joined and holds a membership view.
func (n *Node) Ready() bool {
	ready := false
	n.env.Do(func() { ready = n.node.Ready() })
	return ready
}

// Members returns the IDs in the current view.
func (n *Node) Members() []NodeID {
	var out []NodeID
	n.env.Do(func() {
		if v := n.node.View(); v != nil {
			for _, m := range v.Members() {
				out = append(out, m.ID)
			}
		}
	})
	return out
}

// BestHop returns the current best one-hop route to dst. Safe for
// concurrent use.
func (n *Node) BestHop(dst NodeID) (Route, bool) {
	var r Route
	var ok bool
	n.env.Do(func() { r, ok = n.node.BestHop(dst) })
	return r, ok
}

// RouteTable returns the node's full route table. Safe for concurrent use.
func (n *Node) RouteTable() []Route {
	var out []Route
	n.env.Do(func() { out = n.node.RouteTable() })
	return out
}

// Close leaves the overlay and releases the socket.
func (n *Node) Close() error {
	n.env.Do(func() { n.node.Stop() })
	return n.env.Close()
}

// Coordinator is a live membership coordinator on a UDP socket.
type Coordinator struct {
	env   *transport.UDPEnv
	coord *membership.Coordinator
}

// CoordinatorOptions configures one replica of the membership coordinator
// set.
type CoordinatorOptions struct {
	// Listen is the UDP listen address.
	Listen string
	// Rank is this replica's position in the set: rank 0 boots as primary,
	// higher ranks stand by and promote in rank order when the primary's
	// beacons go silent.
	Rank int
	// Peers lists every replica's externally reachable address in rank
	// order; the entry at Rank (this process) may be empty. A nil/single
	// list runs the classic solo coordinator.
	Peers []string
	// Logf, if non-nil, receives admission, expiry, and election events.
	Logf func(string, ...any)
}

// StartCoordinator opens a UDP socket and serves membership as one replica of
// a coordinator set, or as a solo coordinator when opt.Peers lists at most
// one replica.
func StartCoordinator(opt CoordinatorOptions) (*Coordinator, error) {
	n := len(opt.Peers)
	if n < 1 {
		n = 1
	}
	if opt.Rank < 0 || opt.Rank >= n {
		return nil, fmt.Errorf("allpairs: coordinator rank %d outside replica set of %d", opt.Rank, n)
	}
	// peers[r] is replica r's address; the zero AddrPort for this process
	// and for ranks left empty.
	peers := make([]netip.AddrPort, len(opt.Peers))
	for r, a := range opt.Peers {
		a = strings.TrimSpace(a)
		if r == opt.Rank || a == "" {
			continue
		}
		ap, err := netip.ParseAddrPort(a)
		if err != nil {
			return nil, fmt.Errorf("allpairs: coordinator peer %q: %w", a, err)
		}
		peers[r] = ap
	}
	env, err := transport.NewUDPEnv(opt.Listen, netip.AddrPort{}, time.Now().UnixNano())
	if err != nil {
		return nil, err
	}
	ids := membership.CoordinatorIDs(n)
	c := membership.NewCoordinator(env, membership.CoordinatorConfig{
		Coordinators: ids,
		Rank:         opt.Rank,
		Logf:         opt.Logf,
	})
	env.Do(func() {
		for r, ap := range peers {
			if ap.IsValid() {
				env.SetPeer(ids[r], ap)
			}
		}
		c.Start()
	})
	return &Coordinator{env: env, coord: c}, nil
}

// Addr returns the coordinator's socket address.
func (c *Coordinator) Addr() netip.AddrPort { return c.env.LocalAddr() }

// IsPrimary reports whether this replica currently leads the set.
func (c *Coordinator) IsPrimary() bool {
	p := false
	c.env.Do(func() { p = c.coord.IsPrimary() })
	return p
}

// MemberCount returns the number of admitted members.
func (c *Coordinator) MemberCount() int {
	n := 0
	c.env.Do(func() { n = c.coord.MemberCount() })
	return n
}

// Close shuts the coordinator down.
func (c *Coordinator) Close() error { return c.env.Close() }
