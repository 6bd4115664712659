// Package overlay assembles the full overlay node of §5: the membership
// client, the link monitor, and the router (quorum or full-mesh) sharing one
// transport environment. The node is a sans-IO state machine — identical
// code runs under the deterministic simulator (all experiments) and over
// real UDP (cmd/overlayd).
package overlay

import (
	"fmt"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/membership"
	"allpairs/internal/probe"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// Algorithm selects the routing algorithm.
type Algorithm int

// Routing algorithms.
const (
	// AlgQuorum is the paper's grid-quorum two-round algorithm.
	AlgQuorum Algorithm = iota
	// AlgFullMesh is the RON-style full-mesh link-state baseline.
	AlgFullMesh
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == AlgFullMesh {
		return "fullmesh"
	}
	return "quorum"
}

// Config assembles the node's component configurations. The zero value uses
// the paper's parameters: p = 30 s, quorum r = 15 s (full-mesh r = 30 s),
// 5-probe failure detection.
type Config struct {
	// Algorithm selects quorum or full-mesh routing.
	Algorithm Algorithm
	// Probe tunes the link monitor. Its Asymmetric is not read: the node
	// sets it exactly when a quorum router runs with Quorum.Asymmetric.
	Probe probe.Config
	// Quorum tunes the quorum router (used when Algorithm == AlgQuorum).
	Quorum core.QuorumConfig
	// FullMesh tunes the baseline router (used when Algorithm ==
	// AlgFullMesh).
	FullMesh core.FullMeshConfig
	// Membership tunes the membership client (dynamic mode only).
	Membership membership.ClientConfig
	// StaticView, if non-nil, skips the join protocol entirely: the node
	// assumes this view and requires StaticID to be its own member ID. This
	// is how the emulation harness runs, mirroring the paper's emulations
	// which measure steady state rather than admission.
	StaticView *membership.ViewInfo
	// StaticID is the node's ID under StaticView.
	StaticID wire.NodeID
}

// Route is the public form of a routing decision, expressed in node IDs.
type Route struct {
	// Dst is the destination.
	Dst wire.NodeID
	// Hop is the recommended next hop; Hop == Dst means send directly.
	Hop wire.NodeID
	// Cost is the total path latency estimate in milliseconds.
	Cost wire.Cost
	// Source tells how the route was learned.
	Source core.RouteSource
}

// Node is a full overlay participant.
type Node struct {
	env    transport.Env
	cfg    Config
	mc     *membership.Client // nil in static mode
	prober *probe.Prober
	router core.Router
	view   *membership.ViewInfo
	self   int
	ticker transport.Timer

	// OnData, if non-nil, receives application datagrams addressed to this
	// node (see SendData). origin is the overlay node that first sent the
	// packet; the payload may be kept without a copy, but not written
	// (transport.Handler).
	OnData func(origin wire.NodeID, payload []byte)
}

// New creates a node on env. Call Start to begin operation.
func New(env transport.Env, cfg Config) *Node {
	n := &Node{env: env, cfg: cfg, self: -1}
	env.Bind(n.handlePacket)
	return n
}

// Env returns the node's transport environment.
func (n *Node) Env() transport.Env { return n.env }

// Start begins operation: in static mode the components start immediately;
// in dynamic mode the node first joins through the coordinator (whose
// address must already be bound to membership.CoordinatorID via
// env.SetPeer).
func (n *Node) Start() error {
	if n.cfg.StaticView != nil {
		n.env.SetLocalID(n.cfg.StaticID)
		return n.installView(n.cfg.StaticView)
	}
	n.mc = membership.NewClient(n.env, n.cfg.Membership, func(v *membership.ViewInfo) { _ = n.installView(v) })
	n.mc.Start()
	return nil
}

// installView (re)configures the probing and routing components for a view.
func (n *Node) installView(v *membership.ViewInfo) error {
	self, ok := v.SlotOf(n.env.LocalID())
	if !ok {
		return fmt.Errorf("overlay: node %d not in view %d", n.env.LocalID(), v.VersionNum())
	}
	n.view = v
	n.self = self

	if n.prober == nil {
		pc := n.cfg.Probe // footnote 2: one-way latencies for a quorum router in asymmetric mode
		pc.Asymmetric = n.cfg.Algorithm == AlgQuorum && n.cfg.Quorum.Asymmetric
		n.prober = probe.New(n.env, pc, v, self)
		n.prober.Start()
	} else {
		n.prober.SetView(v, self)
	}

	// The router is created once and wired to the prober; every later view
	// goes through SetView.
	switch {
	case n.router != nil:
		if err := n.router.SetView(v, self); err != nil {
			return err
		}
	case n.cfg.Algorithm == AlgFullMesh:
		fm := core.NewFullMesh(n.env, n.cfg.FullMesh, v, self)
		fm.SelfRow = n.prober.Row
		fm.LinkAlive = n.prober.Alive
		n.router = fm
	default:
		q, err := core.NewQuorum(n.env, n.cfg.Quorum, v, self)
		if err != nil {
			return err
		}
		q.SelfRow = n.prober.Row
		q.SelfAsymRow = n.prober.AsymRow
		q.LinkAlive = n.prober.Alive
		q.LinkResolved = n.prober.Resolved
		n.router = q
	}

	n.scheduleTicks()
	return nil
}

// scheduleTicks (re)starts the routing interval timer with a random initial
// phase and a small per-tick jitter (±interval/32), so the fleet's rounds
// interleave and drift as they do on real, loaded hosts instead of staying
// phase-locked to the simulator clock.
func (n *Node) scheduleTicks() {
	if n.ticker != nil {
		n.ticker.Stop()
	}
	interval := n.router.Interval()
	jitter := interval / 32
	first := time.Duration(n.env.Rand().Int63n(int64(interval)))
	var tick func()
	tick = func() {
		n.router.Tick()
		next := interval - jitter + time.Duration(n.env.Rand().Int63n(int64(2*jitter)))
		n.ticker = n.env.After(next, tick)
	}
	n.ticker = n.env.After(first, tick)
}

// Stop halts the node's timers and announces departure to the coordinator.
// In-flight state is retained.
func (n *Node) Stop() {
	n.Halt()
	if n.mc != nil {
		n.mc.Leave()
	}
}

// Halt stops all timers without announcing departure — a crash, as the churn
// harness injects it. The coordinator only learns of the node's death when
// its membership lease expires.
func (n *Node) Halt() {
	if n.ticker != nil {
		n.ticker.Stop()
	}
	if n.prober != nil {
		n.prober.Stop()
	}
	if n.mc != nil {
		n.mc.Stop()
	}
}

// handlePacket dispatches an incoming datagram to the owning component.
func (n *Node) handlePacket(from wire.NodeID, payload []byte) {
	h, body, err := wire.ParseHeader(payload)
	if err != nil {
		return
	}
	n.dispatch(h, body)
}

// dispatch hands a message to the owning component. It is the one place
// that sees both planes, so it also hands the membership client the view
// version every routing message is stamped with: how a member that missed a
// view change learns it (a heartbeat draws no answer). The router parses each
// row, delta and recommendation once and returns that version, whether or not
// it keeps the message. A recommendation may carry its sender's row behind it,
// which only the router's table can read (wire.SplitRecommendation against
// Router.Shape): the router takes the two parts as the split read them, and
// a datagram either part of which is malformed is dropped whole.
func (n *Node) dispatch(h wire.Header, body []byte) {
	switch h.Type {
	case wire.TProbe:
		if n.prober != nil {
			n.prober.HandleProbe(h, body)
		}
	case wire.TProbeReply:
		if n.prober != nil {
			n.prober.HandleReply(h, body)
		}
	case wire.TLinkState, wire.TLinkStateAsym, wire.TLinkStateDelta, wire.TLinkStateAck:
		if n.router != nil {
			if version, ok := n.router.HandleLinkState(h, body); ok && n.mc != nil {
				n.mc.HeardVersion(h.Src, version)
			}
		}
	case wire.TRecommendation:
		if n.router == nil {
			return
		}
		rec, ride, err := wire.SplitRecommendation(body, n.router.Shape())
		if err != nil {
			return
		}
		if version, ok := n.router.HandleRide(h, rec, ride); ok && n.mc != nil {
			n.mc.HeardVersion(h.Src, version)
		}
	case wire.THeartbeatAck, wire.TViewChunk, wire.TGossipDelta,
		wire.TViewPull, wire.TViewPullReply:
		if n.mc != nil {
			n.mc.HandlePacket(h, body)
		}
	case wire.TData:
		n.handleData(body)
	}
}

// Ready reports whether the node has a view and running components.
func (n *Node) Ready() bool { return n.view != nil }

// View returns the current membership view (nil before the first view).
func (n *Node) View() *membership.ViewInfo { return n.view }

// Slot returns the node's grid slot in the current view (-1 before ready).
//
//lint:testonly TestFullMeshRoutesMatchOracleUnderChurn (emul) skips the node's own slot
func (n *Node) Slot() int { return n.self }

// Router exposes the routing component for instrumentation.
func (n *Node) Router() core.Router { return n.router }

// Prober exposes the link monitor for instrumentation.
func (n *Node) Prober() *probe.Prober { return n.prober }

// MembershipStats returns the membership client's gossip/repair counters
// (zero value before Start). Call from within env.Do.
func (n *Node) MembershipStats() membership.ClientStats {
	if n.mc == nil {
		return membership.ClientStats{}
	}
	return n.mc.Stats()
}

// BestHop returns the current best one-hop route to the given node. It must
// be called from within env.Do (or between simulator steps).
func (n *Node) BestHop(dst wire.NodeID) (Route, bool) {
	if n.view == nil || n.router == nil {
		return Route{}, false
	}
	slot, ok := n.view.SlotOf(dst)
	if !ok {
		return Route{}, false
	}
	e, ok := n.router.BestHop(slot)
	if !ok {
		return Route{}, false
	}
	hopID := dst
	if e.Hop >= 0 && e.Hop != slot {
		// A hop slot tombstoned since the route was computed falls back to
		// the direct path rather than surfacing NilNode.
		if id := n.view.IDAt(e.Hop); id != wire.NilNode {
			hopID = id
		}
	}
	return Route{Dst: dst, Hop: hopID, Cost: e.Cost, Source: e.Source}, true
}

// RouteTable returns the node's full route table keyed by destination ID.
// Call from within env.Do.
func (n *Node) RouteTable() []Route {
	if n.view == nil || n.router == nil {
		return nil
	}
	var out []Route
	for slot := 0; slot < n.view.Slots(); slot++ {
		if slot == n.self || !n.view.Occupied(slot) {
			continue
		}
		if r, ok := n.BestHop(n.view.IDAt(slot)); ok {
			out = append(out, r)
		}
	}
	return out
}
