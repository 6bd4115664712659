// Package core implements the paper's primary contribution: the two-round
// grid-quorum routing algorithm that gives every node in a full-mesh overlay
// its provably optimal one-hop route to every other node with Θ(n√n)
// per-node communication (§3), together with the failure-handling machinery
// of §4, the multi-hop extension, and the RON-style full-mesh link-state
// baseline (§5) it is evaluated against.
//
// Routers are sans-IO state machines: a host (internal/overlay) dispatches
// incoming routing messages to them, calls Tick every routing interval, and
// supplies the local measurements through callbacks. All slots are indices
// into the current membership view. A router is the shared row core
// (rowCore: rows, view install, §4.2's BestHop) plus its rounds.
package core

import (
	"time"

	"allpairs/internal/membership"
	"allpairs/internal/wire"
)

// RouteSource records how a route table entry was learned.
type RouteSource uint8

// Route sources.
const (
	// SourceNone marks an empty entry.
	SourceNone RouteSource = iota
	// SourceRendezvous marks a recommendation received from a rendezvous
	// server in round 2.
	SourceRendezvous
	// SourceSelf marks a route the node computed acting as its own
	// rendezvous (the destination is one of its rendezvous clients).
	SourceSelf
	// SourceFallback marks a route computed from neighbors' link-state rows
	// (§4.2's redundant-information fallback), produced only by BestHop.
	SourceFallback
	// SourceStale marks a last-known-good route served past its TTL under
	// degraded-mode damping: the membership view went stale (coordinator
	// failover, partition) and routing keeps the old entry with a cost
	// penalty rather than blanking the route. Produced only by BestHop when
	// a DegradedHold is configured.
	SourceStale
)

// String names the source.
func (s RouteSource) String() string {
	switch s {
	case SourceRendezvous:
		return "rendezvous"
	case SourceSelf:
		return "self"
	case SourceFallback:
		return "fallback"
	case SourceStale:
		return "stale"
	default:
		return "none"
	}
}

// RouteEntry is one destination's entry in a node's route table.
type RouteEntry struct {
	// Hop is the slot of the best one-hop intermediary; Hop == Dst means the
	// direct path is best; -1 means no usable path is known.
	Hop int
	// Cost is the total path cost in milliseconds.
	Cost wire.Cost
	// When is when the route was learned, in wall-clock UTC like §4.1's silence
	// clocks (routers keep it as Unix nanoseconds); zero in an empty entry.
	When time.Time
	// From is the slot of the rendezvous that recommended the route
	// (-1 for self-computed or fallback entries).
	From int
	// Source records the provenance of the entry.
	Source RouteSource
}

// route is the stored form of a RouteEntry: 16 pointer-free bytes, so a table
// is one flat span the collector never scans. RouteEntry is the view built where
// a route leaves the router: BestHop's answer, Routes, the update hook.
type route struct {
	when      int64  // Unix ns
	hop, from uint16 // slots, noSlot for none
	cost      wire.Cost
	source    RouteSource
}

// noSlot is a stored slot's "none", RouteEntry's -1: converting -1 to uint16
// yields it, and wire.MaxSlots keeps every slot below it.
const noSlot = 0xFFFF

// unpackSlot reads a stored slot, noSlot as -1.
func unpackSlot(s uint16) int {
	if s == noSlot {
		return -1
	}
	return int(s)
}

// entry is the exported view of r. An empty record is the zero RouteEntry
// whatever its clock says: a simulation starts at Unix 0, where a learned
// route's When is not the zero Time and an empty entry's must be.
func (r route) entry() RouteEntry {
	if r.source == SourceNone {
		return RouteEntry{}
	}
	return RouteEntry{Hop: unpackSlot(r.hop), Cost: r.cost, When: time.Unix(0, r.when).UTC(), From: unpackSlot(r.from), Source: r.source}
}

// routeTable is both routers' route table.
type routeTable struct {
	routes []route // per destination slot
}

// install writes a route table entry.
//
//lint:allocfree
func (t *routeTable) install(dst int, r route) {
	t.routes[dst] = r
}

// Routes implements Router.
func (t *routeTable) Routes() []RouteEntry {
	out := make([]RouteEntry, len(t.routes))
	for dst, r := range t.routes {
		out[dst] = r.entry()
	}
	return out
}

// staleHop is degraded-mode damping, rowCore.BestHop's last resort: an
// entry that expired at most hold ago (ttl is the router's normal lifetime
// for it) is served, while alive still vouches for its first hop, with its
// cost inflated in proportion to how far past ttl it is. The inflation keeps
// genuinely fresh information preferred everywhere a choice exists, so
// degraded entries only ever win when the alternative is no route at all.
//
// If the first hop itself died during the outage, the fallback goes
// second-order instead of blanking: via re-evaluates the aged link-state rows
// under the router's degraded age bound (its staleness bound plus hold), and
// the best surviving alternative is served with the same damping. The dead
// hop self-excludes because the live self row reports its first leg
// unreachable. A hold ≤ 0 disables degraded mode.
func staleHop(e RouteEntry, now time.Time, ttl, hold time.Duration, alive func(slot int) bool, via func() (hop int, cost wire.Cost)) (RouteEntry, bool) {
	if hold <= 0 || e.Source == SourceNone || e.Hop < 0 || e.Cost == wire.InfCost {
		return RouteEntry{}, false
	}
	age := now.Sub(e.When)
	if age > ttl+hold {
		return RouteEntry{}, false
	}
	if !alive(e.Hop) {
		hop, cost := via()
		if hop < 0 || cost == wire.InfCost || !alive(hop) {
			return RouteEntry{}, false
		}
		e.Hop, e.Cost = hop, cost
	}
	over := max(age-ttl, 0)
	e.Cost = e.Cost.Add(wire.Cost(uint64(e.Cost) * uint64(over) / uint64(hold)))
	e.Source = SourceStale
	return e, true
}

// Router is the interface shared by the quorum router and the full-mesh
// baseline, as consumed by the overlay node.
type Router interface {
	// Tick runs one routing interval: round-1 link-state dissemination and
	// round-2 rendezvous computation (for the baseline, a full broadcast and
	// a local recompute).
	Tick()
	// HandleLinkState processes a received link-state row, delta or ack, and
	// returns the view version of a row or delta that parsed, kept or not.
	HandleLinkState(h wire.Header, body []byte) (version uint32, ok bool)
	// HandleRecommendation is HandleLinkState for a recommendation message.
	HandleRecommendation(h wire.Header, body []byte) (version uint32, ok bool)
	// BestHop returns the current best route to the destination slot.
	BestHop(dst int) (RouteEntry, bool)
	// Routes returns a snapshot of the route table, indexed by slot.
	Routes() []RouteEntry
	// Interval returns the router's routing interval r.
	Interval() time.Duration
	// SetView installs a new membership view, in which the node holds slot
	// self: in place when it stably extends the current one, cold otherwise.
	SetView(view *membership.ViewInfo, self int) error
}
