package membership

import (
	"slices"
	"time"

	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// ClientConfig tunes a membership client.
type ClientConfig struct {
	// Heartbeat is the keep-alive interval to the coordinator (default 5 min).
	Heartbeat time.Duration
	// JoinRetry is the re-join interval until admitted (default 5 s).
	JoinRetry time.Duration
	// Coordinators lists the coordinator replica IDs (default: just
	// CoordinatorID). Every join, heartbeat, leave and coordinator pull goes
	// to each of them; the primary serves it and standbys drop it. The caller
	// must bind each ID to its address via env.SetPeer before Start.
	Coordinators []wire.NodeID
}

// Fixed client parameters.
const (
	// pullBackoff is the base of the jittered exponential backoff between
	// the repair ladder's rungs after a detected gap. Rung i waits in
	// [w/2, w] with w = pullBackoff << min(i, 6), so a loss burst that opens
	// the same gap across a whole fleet spreads the pulls over the window.
	pullBackoff = 200 * time.Millisecond
	// maxPullTries is how many peers the ladder asks before it asks the
	// coordinator.
	maxPullTries = 3
	// dedupCache is the length of the ring of delta stamps kept for duplicate
	// suppression (FIFO eviction).
	dedupCache = 128
	// deltaLogLen bounds the log of applied deltas served to pulling peers.
	deltaLogLen = 32
)

// Gossip defaults.
const (
	// DefaultGossipFanout is the dissemination tree's branching factor. 3
	// keeps the primary's per-flush egress constant while reaching n members
	// in ~log₃(n) hops. A constant, not a knob: the coordinator and every
	// member derive the same tree from it independently.
	DefaultGossipFanout = 3
	// gossipHops bounds a gossiped delta's forwarding depth; the dedup
	// cache, not the hop budget, is what terminates the epidemic, so this is
	// a pure safety bound sized far past log₃(2¹⁶).
	gossipHops = 16
)

func (c *ClientConfig) fill() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.JoinRetry <= 0 {
		c.JoinRetry = DefaultJoinRetry
	}
	if len(c.Coordinators) == 0 {
		c.Coordinators = []wire.NodeID{CoordinatorID}
	}
}

// Client joins the overlay through the coordinator set and tracks view
// updates, applying incremental deltas and pulling what it missed — from
// peers first, then the coordinator — only when some message shows it missed
// one, and answering its peers' pulls by the rule the coordinator answers by.
// Everything it sends the coordinator goes to every replica, and whichever
// one leads serves it, so a lost heartbeat costs one heartbeat interval
// whatever the replica count. It does not own the Env's packet handler — the
// overlay node dispatches membership messages to HandlePacket — so it
// composes with the routing and probing components on one socket.
type Client struct {
	env    transport.Env
	cfg    ClientConfig
	onView func(*ViewInfo)
	view   *ViewInfo
	joined bool

	// Gossip dissemination state. dedup is a ring of the last dedupCache
	// delta stamps seen (duplicate suppression) and dedupN counts the stamps
	// ever entered, so dedup[dedupN%dedupCache] is the next to go; deltaLog
	// holds the consecutive run of applied deltas ending at the current
	// version, served to pulling peers; want is the newest stamp heard of
	// (gossip, snapshot pieces, pull and routing traffic) — while it is ahead
	// of the installed view, a repair pull is owed.
	dedup    [dedupCache]wire.ViewStamp
	dedupN   int
	deltaLog []wire.ViewDelta
	want     wire.ViewStamp

	// pullPending caps the repair ladder at one scheduled rung per client;
	// pullTries is the rung it is on; lead is the member whose message last
	// proved it holds a newer view (NilNode when none did), asked by the next
	// peer rung instead of a random peer.
	pullPending bool
	pullTries   int
	lead        wire.NodeID

	// snap reassembles full-view snapshots; a lost chunk is repaired by the
	// pull its sibling pieces arm (the responder re-serves the then-current
	// snapshot).
	snap snapshot

	// timer is the keep-alive's: the join's retry until a view lists this
	// node, the heartbeat's after.
	timer     transport.Timer
	pullTimer transport.Timer
	stopped   bool

	stats ClientStats
}

// ClientStats counts the client's gossip and repair traffic, the quantities
// the adversarial churn scenarios assert on.
type ClientStats struct {
	// GossipSeen counts gossiped deltas received; GossipDups of those were
	// duplicates suppressed by the dedup cache; GossipForwards counts
	// copies forwarded to peers.
	GossipSeen, GossipDups, GossipForwards uint64
	// PullsSent counts the repair ladder's pulls to peers, each sent on
	// evidence of a newer view; PullsServed counts peers' pulls answered
	// with deltas or a snapshot.
	PullsSent, PullsServed uint64
	// GapsBridged counts gaps a peer's answer closed, with deltas or a
	// snapshot — each one a coordinator pull that did not happen.
	GapsBridged uint64
	// FullViewRequests counts pulls sent to the coordinator, which answers
	// with a snapshot — the "herd" the gossip plane exists to suppress.
	FullViewRequests uint64
}

// Stats returns a copy of the gossip/repair counters. Call from within
// env.Do.
func (c *Client) Stats() ClientStats { return c.stats }

// Add accumulates o into s — the churn harness sums a fleet's counters.
func (s *ClientStats) Add(o ClientStats) {
	s.GossipSeen += o.GossipSeen
	s.GossipDups += o.GossipDups
	s.GossipForwards += o.GossipForwards
	s.PullsSent += o.PullsSent
	s.PullsServed += o.PullsServed
	s.GapsBridged += o.GapsBridged
	s.FullViewRequests += o.FullViewRequests
}

// NewClient creates a membership client. onView is invoked (inside the Env's
// serialized context) whenever a view that lists this node is installed,
// including the first, with env.LocalID already set to the ID it lists.
// The caller must have bound every configured coordinator ID to its address
// via env.SetPeer before Start.
func NewClient(env transport.Env, cfg ClientConfig, onView func(*ViewInfo)) *Client {
	cfg.fill()
	return &Client{env: env, cfg: cfg, onView: onView, lead: wire.NilNode}
}

// Start begins the keep-alive: the join now, and again every JoinRetry until
// a view lists this node.
func (c *Client) Start() { c.keepAlive() }

// Stop cancels the client's timers. It does not announce departure; use
// Leave for a graceful exit.
func (c *Client) Stop() {
	c.stopped = true
	for _, t := range []transport.Timer{c.timer, c.pullTimer} {
		if t != nil {
			t.Stop()
		}
	}
}

// toCoordinators sends b to every coordinator replica: the primary serves it,
// standbys drop it, so the client never needs to know which one leads.
func (c *Client) toCoordinators(b []byte) {
	for _, id := range c.cfg.Coordinators {
		c.env.Send(id, b)
	}
}

// Leave announces departure to the coordinator.
func (c *Client) Leave() {
	if id := c.env.LocalID(); id != wire.NilNode {
		c.toCoordinators(wire.AppendLeave(nil, id))
	}
}

// keepAlive is the client's one loop to the coordinator: the join every
// JoinRetry until a view lists us (a lost join or admitting snapshot costs one
// retry, since a primary that admitted us sends its view again), then the
// heartbeat that renews the lease every Heartbeat.
func (c *Client) keepAlive() {
	if c.stopped {
		return
	}
	if c.joined {
		c.toCoordinators(wire.AppendHeartbeat(nil, c.env.LocalID()))
		c.timer = c.env.After(c.cfg.Heartbeat, c.keepAlive)
		return
	}
	c.toCoordinators(wire.AppendJoin(nil, wire.Join{Addr: c.env.LocalAddr()}))
	c.timer = c.env.After(c.cfg.JoinRetry, c.keepAlive)
}

// rejoin drops the standing the primary no longer holds, if any, and sends
// the join at once, rather than orbit the overlay with an ID nobody routes to.
func (c *Client) rejoin() {
	if !c.joined {
		return
	}
	c.joined = false
	if c.timer != nil {
		c.timer.Stop()
	}
	c.keepAlive()
}

// stamp returns the current view's stamp, or the zero stamp before any view.
func (c *Client) stamp() wire.ViewStamp {
	if c.view == nil {
		return wire.ViewStamp{}
	}
	return c.view.Stamp()
}

// HandlePacket processes one membership-plane message. The overlay node
// routes the five types a member receives here — THeartbeatAck, TViewChunk,
// TGossipDelta, TViewPull and TViewPullReply; other types are ignored.
func (c *Client) HandlePacket(h wire.Header, body []byte) {
	switch h.Type {
	case wire.THeartbeatAck:
		// The primary seats no member under our ID at this stamp. Past our
		// view, it evicted us after the view we hold. Not past it, the answer
		// is a replica's that lost its state (a restart answering at 1/0),
		// and says nothing of our standing.
		if stamp, err := wire.ParseStamped(body); err == nil && stamp.After(c.stamp()) {
			c.rejoin()
		}
	case wire.TViewChunk:
		vc, err := wire.ParseViewChunk(body)
		if err != nil || (c.view != nil && !vc.Stamp.After(c.stamp())) {
			return // malformed, or a piece of a snapshot no newer than ours
		}
		v, ok := c.snap.add(vc)
		if !ok {
			// A piece of a newer snapshot is evidence of it: should a
			// sibling piece be lost, the ladder fetches the view.
			c.noteAhead(vc.Stamp, h.Src)
			return
		}
		vi, err := NewViewInfo(v)
		if err != nil {
			return
		}
		// The delta log serves consecutive runs only; a full view breaks
		// the chain.
		c.deltaLog = c.deltaLog[:0]
		wasBehind := c.behind()
		c.install(vi)
		c.bridged(h.Src, wasBehind)
	case wire.TGossipDelta:
		g, err := wire.ParseGossipDelta(body)
		if err != nil {
			return
		}
		c.stats.GossipSeen++
		stamp := wire.ViewStamp{Epoch: g.Delta.Epoch, Version: g.Delta.Version}
		if c.seenGossip(stamp) {
			c.stats.GossipDups++
			return // duplicate: already applied (or queued for repair) and forwarded
		}
		c.handleDelta(g.Delta)
		c.forwardGossip(g)
	case wire.TViewPull:
		have, err := wire.ParseStamped(body)
		if err != nil || !c.joined || c.view == nil {
			return
		}
		if _, member := c.view.SlotOf(h.Src); !member {
			return // a stranger gets nothing
		}
		if packets := answerPull(c.env.LocalID(), c.stamp(), c.view, c.deltaLog, have); packets != nil {
			c.stats.PullsServed++
			for _, b := range packets {
				c.env.Send(h.Src, b)
			}
		}
		// Push-pull symmetry: a requester ahead of us is itself evidence of
		// a gap on our own side.
		if have.After(c.stamp()) {
			c.noteAhead(have, h.Src)
		}
	case wire.TViewPullReply:
		r, err := wire.ParseViewPullReply(body)
		if err != nil {
			return
		}
		wasBehind := c.behind()
		for _, d := range r.Deltas {
			c.handleDelta(d)
		}
		c.bridged(h.Src, wasBehind)
		if r.Stamp.After(c.stamp()) {
			// The run was capped, lost a member mid-apply, or the responder
			// advanced meanwhile: keep pulling.
			c.noteAhead(r.Stamp, h.Src)
		}
	}
}

// HeardVersion takes the view version a routing message from src carried;
// the overlay node, which holds both planes, calls it for every link-state
// row and recommendation. Versions are unique across coordinator reigns, so a
// view member stamping a version past ours proves a newer view exists and
// that it holds it: the ladder's next peer rung asks src. A stranger's
// version is no evidence.
func (c *Client) HeardVersion(src wire.NodeID, version uint32) {
	if c.view == nil || version <= c.view.version {
		return
	}
	if _, member := c.view.SlotOf(src); member {
		c.noteAhead(wire.ViewStamp{Epoch: c.view.epoch, Version: version}, src)
	}
}

// handleDelta folds one delta, gossiped or pulled, into the view: a no-op for
// stale stamps (idempotent under duplication), an install when it extends the
// current version, and a repair trigger on a gap or a delta that does not
// apply.
func (c *Client) handleDelta(d wire.ViewDelta) {
	stamp := wire.ViewStamp{Epoch: d.Epoch, Version: d.Version}
	if c.view != nil && !stamp.After(c.stamp()) {
		return // stale or duplicate delta
	}
	if c.view != nil && c.view.epoch == d.Epoch && c.view.version == d.BaseVersion {
		if vi, err := c.view.ApplyDelta(d); err == nil {
			c.logDelta(d)
			c.install(vi)
			return
		}
	}
	c.noteAhead(stamp, wire.NilNode) // gap: missed an update or an election
}

// noteAhead records evidence that a view newer than ours exists and (re)arms
// the repair ladder, whatever the gap: same-epoch or not, a peer that holds
// the newer view answers with deltas or its snapshot. It is the ladder's only
// trigger: a client pulls because it learned it is behind, never on a timer.
// holder is the node whose message proved it holds s, or NilNode when the
// evidence names no holder (a gossiped gap).
func (c *Client) noteAhead(s wire.ViewStamp, holder wire.NodeID) {
	if s.After(c.want) {
		c.want = s
	}
	if holder != wire.NilNode {
		c.lead = holder
	}
	c.schedulePull()
}

// behind reports whether a view newer than the installed one is known to
// exist — the state the repair ladder is meant to clear.
func (c *Client) behind() bool { return c.want.After(c.stamp()) }

// schedulePull arms the ladder's next rung under jittered exponential
// backoff, capped at one outstanding per client: rung i fires within [w/2, w],
// w = pullBackoff·2^min(i,6).
func (c *Client) schedulePull() {
	if c.pullPending || c.stopped || !c.behind() {
		return
	}
	c.pullPending = true
	window := pullBackoff << min(c.pullTries, 6)
	delay := window/2 + time.Duration(c.env.Rand().Int63n(int64(window/2)+1))
	c.pullTimer = c.env.After(delay, c.pullFire)
}

// pullFire climbs one rung of the repair ladder. The first maxPullTries
// rungs ask peers — the lead, if a member proved it holds the newer view,
// else a random one — re-arming the backoff as the reply deadline, so an
// answer that closes the gap makes the next firing a no-op. The next rung —
// or the first, when there is no peer to ask — asks every replica, and then
// the ladder stops until new evidence re-arms it.
func (c *Client) pullFire() {
	c.pullPending = false
	if c.stopped || !c.behind() {
		c.pullTries = 0
		return
	}
	peer := wire.NilNode
	if c.pullTries < maxPullTries {
		peer = c.pickPeer()
	}
	pull := wire.AppendStamped(nil, wire.TViewPull, c.env.LocalID(), c.stamp())
	if peer == wire.NilNode {
		c.pullTries = 0
		c.stats.FullViewRequests++
		c.toCoordinators(pull)
		return
	}
	c.pullTries++
	c.stats.PullsSent++
	c.env.Send(peer, pull)
	c.schedulePull()
}

// pickPeer returns the peer the next rung asks: the lead, once, while it is a
// member of the current view other than this node; else a uniformly drawn
// such member, or NilNode when none exists. The draw ranges over the
// occupied member list, never tombstoned slots, and comes from the Env's
// seeded stream, so identically seeded runs pull identical peers.
func (c *Client) pickPeer() wire.NodeID {
	if c.view == nil || c.view.N() == 0 {
		return wire.NilNode
	}
	id, lead := c.env.LocalID(), c.lead
	c.lead = wire.NilNode
	if _, member := c.view.SlotOf(lead); member && lead != id {
		return lead
	}
	ms := c.view.Members()
	n := len(ms)
	if _, ok := c.view.SlotOf(id); !ok {
		return ms[c.env.Rand().Intn(n)].ID
	}
	if n < 2 {
		return wire.NilNode
	}
	// Uniform over the n−1 others: draw from [0, n−1) and remap a self hit
	// to the last member (which the truncated range never reaches itself).
	i := c.env.Rand().Intn(n - 1)
	if ms[i].ID == id {
		i = n - 1
	}
	return ms[i].ID
}

// seenGossip checks-and-marks a delta stamp in the bounded dedup cache,
// reporting whether it was already present. The cache is what terminates
// the epidemic: the F-ary tree, link duplication, and re-forwarded copies
// may all deliver the same stamp, and only the first sighting is applied
// and forwarded. Eviction is FIFO, so the cache always covers the most
// recent dedupCache versions — far more than can be in flight.
func (c *Client) seenGossip(s wire.ViewStamp) bool {
	if slices.Contains(c.dedup[:min(c.dedupN, dedupCache)], s) {
		return true
	}
	c.dedup[c.dedupN%dedupCache] = s
	c.dedupN++
	return false
}

// forwardGossip relays a first-sighted delta to this member's children in
// the dissemination tree, spending one hop of the budget. Positions are
// view slots rotated by the delta version (see gossipTargets), so the
// forwarding set is a pure function of (view, version) — no coordination,
// no extra randomness, byte-identical across identically seeded runs.
func (c *Client) forwardGossip(g wire.GossipDelta) {
	if g.Hops == 0 || !c.joined || c.view == nil {
		return
	}
	self, ok := c.view.SlotOf(c.env.LocalID())
	if !ok {
		return
	}
	n := c.view.Slots()
	r := gossipRotation(g.Delta.Version, DefaultGossipFanout, n)
	p := ((self-r)%n + n) % n
	added := addedSet(g.Delta.Adds)
	targets := gossipTargets(n, p, DefaultGossipFanout, r, func(slot int) bool {
		return !c.view.Occupied(slot) || added[c.view.IDAt(slot)]
	})
	if len(targets) == 0 {
		return
	}
	out := wire.AppendGossipDelta(nil, c.env.LocalID(), wire.GossipDelta{Hops: g.Hops - 1, Delta: g.Delta})
	for _, slot := range targets {
		if id := c.view.IDAt(slot); id != c.env.LocalID() {
			c.env.Send(id, out)
			c.stats.GossipForwards++
		}
	}
}

// logDelta records an applied delta for serving to pulling peers. The log
// holds a consecutive run ending at the current version; full-view installs
// clear it, so consecutiveness is an invariant, not a search.
func (c *Client) logDelta(d wire.ViewDelta) {
	c.deltaLog = append(c.deltaLog, d)
	if len(c.deltaLog) > deltaLogLen {
		c.deltaLog = c.deltaLog[len(c.deltaLog)-deltaLogLen:]
	}
}

// bridged credits a gap that an answer from src closed, when src is a peer.
func (c *Client) bridged(src wire.NodeID, wasBehind bool) {
	if wasBehind && !c.behind() && !slices.Contains(c.cfg.Coordinators, src) {
		c.stats.GapsBridged++
	}
}

// install makes vi the current view and states this node's standing from
// it: the member listed at our address is us, and its ID is ours. Only such a
// view reaches onView. A view that stops listing us means the coordinator
// expired us: rejoin.
func (c *Client) install(vi *ViewInfo) {
	c.view = vi
	if !c.behind() {
		// Caught up; future gaps restart the backoff ladder from evidence
		// of their own.
		c.pullTries, c.lead = 0, wire.NilNode
	}
	// A primary lists an address once; should a view list ours twice, the
	// entry under the ID we hold wins.
	self, held, local := wire.NilNode, c.env.LocalID(), c.env.LocalAddr()
	for _, m := range vi.members {
		c.env.SetPeer(m.ID, m.Addr)
		if m.Addr == local && (self == wire.NilNode || m.ID == held) {
			self = m.ID
		}
	}
	if self == wire.NilNode {
		c.rejoin()
		return
	}
	c.joined = true
	c.env.SetLocalID(self)
	if c.onView != nil {
		c.onView(vi)
	}
}
