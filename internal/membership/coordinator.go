package membership

import (
	"net/netip"
	"time"

	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// Replication constants.
const (
	// versionSkip is added to the view version (scaled by rank+1) when a
	// standby promotes, so versions stay globally unique across reigns: the
	// deposed primary flushes at most once per coalesce interval, so it
	// cannot plausibly bridge a 4096-version gap while unreachable. Unique
	// versions let the routing plane keep keying row exchange on the bare
	// version number even across a split brain.
	versionSkip = 1 << 12
	// idSkip is added to the replicated nextID on promotion, covering
	// assignments the old primary made after its last beacon.
	idSkip = 64
)

// coordRole is a coordinator replica's current role.
type coordRole int

const (
	roleStandby coordRole = iota
	rolePrimary
)

// CoordinatorConfig tunes the membership coordinator.
type CoordinatorConfig struct {
	// Timeout expires members that have not been heard from (default 30 min,
	// the paper's setting).
	Timeout time.Duration
	// Sweep is the expiry scan interval (default 1 min).
	Sweep time.Duration
	// Coalesce is how long membership changes are batched before one
	// versioned broadcast (default 1 s). Every flush costs one delta per
	// surviving member plus one full view per member added in the window, so
	// a k-node join storm is O(n + k) messages rather than the O(n·k) a
	// per-change full-view broadcast would cost.
	Coalesce time.Duration
	// Coordinators lists the well-known IDs of the whole replica set in rank
	// order (default: just CoordinatorID — a solo coordinator with no
	// replication). The harness or deployment must bind each peer ID to its
	// address via env.SetPeer before Start.
	Coordinators []wire.NodeID
	// Rank is this replica's index in Coordinators (default 0). Rank 0
	// assumes primacy at boot; higher ranks start as standbys.
	Rank int
	// BeaconInterval is how often the primary beacons its liveness, epoch,
	// and allocator high-water mark to the standbys (default 2 s).
	BeaconInterval time.Duration
	// Logf, if non-nil, receives membership events.
	Logf func(format string, args ...any)
}

func (c *CoordinatorConfig) fill() {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Sweep <= 0 {
		c.Sweep = DefaultSweep
	}
	if c.Coalesce <= 0 {
		c.Coalesce = DefaultCoalesce
	}
	if len(c.Coordinators) == 0 {
		c.Coordinators = []wire.NodeID{CoordinatorID}
	}
	if c.Rank < 0 || c.Rank >= len(c.Coordinators) {
		c.Rank = 0
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = 2 * time.Second
	}
}

// electionTimeout is the beacon silence after which a standby promotes
// itself: three beacon intervals plus one more per rank, so elections resolve
// deterministically to the lowest live rank.
func (c *CoordinatorConfig) electionTimeout() time.Duration {
	return time.Duration(3+c.Rank) * c.BeaconInterval
}

// preVoteWait is how long a standby whose election timeout expired solicits
// peer confirmation of the primary's silence before promoting. Beacon loss on
// one path — a stalled link, an asymmetric partition — is indistinguishable
// from a dead primary to the starved standby alone; any peer still observing
// the primary vetoes the promotion and the standby re-arms instead of
// splitting the epoch. If no peer answers within the wait (all dead, or the
// asker really is partitioned), the standby falls back to its local evidence
// and promotes, preserving liveness.
func (c *CoordinatorConfig) preVoteWait() time.Duration { return 2 * c.BeaconInterval }

// seat is one slot of the primary's lease table. A member's seat holds its
// view entry and at, when it was last heard from. A tombstone's seat holds
// wire.NilNode; allocSlot reuses it once a broadcast view shows it free.
type seat struct {
	wire.Member
	at time.Time
}

// Coordinator is one replica of the membership service. A replica set is a
// primary plus standbys at well-known IDs: the primary admits nodes, assigns
// IDs, and broadcasts versioned views exactly like the paper's single
// coordinator, while sending the standbys the very datagrams members get
// (chunked snapshots and gossip envelopes) and beaconing its liveness.
// On beacon silence the lowest-rank live standby promotes itself under a new
// epoch. Clients send every join, heartbeat, leave and pull to all replicas,
// so the new primary hears each member's next heartbeat without being found.
// Bind it to an Env with Start; all state transitions then happen inside the
// Env's serialized callbacks.
//
// The primary's lease table is seats, indexed by view slot exactly like the
// view it broadcasts: a flush copies it out, a sweep walks it in slot order,
// and a join takes the lowest slot the last broadcast view shows free or
// extends the space (a broadcast slot never goes within a reign; a free seat
// no view showed does, at the flush). slotOf and byAddr map
// a member's ID and address to its seat; they are lookups only, never walked.
// A promotion rebuilds the table from the view replica with every lease
// restarted and every tombstone free at once (the old reign broadcast it); a
// demotion clears it.
type Coordinator struct {
	env     transport.Env
	cfg     CoordinatorConfig
	selfID  wire.NodeID
	role    coordRole
	epoch   uint32
	version uint32
	nextID  wire.NodeID
	seats   []seat
	slotOf  map[wire.NodeID]int
	byAddr  map[netip.AddrPort]int

	// lastView is the membership as of the last broadcast (empty before the
	// first); deltas are computed against it. On a standby it is the replica
	// of the primary's broadcasts, and the member table a promotion rebuilds.
	// Its own stamp is the one it was first broadcast under: a promotion or
	// an absorbed rival re-broadcasts the same members under (epoch, version).
	// flushPending marks a scheduled coalesce flush.
	lastView     *ViewInfo
	flushPending bool
	// snap reassembles the primary's snapshots on a standby.
	snap snapshot

	// Election state (replicated mode only). lastPrimaryBeat records actual
	// beacons only — it is what this replica vouches with when peers
	// pre-vote. lastIndirect records secondhand liveness (a pre-vote veto):
	// it feeds this replica's own election clock but is never presented to
	// peers as evidence, or two starved standbys could veto each other on
	// nothing forever. preVoting marks the window between the election
	// timeout expiring and the pre-vote verdict.
	lastPrimaryBeat time.Time
	lastIndirect    time.Time
	preVoting       bool

	flushTimer    transport.Timer
	sweepTimer    transport.Timer
	beaconTimer   transport.Timer
	electionTimer transport.Timer
	preVoteTimer  transport.Timer
	stopped       bool

	stats CoordinatorStats
}

// CoordinatorStats counts the coordinator's broadcast work, the quantities
// the churn experiments assert on.
type CoordinatorStats struct {
	// Broadcasts counts coalesced view flushes (version bumps).
	Broadcasts uint64
	// DeltasSent counts gossip envelopes sent straight to standbys (each
	// flush's seeded envelope, one per peer replica); FullViewsSent counts
	// snapshots sent by flushes (to added members, standbys, or everyone
	// when the delta would not do) plus those served on demand (pulls from
	// members and standbys, a listed joiner's retry).
	DeltasSent    uint64
	FullViewsSent uint64
	// SeedsSent counts gossip-delta envelopes seeded into the dissemination
	// tree: the primary's whole per-flush delta egress toward members,
	// O(fanout) regardless of view size.
	SeedsSent uint64
	// ViewChunksSent counts the chunk datagrams of snapshots too large for
	// one chunk (each snapshot still counts once in FullViewsSent).
	ViewChunksSent uint64
	// Promotions and Demotions count this replica's role changes.
	Promotions, Demotions uint64
	// PreVotesVetoed counts elections abandoned because a peer still
	// observed the primary — each one is a split brain that did not happen.
	PreVotesVetoed uint64
}

// NewCoordinator creates a coordinator replica on env. Call Start to begin
// serving.
func NewCoordinator(env transport.Env, cfg CoordinatorConfig) *Coordinator {
	cfg.fill()
	return &Coordinator{
		env:      env,
		cfg:      cfg,
		selfID:   cfg.Coordinators[cfg.Rank],
		slotOf:   make(map[wire.NodeID]int),
		byAddr:   make(map[netip.AddrPort]int),
		lastView: &ViewInfo{},
	}
}

// Start installs the packet handler and begins the expiry sweep. Rank 0
// assumes primacy immediately (epoch 1 on a cold boot); higher ranks start
// as standbys and only promote after beacon silence. A restarted rank 0
// that boots into an overlay with a newer primary steps down on the first
// beacon it hears.
func (c *Coordinator) Start() {
	c.env.SetLocalID(c.selfID)
	c.env.Bind(c.handle)
	c.sweepTimer = c.env.After(c.cfg.Sweep, c.sweep)
	if c.solo() {
		c.role = rolePrimary
		c.epoch = 1
		return
	}
	c.lastPrimaryBeat = c.env.Now()
	if c.cfg.Rank == 0 {
		c.role = rolePrimary
		c.epoch = 1
		c.sendBeacons()
	} else {
		c.role = roleStandby
		c.armElection()
	}
	c.beaconTimer = c.env.After(c.cfg.BeaconInterval, c.beaconLoop)
}

// Stop halts all timers and ignores further traffic; the churn harness uses
// it to crash a replica. A fresh Coordinator on the same Env models a
// process restart.
func (c *Coordinator) Stop() {
	c.stopped = true
	for _, t := range []transport.Timer{c.flushTimer, c.sweepTimer, c.beaconTimer, c.electionTimer, c.preVoteTimer} {
		if t != nil {
			t.Stop()
		}
	}
}

func (c *Coordinator) solo() bool { return len(c.cfg.Coordinators) <= 1 }

// peers returns the other replicas' IDs in rank order.
func (c *Coordinator) peers() []wire.NodeID {
	var out []wire.NodeID
	for _, id := range c.cfg.Coordinators {
		if id != c.selfID {
			out = append(out, id)
		}
	}
	return out
}

// rankOf maps a coordinator ID to its rank, or -1 for non-replicas.
func (c *Coordinator) rankOf(id wire.NodeID) int {
	for r, cid := range c.cfg.Coordinators {
		if cid == id {
			return r
		}
	}
	return -1
}

// MemberCount returns the current number of admitted members (the replica's
// last known view size when standing by). Call from within env.Do.
func (c *Coordinator) MemberCount() int {
	if c.role == rolePrimary {
		return len(c.slotOf)
	}
	return c.lastView.N()
}

// Stamp returns the current view stamp. Call from within env.Do.
func (c *Coordinator) Stamp() wire.ViewStamp {
	return wire.ViewStamp{Epoch: c.epoch, Version: c.version}
}

// IsPrimary reports whether this replica currently leads the set. Call from
// within env.Do.
func (c *Coordinator) IsPrimary() bool { return c.role == rolePrimary && !c.stopped }

// Members returns a copy of the last broadcast view's slot array: the index
// of each entry is its view slot, and tombstoned slots hold wire.NilNode.
// Call from within env.Do.
func (c *Coordinator) Members() []wire.Member {
	return c.lastView.slotMembers(c.lastView.Slots())
}

// Rank returns the replica's configured rank.
func (c *Coordinator) Rank() int { return c.cfg.Rank }

// Stats returns a copy of the broadcast counters. Call from within env.Do.
func (c *Coordinator) Stats() CoordinatorStats { return c.stats }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) handle(from wire.NodeID, payload []byte) {
	if c.stopped {
		return
	}
	h, body, err := wire.ParseHeader(payload)
	if err != nil {
		return
	}
	// Replica-plane traffic is handled in either role.
	switch h.Type {
	case wire.TCoordBeacon:
		if b, err := wire.ParseCoordBeacon(body); err == nil && c.rankOf(h.Src) >= 0 {
			c.handleBeacon(h.Src, b)
		}
		return
	case wire.TViewChunk:
		// The primary's snapshots, the same pieces members get: a flush's
		// full view, a promotion, or the answer to a resync pull.
		vc, err := wire.ParseViewChunk(body)
		if err == nil && c.rankOf(h.Src) >= 0 && c.role == roleStandby && vc.Stamp.After(c.Stamp()) {
			if v, ok := c.snap.add(vc); ok {
				c.adoptReplica(v)
			}
		}
		return
	case wire.TGossipDelta:
		// The envelope the primary seeds into the member tree. A replica only
		// applies it: it sits in no tree, so Hops means nothing here.
		if g, err := wire.ParseGossipDelta(body); err == nil && c.rankOf(h.Src) >= 0 && c.role == roleStandby {
			c.applyReplicaDelta(h.Src, g.Delta)
		}
		return
	case wire.TPreVote:
		if _, err := wire.ParseStamped(body); err == nil && c.rankOf(h.Src) >= 0 {
			c.handlePreVote(h.Src)
		}
		return
	case wire.TPreVoteReply:
		if pr, err := wire.ParsePreVoteReply(body); err == nil && c.rankOf(h.Src) >= 0 {
			c.handlePreVoteReply(h.Src, pr)
		}
		return
	}
	// Client-plane traffic reaches every replica and is served only by the
	// primary, which holds the lease table; standbys drop it, so each client
	// datagram draws one answer.
	if c.role != rolePrimary {
		return
	}
	switch h.Type {
	case wire.TJoin:
		j, err := wire.ParseJoin(body)
		if err != nil {
			return
		}
		c.handleJoin(j)
	case wire.THeartbeat:
		// A member's heartbeat renews its lease and draws nothing. One from
		// an ID no seat holds draws this replica's stamp, whatever the view
		// size: a member evicted by then rejoins (Client, THeartbeatAck).
		if s, ok := c.slotOf[h.Src]; ok {
			c.seats[s].at = c.env.Now()
		} else {
			c.env.Send(h.Src, wire.AppendStamped(nil, wire.THeartbeatAck, c.selfID, c.Stamp()))
		}
	case wire.TViewPull:
		// Asked by a member or a standby replica; a stranger gets nothing.
		have, err := wire.ParseStamped(body)
		if _, member := c.slotOf[h.Src]; err != nil || (!member && c.rankOf(h.Src) < 0) {
			return
		}
		// Pending coalesced changes are not leaked early: the asker gets the
		// last broadcast view, the stamp everyone else holds.
		if packets := answerPull(c.selfID, c.Stamp(), c.lastView, nil, have); packets != nil {
			c.sendPackets(h.Src, packets)
		}
	case wire.TLeave:
		if _, ok := c.slotOf[h.Src]; ok {
			c.remove(h.Src, "leave")
			c.scheduleFlush()
		}
	}
}

// ---------------------------------------------------------------------------
// Replication and election.
// ---------------------------------------------------------------------------

// handleBeacon processes a peer replica's beacon in either role.
func (c *Coordinator) handleBeacon(from wire.NodeID, b wire.CoordBeacon) {
	// Absorb the allocator high-water mark unconditionally: it protects
	// against reissuing IDs assigned by any reign we have incomplete
	// replication from. The mark wraps with the 16-bit ID space, so "ahead"
	// is judged on the signed distance, not the raw value.
	if int16(b.NextID-c.nextID) > 0 {
		c.nextID = b.NextID
	}
	if !b.Primary {
		return
	}
	peerRank := c.rankOf(from)
	if c.role == rolePrimary {
		if b.Stamp.Epoch > c.epoch || (b.Stamp.Epoch == c.epoch && peerRank < c.cfg.Rank) {
			c.demote(from, b)
			return
		}
		// We win the conflict (healed split brain, or a stale reign still
		// beaconing). Absorb the loser's version so our next broadcast
		// supersedes everything its clients hold, and push a full view so
		// both sides converge without waiting a heartbeat interval.
		if b.Stamp.Version >= c.version {
			c.version = b.Stamp.Version + 1
			c.stats.Broadcasts++
			c.logf("membership: absorbed rival reign e%d v%d, rebroadcasting as e%d v%d",
				b.Stamp.Epoch, b.Stamp.Version, c.epoch, c.version)
			c.broadcastFullView()
		}
		return
	}
	// Standby. A primary whose stamp is behind our own replica has lost its
	// state — rank 0 restarted inside the election timeout and "assumed
	// primacy at boot" over an empty table. It is not a leader: let its
	// beacons starve the election clock so a replica that still holds the
	// view promotes, and the higher epoch demotes and resyncs it.
	if c.Stamp().After(b.Stamp) {
		return
	}
	// Note the leader and keep the election timer fed. A beacon arriving
	// mid-pre-vote is direct evidence the silence was transient: abandon the
	// election and fall back to the normal silence watch.
	c.lastPrimaryBeat = c.env.Now()
	if c.preVoting {
		c.cancelPreVote()
		c.armElection()
	}
	if b.Stamp.Epoch > c.epoch {
		c.epoch = b.Stamp.Epoch
	}
	// A version ahead of our replica means we missed replication (e.g. we
	// just restarted): resync.
	if b.Stamp.Version > c.version {
		c.pull(from)
	}
}

// pull asks a replica for what this standby's replica misses — the TViewPull
// members send, answered by the same rule.
func (c *Coordinator) pull(to wire.NodeID) {
	c.env.Send(to, wire.AppendStamped(nil, wire.TViewPull, c.selfID, c.Stamp()))
}

// adoptReplica installs a reassembled snapshot, newer than the replica, on a
// standby.
func (c *Coordinator) adoptReplica(v wire.View) {
	vi, err := NewViewInfo(v)
	if err != nil {
		return
	}
	c.epoch = v.Epoch
	c.version = v.Version
	c.lastView = vi
	for _, m := range vi.Members() {
		c.env.SetPeer(m.ID, m.Addr)
	}
}

// applyReplicaDelta folds a replicated delta into a standby's view replica,
// resyncing with a pull on any gap.
func (c *Coordinator) applyReplicaDelta(from wire.NodeID, d wire.ViewDelta) {
	if d.Epoch == c.epoch && d.Version <= c.version {
		return // duplicate
	}
	if d.Epoch != c.epoch || d.BaseVersion != c.version {
		c.pull(from)
		return
	}
	next, err := c.lastView.ApplyDelta(d)
	if err != nil {
		c.pull(from)
		return
	}
	c.version = d.Version
	c.lastView = next
	for _, m := range d.Adds {
		c.env.SetPeer(m.ID, m.Addr)
	}
}

// armElection schedules the standby's next silence check.
func (c *Coordinator) armElection() {
	if c.electionTimer != nil {
		c.electionTimer.Stop()
	}
	c.electionTimer = c.env.After(c.cfg.electionTimeout(), c.electionCheck)
}

// electionCheck opens a pre-vote if the primary has been silent for the
// whole (rank-staggered) election timeout, otherwise re-arms for the
// remaining silence budget.
func (c *Coordinator) electionCheck() {
	if c.stopped || c.role == rolePrimary || c.preVoting {
		return
	}
	silence := c.env.Now().Sub(c.lastEvidence())
	if timeout := c.cfg.electionTimeout(); silence < timeout {
		c.electionTimer = c.env.After(timeout-silence, c.electionCheck)
		return
	}
	c.startPreVote()
}

// lastEvidence is the most recent sign of a live primary, direct or indirect.
func (c *Coordinator) lastEvidence() time.Time {
	if c.lastIndirect.After(c.lastPrimaryBeat) {
		return c.lastIndirect
	}
	return c.lastPrimaryBeat
}

// startPreVote asks every peer replica whether it still observes the primary
// before this standby promotes. The verdict lands in preVoteDecide unless a
// veto (or a live beacon) cancels the election first.
func (c *Coordinator) startPreVote() {
	c.preVoting = true
	for _, id := range c.peers() {
		c.env.Send(id, wire.AppendStamped(nil, wire.TPreVote, c.selfID, c.Stamp()))
	}
	c.preVoteTimer = c.env.After(c.cfg.preVoteWait(), c.preVoteDecide)
}

// cancelPreVote abandons an open pre-vote without deciding it.
func (c *Coordinator) cancelPreVote() {
	c.preVoting = false
	if c.preVoteTimer != nil {
		c.preVoteTimer.Stop()
	}
}

// preVoteDecide closes the pre-vote window: no peer vouched for the primary,
// so if the local silence still stands, the standby finally promotes. The
// silence re-check matters — a beacon may have raced the timer through the
// same callback queue.
func (c *Coordinator) preVoteDecide() {
	if c.stopped || c.role == rolePrimary || !c.preVoting {
		return
	}
	c.preVoting = false
	if c.env.Now().Sub(c.lastEvidence()) < c.cfg.electionTimeout() {
		c.armElection()
		return
	}
	c.promote()
}

// handlePreVote answers a peer's pre-vote with this replica's own evidence of
// the primary: a primary vouches for itself, a standby vouches iff it heard a
// beacon within 1.5 beacon intervals — one full period plus slack for
// delivery jitter, so only the most recent beacon counts as evidence.
// Vouching on the base 3-beacon silence window let stale evidence stall a
// legitimate election: a primary that stalls just under the election
// timeout, squeezes out one beacon, and dies leaves a peer vouching on that
// beacon for two more intervals, vetoing the candidate into a second full
// election cycle. Answered in either role so a stalled-but-alive primary
// can veto its own deposition.
func (c *Coordinator) handlePreVote(from wire.NodeID) {
	alive := c.role == rolePrimary ||
		c.env.Now().Sub(c.lastPrimaryBeat) <= c.cfg.BeaconInterval*3/2
	c.env.Send(from, wire.AppendPreVoteReply(nil, c.selfID, wire.PreVoteReply{
		Stamp:        c.Stamp(),
		PrimaryAlive: alive,
	}))
}

// handlePreVoteReply folds one peer's verdict into an open pre-vote. An
// alive vote abandons the election and resets the silence clock — but only
// the indirect one, so the veto is never recycled as this replica's own
// evidence when peers ask it in turn. A reply from a reign ahead of ours
// additionally triggers a view resync, the same recovery as a beacon version
// gap; an alive vote from a stamp behind ours is the amnesiac primary of
// handleBeacon vouching for itself, and counts for nothing.
func (c *Coordinator) handlePreVoteReply(from wire.NodeID, pr wire.PreVoteReply) {
	if pr.Stamp.After(c.Stamp()) {
		c.pull(from)
	}
	if !c.preVoting || !pr.PrimaryAlive || c.Stamp().After(pr.Stamp) {
		return
	}
	c.cancelPreVote()
	c.lastIndirect = c.env.Now()
	c.stats.PreVotesVetoed++
	c.logf("membership: rank %d pre-vote vetoed by rank %d, primary still observed", c.cfg.Rank, c.rankOf(from))
	c.armElection()
}

// promote turns a standby into the primary: a new epoch, a version far past
// anything the dead reign can have broadcast, an allocator bumped past its
// replicated high-water mark, and the lease table rebuilt from the view
// replica with every lease starting now: a member is not to blame for the
// election, so it may not expire before getting a full timeout to
// re-heartbeat. The replica's tombstones are free at once, because the old
// reign broadcast them.
func (c *Coordinator) promote() {
	now := c.env.Now()
	c.role = rolePrimary
	c.epoch++
	c.version += versionSkip * uint32(c.cfg.Rank+1)
	c.nextID += idSkip
	c.seats = make([]seat, c.lastView.Slots())
	for s, m := range c.lastView.slotMembers(c.lastView.Slots()) {
		if m.ID == wire.NilNode {
			c.seats[s].Member = m
		} else {
			c.occupy(m, now)
		}
	}
	c.stats.Promotions++
	c.stats.Broadcasts++
	c.logf("membership: rank %d promoted to primary (epoch %d, view %d, %d members)",
		c.cfg.Rank, c.epoch, c.version, c.lastView.N())
	c.broadcastFullView()
	c.sendBeacons()
}

// demote steps a deposed primary down to standby. The member lease table
// belongs to the winner now; the loser resyncs its view replica from it.
func (c *Coordinator) demote(winner wire.NodeID, b wire.CoordBeacon) {
	c.role = roleStandby
	if b.Stamp.Epoch > c.epoch {
		c.epoch = b.Stamp.Epoch
	}
	c.seats = nil
	clear(c.slotOf)
	clear(c.byAddr)
	c.flushPending = false
	if c.flushTimer != nil {
		c.flushTimer.Stop()
	}
	c.lastPrimaryBeat = c.env.Now()
	c.stats.Demotions++
	c.logf("membership: rank %d demoted by rank %d (epoch %d)", c.cfg.Rank, c.rankOf(winner), b.Stamp.Epoch)
	c.pull(winner)
	c.armElection()
}

// beaconLoop perpetuates the beacon timer; only the primary actually sends.
func (c *Coordinator) beaconLoop() {
	if c.stopped {
		return
	}
	if c.role == rolePrimary {
		c.sendBeacons()
	}
	c.beaconTimer = c.env.After(c.cfg.BeaconInterval, c.beaconLoop)
}

// sendBeacons announces primacy to every peer replica.
func (c *Coordinator) sendBeacons() {
	for _, id := range c.peers() {
		c.env.Send(id, wire.AppendCoordBeacon(nil, c.selfID, wire.CoordBeacon{
			Stamp:   c.Stamp(),
			NextID:  c.nextID,
			Primary: c.role == rolePrimary,
		}))
	}
}

// broadcastFullView pushes the current view to every member and replica —
// the promotion/absorption path, where waiting out delta coalescing would
// cost convergence time. Everyone gets the same chunks.
func (c *Coordinator) broadcastFullView() {
	packets := snapshotPackets(c.selfID, c.Stamp(), c.lastView)
	for _, m := range c.lastView.Members() {
		c.sendPackets(m.ID, packets)
	}
	for _, id := range c.peers() {
		c.sendPackets(id, packets)
	}
}

// sendPackets delivers one snapshot to a node, keeping the snapshot/chunk
// accounting in one place.
func (c *Coordinator) sendPackets(id wire.NodeID, packets [][]byte) {
	for _, p := range packets {
		c.env.Send(id, p)
	}
	c.stats.FullViewsSent++
	if len(packets) > 1 {
		c.stats.ViewChunksSent += uint64(len(packets))
	}
}

// ---------------------------------------------------------------------------
// Primary-side membership service (the paper's §5 coordinator).
// ---------------------------------------------------------------------------

func (c *Coordinator) handleJoin(j wire.Join) {
	now := c.env.Now()
	// Idempotent re-join: the same address keeps its ID and its lease is
	// renewed, but no new view is produced. A joiner retries until a view
	// lists its address: if the last broadcast view holds it, that snapshot
	// was lost, so send it again; if not, the open window's flush will.
	if s, ok := c.byAddr[j.Addr]; ok {
		c.seats[s].at = now
		if id := c.seats[s].ID; s < c.lastView.Slots() && c.lastView.IDAt(s) == id {
			c.sendPackets(id, snapshotPackets(c.selfID, c.Stamp(), c.lastView))
		}
		return
	}
	id, ok := c.allocID()
	if !ok {
		c.logf("membership: refused %v, no free node ID", j.Addr)
		return
	}
	slot, ok := c.allocSlot()
	if !ok {
		c.nextID = id // not consumed: a retrying joiner must not walk the ID space
		c.logf("membership: refused %v, no free slot", j.Addr)
		return
	}
	c.occupy(wire.Member{ID: id, Slot: uint16(slot), Addr: j.Addr}, now)
	c.logf("membership: admitted %v as node %d (slot %d)", j.Addr, id, slot)
	c.scheduleFlush()
}

// allocID returns the next node ID that is neither reserved (wire.NilNode, a
// replica's well-known ID) nor held by a current member, and advances the
// allocator past it. IDs of departed members are not reused until the 16-bit
// space wraps — at 5 %/min churn on 10⁴ nodes that is about two hours, far
// past any Timeout — and ok is false only when every assignable ID is held.
func (c *Coordinator) allocID() (id wire.NodeID, ok bool) {
	for range 1 << 16 {
		id = c.nextID
		c.nextID++
		if _, held := c.slotOf[id]; !held && id != wire.NilNode && c.rankOf(id) < 0 {
			return id, true
		}
	}
	return wire.NilNode, false
}

// allocSlot returns the lowest slot the last broadcast view shows free and
// the table still holds free, or extends the slot space. No join takes a slot
// before the flush that frees it, so no delta moves a slot between members,
// and the old occupant's late traffic is refused by view-version and ID
// checks (TestReusedSlotInheritsNothing). Only the primary calls this. ok is
// false when no slot is free and the space already holds wire.MaxSlots
// slots: one more would encode as a 0-slot view that every client rejects.
func (c *Coordinator) allocSlot() (slot int, ok bool) {
	for _, s := range c.lastView.Tombstones() {
		if c.seats[s].ID == wire.NilNode {
			return s, true
		}
	}
	if len(c.seats) == wire.MaxSlots {
		return 0, false
	}
	c.seats = append(c.seats, seat{})
	return len(c.seats) - 1, true
}

// occupy seats m at its slot, which allocSlot or a promotion chose, with a
// lease starting now.
func (c *Coordinator) occupy(m wire.Member, now time.Time) {
	c.seats[m.Slot] = seat{Member: m, at: now}
	c.slotOf[m.ID] = int(m.Slot)
	c.byAddr[m.Addr] = int(m.Slot)
	c.env.SetPeer(m.ID, m.Addr)
}

// remove tombstones a member's seat; the next flush shows the slot free.
func (c *Coordinator) remove(id wire.NodeID, why string) {
	s := c.slotOf[id]
	delete(c.slotOf, id)
	delete(c.byAddr, c.seats[s].Addr)
	c.seats[s] = seat{Member: wire.Member{ID: wire.NilNode}}
	c.logf("membership: removed node %d (%s), slot %d free from the next view", id, why, s)
}

// view returns the lease table's view entries, slot-indexed (tombstones hold
// wire.NilNode).
func (c *Coordinator) view() []wire.Member {
	slots := make([]wire.Member, len(c.seats))
	for s, st := range c.seats {
		slots[s] = st.Member
	}
	return slots
}

// scheduleFlush arms the coalesce timer unless one is already pending.
func (c *Coordinator) scheduleFlush() {
	if c.flushPending {
		return
	}
	c.flushPending = true
	c.flushTimer = c.env.After(c.cfg.Coalesce, c.flush)
}

// flush broadcasts the changes accumulated during the coalesce window: one
// version bump, a delta to the surviving members, and a full view to every
// member added in the window (they hold no base to apply a delta to). If the
// delta would not be smaller than the full view, or its envelope would not
// fit one datagram, everyone gets the full view. The delta is not unicast to
// each survivor: the primary wraps it in a gossip envelope and seeds only the
// tree roots, keeping its egress O(fanout) per flush while the members
// epidemic the rest. Standby replicas get that same envelope (or the same
// snapshot) directly — replication must not depend on the member epidemic.
// Sends walk the slot array, so the broadcast order is deterministic under
// the simulator.
func (c *Coordinator) flush() {
	c.flushPending = false
	if c.stopped || c.role != rolePrimary {
		return
	}
	// A seat past the last view that is free again (its joiner left within
	// the window) was never shown: trimmed, the snapshot's slot count is the
	// one the delta extends to.
	for len(c.seats) > c.lastView.Slots() && c.seats[len(c.seats)-1].ID == wire.NilNode {
		c.seats = c.seats[:len(c.seats)-1]
	}
	slots := c.view()
	adds, removes := diffSlots(c.lastView.ids, slots)
	if len(adds) == 0 && len(removes) == 0 {
		return // churn cancelled out within the window; no new version
	}
	base := c.version
	c.version++
	c.stats.Broadcasts++
	cur, err := newViewInfo(c.epoch, c.version, slots)
	if err != nil {
		panic(err) // slotOf is keyed by ID: a duplicate is a programming error
	}
	useDelta := wire.ViewDeltaSize(len(adds), len(removes)) < wire.ViewSize(cur.N()) &&
		wire.GossipDeltaSize(len(adds), len(removes)) <= wire.MaxDatagram
	d := wire.ViewDelta{
		Epoch:       c.epoch,
		BaseVersion: base,
		Version:     c.version,
		Adds:        adds,
		Removes:     removes,
	}
	added := addedSet(adds)
	var seed []byte
	if useDelta {
		seed = c.seedGossip(cur, d, added)
	}
	packets := snapshotPackets(c.selfID, c.Stamp(), cur)
	for _, m := range cur.Members() {
		if !useDelta || added[m.ID] {
			c.sendPackets(m.ID, packets)
		}
	}
	for _, id := range c.peers() {
		if useDelta {
			c.env.Send(id, seed)
			c.stats.DeltasSent++
		} else {
			c.sendPackets(id, packets)
		}
	}
	c.lastView = cur
	c.logf("membership: view %d/%d (%d members in %d slots, +%d −%d)",
		c.epoch, c.version, cur.N(), cur.Slots(), len(adds), len(removes))
}

// seedGossip injects a flushed delta into the dissemination tree: the
// primary sends one gossip envelope to each root position, skipping over
// tombstoned slots and slots held by just-added members (the added are
// getting the full view and have no delta to forward; tombstones hold
// nobody). cur is the post-delta view, so tree position q is its slot q. It
// returns the envelope, which the standbys get too.
func (c *Coordinator) seedGossip(cur *ViewInfo, d wire.ViewDelta, added map[wire.NodeID]bool) []byte {
	n := cur.Slots()
	r := gossipRotation(d.Version, DefaultGossipFanout, n)
	targets := gossipTargets(n, -1, DefaultGossipFanout, r, func(slot int) bool {
		return !cur.Occupied(slot) || added[cur.IDAt(slot)]
	})
	env := wire.AppendGossipDelta(nil, c.selfID, wire.GossipDelta{
		Hops:  gossipHops,
		Delta: d,
	})
	for _, slot := range targets {
		c.env.Send(cur.IDAt(slot), env)
		c.stats.SeedsSent++
	}
	return env
}

// diffSlots returns the members occupying slots of cur that prev did not
// have, and the IDs of prev occupants gone from cur. Both inputs are
// slot-indexed, prev holding IDs; cur is never shorter than prev because the
// slot space only grows within a reign. A slot whose occupant changed outright
// (a primary never does that within one delta — allocSlot reuses only slots
// the last broadcast view shows free — but a healed replica diff can see it)
// yields a remove plus an add, which delta application handles because
// removes apply first.
func diffSlots(prev []wire.NodeID, cur []wire.Member) (adds []wire.Member, removes []wire.NodeID) {
	for s := range cur {
		p := wire.NilNode
		if s < len(prev) {
			p = prev[s]
		}
		q := cur[s].ID
		switch {
		case p == q:
		case p == wire.NilNode:
			adds = append(adds, cur[s])
		case q == wire.NilNode:
			removes = append(removes, p)
		default:
			removes = append(removes, p)
			adds = append(adds, cur[s])
		}
	}
	return adds, removes
}

func (c *Coordinator) sweep() {
	if c.stopped {
		return
	}
	defer func() { c.sweepTimer = c.env.After(c.cfg.Sweep, c.sweep) }()
	if c.role != rolePrimary {
		return
	}
	now := c.env.Now()
	expired := false
	for _, st := range c.seats {
		if st.ID != wire.NilNode && now.Sub(st.at) > c.cfg.Timeout {
			c.remove(st.ID, "timeout")
			expired = true
		}
	}
	if expired {
		c.scheduleFlush()
	}
}
