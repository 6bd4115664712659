// Package membership implements the paper's centralized membership service
// (§5): a coordinator that admits nodes, assigns 2-byte IDs, and broadcasts
// versioned views, plus the client run by every overlay node.
//
// The correctness of the quorum routing computation depends only on view
// consistency: nodes holding the same view version build identical grids,
// because the grid is populated from the view's slot assignment. Views pin
// each member to a stable slot for its lifetime and tombstone departures, so
// one join or leave perturbs O(1) grid relationships.
// Transient failures are handled by the overlay's failover machinery, not by
// membership churn, so the coordinator uses the paper's long (30-minute)
// membership timeout.
package membership

import (
	"fmt"
	"slices"
	"time"

	"allpairs/internal/wire"
)

// CoordinatorID is the well-known overlay ID of the membership coordinator
// (the rank-0 primary in a replicated set). It is outside the range ever
// assigned to members.
const CoordinatorID wire.NodeID = 0xFFFE

// CoordinatorIDAt returns the well-known ID of the coordinator replica at a
// given rank: IDs descend from CoordinatorID (0xFFFE, 0xFFFD, ...), leaving
// wire.NilNode untouched and staying far above any assigned member ID.
func CoordinatorIDAt(rank int) wire.NodeID { return CoordinatorID - wire.NodeID(rank) }

// CoordinatorIDs returns the well-known IDs of an n-replica coordinator set
// in rank order.
func CoordinatorIDs(n int) []wire.NodeID {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = CoordinatorIDAt(i)
	}
	return ids
}

// Default protocol intervals.
const (
	// DefaultTimeout is the membership expiry from §5 (30 minutes).
	DefaultTimeout = 30 * time.Minute
	// DefaultHeartbeat keeps live members refreshed well inside the timeout.
	DefaultHeartbeat = 5 * time.Minute
	// DefaultSweep is how often the coordinator scans for expired members.
	DefaultSweep = time.Minute
	// DefaultJoinRetry is the client's re-join interval until admitted.
	DefaultJoinRetry = 5 * time.Second
	// DefaultCoalesce is how long the coordinator batches membership changes
	// before broadcasting one delta. Join storms landing inside a window cost
	// O(n + k) messages instead of O(n·k).
	DefaultCoalesce = time.Second
)

// ViewInfo is the client-side digest of a membership view: the slot-indexed
// ID assignment used to populate the routing grid, plus the occupied member
// list and the ID → slot index. Each member holds the slot the coordinator
// assigned it for its lifetime; departed slots are tombstones (wire.NilNode)
// that stay in place until the coordinator reuses them for a joiner, so one
// join or leave moves O(1) assignments. A slot costs two bytes and a member
// its wire.Member once, each table exactly as long as its contents.
type ViewInfo struct {
	epoch   uint32
	version uint32
	ids     []wire.NodeID // slot-indexed; tombstones hold wire.NilNode
	members []wire.Member // occupied members, slot order
	tombs   []int         // unoccupied slots, ascending; nil when there are none
	// slotOf is the dense ID → slot index: slotOf[id] is the member's slot
	// plus one, zero for an ID the view does not hold. It is sized to the
	// largest held ID + 1 (at most 4 bytes × 65 535), so every received
	// message resolves its sender with one bounds check and one load.
	slotOf []int32
}

// NewViewInfo builds a ViewInfo from a raw wire view. Member slots are taken
// from the wire; nil or duplicate IDs, duplicate slots, and slots outside the
// view's Slots-sized space (any member at all when Slots is zero) are
// rejected.
func NewViewInfo(v wire.View) (*ViewInfo, error) {
	slots := (&ViewInfo{}).slotMembers(int(v.Slots))
	for _, m := range v.Members {
		if m.ID == wire.NilNode {
			return nil, fmt.Errorf("membership: nil member ID in view %d", v.Version)
		}
		s := int(m.Slot)
		if s >= len(slots) {
			return nil, fmt.Errorf("membership: member %d slot %d outside %d-slot view %d", m.ID, s, v.Slots, v.Version)
		}
		if slots[s].ID != wire.NilNode {
			return nil, fmt.Errorf("membership: duplicate slot %d in view %d", s, v.Version)
		}
		slots[s] = m
	}
	return newViewInfo(v.Epoch, v.Version, slots)
}

// snapshot reassembles one chunked full-view snapshot at a time, for a client
// and for a standby coordinator alike. A chunk whose stamp or framing differs
// from the pieces held restarts assembly, so the last snapshot started wins
// over a half-received one; a lost piece is filled by the next time the same
// snapshot is served. ParseViewChunk has checked the framing, so the pieces
// of one snapshot always add up to its TotalMembers, and only an empty
// view's single piece carries no members.
type snapshot struct {
	stamp        wire.ViewStamp
	slots, total uint16
	parts        [][]wire.Member // by chunk index; nil until that piece arrives
	got          int
}

// add folds one parsed chunk in and returns the whole view once vc was its
// last missing piece.
func (s *snapshot) add(vc wire.ViewChunk) (wire.View, bool) {
	if vc.Stamp != s.stamp || vc.TotalSlots != s.slots || vc.TotalMembers != s.total || int(vc.Count) != len(s.parts) {
		*s = snapshot{stamp: vc.Stamp, slots: vc.TotalSlots, total: vc.TotalMembers, parts: make([][]wire.Member, vc.Count)}
	}
	if s.parts[vc.Index] != nil {
		return wire.View{}, false // duplicate piece
	}
	s.parts[vc.Index] = vc.Members
	if s.got++; s.got < len(s.parts) {
		return wire.View{}, false
	}
	v := wire.View{Epoch: s.stamp.Epoch, Version: s.stamp.Version, Slots: s.slots, Members: slices.Concat(s.parts...)}
	*s = snapshot{}
	return v, true
}

// snapshotPackets encodes vi's members under stamp as a snapshot of
// wire.ViewChunkCount bounded pieces, so no snapshot outgrows a datagram and
// a mass-admission storm costs bounded datagrams instead of O(n)-sized
// bursts. The stamp is an argument because a primary serves its last view
// under its own stamp, which a promotion or an absorbed rival moves past the
// one the view carries.
func snapshotPackets(src wire.NodeID, stamp wire.ViewStamp, vi *ViewInfo) [][]byte {
	members := vi.Members()
	out := make([][]byte, wire.ViewChunkCount(len(members)))
	for i := range out {
		lo := i * wire.ViewChunkMembers
		out[i] = wire.AppendViewChunk(nil, src, wire.ViewChunk{
			Stamp:        stamp,
			TotalSlots:   uint16(vi.Slots()),
			TotalMembers: uint16(len(members)),
			Index:        uint16(i),
			Count:        uint16(len(out)),
			Members:      members[lo:min(lo+wire.ViewChunkMembers, len(members))],
		})
	}
	return out
}

// answerPull is the one rule for answering a TViewPull, used by members and
// coordinators alike. A member that learned a newer view exists pulls from a
// peer or from the coordinator, and a standby pulls from the primary. The
// responder src holds view vi at stamp and log, its applied deltas (a
// consecutive run ending at stamp; a coordinator keeps none); the asker holds
// have, the pull's stamp. A responder with nothing newer sends nothing — the
// asker would discard it. One whose log holds the run starting at have sends
// as much of it as fits one datagram; any other, or one whose first delta
// alone would not fit, sends its snapshot.
func answerPull(src wire.NodeID, stamp wire.ViewStamp, vi *ViewInfo, log []wire.ViewDelta, have wire.ViewStamp) [][]byte {
	if !stamp.After(have) {
		return nil
	}
	i := slices.IndexFunc(log, func(d wire.ViewDelta) bool { return d.Epoch == have.Epoch && d.BaseVersion == have.Version })
	if i >= 0 {
		run := log[i:min(len(log), i+wire.MaxPullDeltas)]
		n := 0
		for n < len(run) && wire.ViewPullReplySize(run[:n+1]) <= wire.MaxDatagram {
			n++
		}
		if n > 0 {
			return [][]byte{wire.AppendViewPullReply(nil, src, wire.ViewPullReply{Stamp: stamp, Deltas: run[:n]})}
		}
	}
	return snapshotPackets(src, stamp, vi)
}

// newViewInfo builds a ViewInfo from a slot-indexed member array (tombstones
// hold wire.NilNode), which it does not keep: each table it builds is exactly
// as long as its contents. Duplicate member IDs are rejected.
func newViewInfo(epoch, version uint32, slots []wire.Member) (*ViewInfo, error) {
	maxID, n := -1, 0
	for _, m := range slots {
		if m.ID != wire.NilNode {
			maxID, n = max(maxID, int(m.ID)), n+1
		}
	}
	v := &ViewInfo{epoch: epoch, version: version, ids: make([]wire.NodeID, len(slots)),
		members: make([]wire.Member, 0, n), slotOf: make([]int32, maxID+1)}
	if n < len(slots) {
		v.tombs = make([]int, 0, len(slots)-n)
	}
	for s, m := range slots {
		v.ids[s] = m.ID
		if m.ID == wire.NilNode {
			v.tombs = append(v.tombs, s)
			continue
		}
		if v.slotOf[m.ID] != 0 {
			return nil, fmt.Errorf("membership: duplicate ID %d in view %d", m.ID, version)
		}
		v.slotOf[m.ID] = int32(s) + 1
		v.members = append(v.members, m)
	}
	return v, nil
}

// slotMembers returns a slot-indexed copy of the view's members, n ≥ Slots()
// slots wide: entry s is slot s's occupant, or a tombstone holding
// wire.NilNode.
func (v *ViewInfo) slotMembers(n int) []wire.Member {
	out := make([]wire.Member, n)
	for s := range out {
		out[s].ID = wire.NilNode
	}
	for _, m := range v.members {
		out[m.Slot] = m
	}
	return out
}

// NewStaticView builds a fully occupied ViewInfo directly from node IDs, for
// emulations and tests that skip the join protocol: the IDs are sorted and
// the i-th smallest takes slot i (row-major fill from a sorted list, the
// paper's §5 form). Version is 1.
func NewStaticView(ids []wire.NodeID) *ViewInfo {
	sorted := slices.Sorted(slices.Values(ids))
	slots := make([]wire.Member, len(sorted))
	for i, id := range sorted {
		slots[i] = wire.Member{ID: id, Slot: uint16(i)}
	}
	vi, err := newViewInfo(1, 1, slots)
	if err != nil {
		panic(err) // duplicate IDs in a static view are a programming error
	}
	return vi
}

// VersionNum returns the view's version number. Versions are unique across
// coordinator reigns (promotions skip the version counter far past anything
// the deposed primary can have broadcast), so the routing plane keys its
// row exchange on the version alone.
func (v *ViewInfo) VersionNum() uint32 { return v.version }

// Stamp returns the view's (epoch, version) stamp.
func (v *ViewInfo) Stamp() wire.ViewStamp {
	return wire.ViewStamp{Epoch: v.epoch, Version: v.version}
}

// N returns the number of members.
func (v *ViewInfo) N() int { return len(v.members) }

// Slots returns the size of the slot space, tombstones included — the bound
// every slot-indexed loop and table must use.
func (v *ViewInfo) Slots() int { return len(v.ids) }

// Occupied reports whether a slot holds a live member (false for
// tombstones).
func (v *ViewInfo) Occupied(slot int) bool { return v.ids[slot] != wire.NilNode }

// Members returns the occupied members in slot order. Callers must not
// modify the returned slice.
func (v *ViewInfo) Members() []wire.Member { return v.members }

// Tombstones returns the unoccupied slots in ascending order, nil when there
// are none. Callers must not modify the returned slice.
func (v *ViewInfo) Tombstones() []int { return v.tombs }

// IDAt returns the member ID occupying a grid slot, or wire.NilNode for a
// tombstone.
func (v *ViewInfo) IDAt(slot int) wire.NodeID { return v.ids[slot] }

// SlotOf returns the grid slot of a member ID; ok is false for an ID the view
// does not hold (wire.NilNode included: it lies past every index).
//
//lint:allocfree
func (v *ViewInfo) SlotOf(id wire.NodeID) (slot int, ok bool) {
	if int(id) >= len(v.slotOf) {
		return 0, false
	}
	s := v.slotOf[id]
	return int(s) - 1, s != 0
}

// OccupiedMask returns the per-slot occupancy of the view, or nil when every
// slot is occupied (the form grid.NewMasked treats as the unmasked grid).
func (v *ViewInfo) OccupiedMask() []bool {
	if len(v.members) == len(v.ids) {
		return nil
	}
	mask := make([]bool, len(v.ids))
	for s, id := range v.ids {
		mask[s] = id != wire.NilNode
	}
	return mask
}

// StableExtension is the one decision every consumer of views makes when a
// node that held slot oldSelf of old installs next, where it holds slot self.
// The install is a stable extension when the node kept its own slot and ID,
// the slot space did not shrink, and no member present in both views moved —
// the only kind of change a coordinator reign produces. Then ok is true,
// retired lists the slots whose old occupant is gone and started the slots
// holding an occupant old did not have (a slot reused across the change is in
// both; appended slots are in started), each ascending, and the consumer
// grows to next.Slots(), retires and starts exactly those slots, and leaves
// every other slot's state untouched. Otherwise (first install, a rejoin
// under a new ID, a jump onto a foreign view log) ok is false and per-slot
// state means nothing under next: the consumer installs it cold, exactly like
// a first view.
func StableExtension(old *ViewInfo, oldSelf int, next *ViewInfo, self int) (retired, started []int, ok bool) {
	if old == nil || self != oldSelf || self >= old.Slots() ||
		old.IDAt(self) != next.IDAt(self) || next.Slots() < old.Slots() {
		return nil, nil, false
	}
	for s, id := range old.ids {
		if id == wire.NilNode || next.ids[s] == id {
			continue
		}
		if _, moved := next.SlotOf(id); moved {
			return nil, nil, false
		}
		retired = append(retired, s)
	}
	for s, id := range next.ids {
		if id != wire.NilNode && (s >= len(old.ids) || old.ids[s] != id) {
			started = append(started, s)
		}
	}
	return retired, started, true
}

// ApplyDelta builds the ViewInfo that results from applying a wire delta to
// v, in place in the slot space: removals tombstone their slot and additions
// land at the slot the coordinator assigned, extending the slot space when it
// lies past the end. It fails if the delta's base version does not match v's
// version (the caller must then request a full view), if a removed ID is
// unknown, or if an addition targets an occupied slot, a slot at or past
// wire.MaxSlots, or repeats a held ID.
func (v *ViewInfo) ApplyDelta(d wire.ViewDelta) (*ViewInfo, error) {
	if v.epoch != d.Epoch || v.version != d.BaseVersion {
		return nil, fmt.Errorf("membership: delta base %d/%d does not match view %d/%d",
			d.Epoch, d.BaseVersion, v.epoch, v.version)
	}
	n := v.Slots()
	for _, m := range d.Adds {
		if int(m.Slot) >= wire.MaxSlots {
			return nil, fmt.Errorf("membership: delta adds %d at slot %d, past the %d-slot ceiling", m.ID, m.Slot, wire.MaxSlots)
		}
		n = max(n, int(m.Slot)+1)
	}
	slots := v.slotMembers(n)
	for _, id := range d.Removes {
		s, ok := v.SlotOf(id)
		if !ok {
			return nil, fmt.Errorf("membership: delta removes unknown ID %d", id)
		}
		slots[s] = wire.Member{ID: wire.NilNode}
	}
	for _, m := range d.Adds {
		if slots[m.Slot].ID != wire.NilNode {
			return nil, fmt.Errorf("membership: delta adds %d to occupied slot %d", m.ID, m.Slot)
		}
		slots[m.Slot] = m
	}
	return newViewInfo(d.Epoch, d.Version, slots)
}
