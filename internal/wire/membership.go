package wire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Member is one entry in a membership view: the node's assigned ID, the grid
// slot it occupies for its lifetime, and its UDP endpoint. Simulated
// deployments leave the endpoint zero.
type Member struct {
	ID   NodeID
	Slot uint16
	Addr netip.AddrPort // IPv4 only on the wire
}

// memberLen is the encoded size of a Member: id (2) + slot (2) + IPv4 (4) +
// port (2).
const memberLen = 10

// as4 converts an address to its 4-byte form, mapping invalid or non-IPv4
// addresses to 0.0.0.0 (the simulator convention carries meaning only in the
// port).
func as4(a netip.Addr) [4]byte {
	if a.Is4() || a.Is4In6() {
		return a.As4()
	}
	return [4]byte{}
}

func appendMember(b []byte, m Member) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(m.ID))
	b = binary.BigEndian.AppendUint16(b, m.Slot)
	a4 := as4(m.Addr.Addr())
	b = append(b, a4[:]...)
	return binary.BigEndian.AppendUint16(b, m.Addr.Port())
}

func parseMember(b []byte) Member {
	var a4 [4]byte
	copy(a4[:], b[4:8])
	return Member{
		ID:   NodeID(binary.BigEndian.Uint16(b)),
		Slot: binary.BigEndian.Uint16(b[2:4]),
		Addr: netip.AddrPortFrom(netip.AddrFrom4(a4), binary.BigEndian.Uint16(b[8:10])),
	}
}

// Join asks the membership coordinator to admit the sender. Addr is the
// joiner's UDP endpoint as it wishes to be advertised to other members. No
// reply answers it: the joiner learns it was admitted, and its ID, from the
// first view that lists Addr.
type Join struct {
	Addr netip.AddrPort
}

// AppendJoin encodes j with its header. Join messages use NilNode as the
// source because the joiner has not been assigned an ID yet.
func AppendJoin(b []byte, j Join) []byte {
	b = AppendHeader(b, TJoin, NilNode)
	a4 := as4(j.Addr.Addr())
	b = append(b, a4[:]...)
	return binary.BigEndian.AppendUint16(b, j.Addr.Port())
}

// ParseJoin decodes a Join body.
func ParseJoin(body []byte) (Join, error) {
	if len(body) != 6 {
		return Join{}, ErrBadLen
	}
	var a4 [4]byte
	copy(a4[:], body[:4])
	return Join{Addr: netip.AddrPortFrom(netip.AddrFrom4(a4), binary.BigEndian.Uint16(body[4:6]))}, nil
}

// ViewStamp orders membership views across coordinator reigns: Epoch counts
// primary elections and Version counts broadcasts within a reign. Stamps
// compare lexicographically, so a view published by a newer primary always
// supersedes one from a deposed (or partitioned-away) primary even if the old
// reign had raced ahead in version numbers.
type ViewStamp struct {
	Epoch   uint32
	Version uint32
}

// After reports whether s strictly supersedes o.
func (s ViewStamp) After(o ViewStamp) bool {
	return s.Epoch > o.Epoch || (s.Epoch == o.Epoch && s.Version > o.Version)
}

// stampLen is the encoded size of a ViewStamp: epoch, then version.
const stampLen = 4 + 4

// appendStamp appends s: the one writer of the stamp layout.
func appendStamp(b []byte, s ViewStamp) []byte {
	b = binary.BigEndian.AppendUint32(b, s.Epoch)
	return binary.BigEndian.AppendUint32(b, s.Version)
}

// stampAt decodes the stamp at the front of b: the one reader of the layout.
func stampAt(b []byte) ViewStamp {
	return ViewStamp{Epoch: binary.BigEndian.Uint32(b), Version: binary.BigEndian.Uint32(b[4:])}
}

// AppendStamped encodes a message whose body is one stamp — THeartbeatAck,
// TPreVote or TViewPull, named by t (see their constants for what each
// stamp is).
func AppendStamped(b []byte, t MsgType, src NodeID, s ViewStamp) []byte {
	return appendStamp(AppendHeader(b, t, src), s)
}

// ParseStamped decodes the body of a message AppendStamped encoded.
func ParseStamped(body []byte) (ViewStamp, error) {
	if len(body) != stampLen {
		return ViewStamp{}, ErrBadLen
	}
	return stampAt(body), nil
}

// appendFlag appends v as one byte, 1 or 0.
func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// flagAt decodes flag byte f, which must be exactly 0 or 1: accepting any
// nonzero byte would make decode lossy (re-encoding could not reproduce the
// input), as FuzzCoordBeaconRoundTrip found.
func flagAt(f byte, name string) (bool, error) {
	if f > 1 {
		return false, fmt.Errorf("%w: %s flag byte %d", ErrBadLen, name, f)
	}
	return f == 1, nil
}

// View is the coordinator's authoritative membership snapshot. Nodes with
// the same view version build identical grids (§5, "Membership Service").
// Slots is the size of the grid's slot space: members occupy the slots named
// by their Slot field (each below Slots, or the receiver rejects the view)
// and every other slot is a tombstone (departed, or never assigned). Trailing tombstones make the slot count unrepresentable from
// the member list alone, so it must travel on the wire. A View travels as
// ViewChunk pieces; it is also what NewViewInfo builds from.
type View struct {
	Epoch   uint32
	Version uint32
	Slots   uint16
	Members []Member
}

// AppendView encodes v with its header as one TView datagram. No node sends
// that form; AppendView and ParseView stay because benchmark/ times them.
func AppendView(b []byte, src NodeID, v View) []byte {
	b = appendStamp(AppendHeader(b, TView, src), ViewStamp{Epoch: v.Epoch, Version: v.Version})
	b = binary.BigEndian.AppendUint16(b, uint16(len(v.Members)))
	b = binary.BigEndian.AppendUint16(b, v.Slots)
	for _, m := range v.Members {
		b = appendMember(b, m)
	}
	return b
}

// ParseView decodes a View body.
func ParseView(body []byte) (View, error) {
	const fixed = stampLen + 2 + 2
	if len(body) < fixed {
		return View{}, ErrShort
	}
	s := stampAt(body)
	v := View{Epoch: s.Epoch, Version: s.Version, Slots: binary.BigEndian.Uint16(body[10:])}
	n := int(binary.BigEndian.Uint16(body[8:]))
	body = body[fixed:]
	if len(body) != n*memberLen {
		return View{}, fmt.Errorf("%w: want %d member bytes, have %d", ErrBadLen, n*memberLen, len(body))
	}
	v.Members = make([]Member, n)
	for i := 0; i < n; i++ {
		v.Members[i] = parseMember(body[i*memberLen:])
	}
	return v, nil
}

// ViewDelta is an incremental membership update: the members added and the
// IDs removed between BaseVersion and Version. A client holding exactly
// BaseVersion applies the delta locally; any other client has missed an
// update and asks for what it missed with a TViewPull. Deltas
// keep per-change broadcast cost proportional to the churn, not to the
// overlay size, which is what collapses a k-node join storm from O(n·k) to
// O(n + k) coordinator messages.
type ViewDelta struct {
	// Epoch is the reign both BaseVersion and Version belong to; a delta
	// never spans an election (promotions broadcast a full view).
	Epoch       uint32
	BaseVersion uint32
	Version     uint32
	Adds        []Member
	Removes     []NodeID
}

// appendViewDeltaBody encodes d's body without a header. Shared between the
// gossip envelope and the pull reply so every carrier of a delta is
// byte-identical.
func appendViewDeltaBody(b []byte, d ViewDelta) []byte {
	b = binary.BigEndian.AppendUint32(b, d.Epoch)
	b = binary.BigEndian.AppendUint32(b, d.BaseVersion)
	b = binary.BigEndian.AppendUint32(b, d.Version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(d.Adds)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(d.Removes)))
	for _, m := range d.Adds {
		b = appendMember(b, m)
	}
	for _, id := range d.Removes {
		b = binary.BigEndian.AppendUint16(b, uint16(id))
	}
	return b
}

// parseViewDeltaBody decodes a headerless delta body; the body must be
// exactly the encoded delta, nothing more.
func parseViewDeltaBody(body []byte) (ViewDelta, error) {
	const fixed = 4 + 4 + 4 + 2 + 2
	if len(body) < fixed {
		return ViewDelta{}, ErrShort
	}
	d := ViewDelta{
		Epoch:       binary.BigEndian.Uint32(body),
		BaseVersion: binary.BigEndian.Uint32(body[4:]),
		Version:     binary.BigEndian.Uint32(body[8:]),
	}
	nAdd := int(binary.BigEndian.Uint16(body[12:]))
	nRem := int(binary.BigEndian.Uint16(body[14:]))
	body = body[fixed:]
	if len(body) != nAdd*memberLen+nRem*2 {
		return ViewDelta{}, fmt.Errorf("%w: want %d delta bytes, have %d", ErrBadLen, nAdd*memberLen+nRem*2, len(body))
	}
	d.Adds = make([]Member, nAdd)
	for i := 0; i < nAdd; i++ {
		d.Adds[i] = parseMember(body[i*memberLen:])
	}
	body = body[nAdd*memberLen:]
	d.Removes = make([]NodeID, nRem)
	for i := 0; i < nRem; i++ {
		d.Removes[i] = NodeID(binary.BigEndian.Uint16(body[i*2:]))
	}
	return d, nil
}

// AppendViewDelta encodes d with its header as one TViewDelta datagram. No
// node sends that form (a delta travels as a GossipDelta); AppendViewDelta and
// ParseViewDelta stay because benchmark/ times them.
func AppendViewDelta(b []byte, src NodeID, d ViewDelta) []byte {
	b = AppendHeader(b, TViewDelta, src)
	return appendViewDeltaBody(b, d)
}

// ParseViewDelta decodes a ViewDelta body.
func ParseViewDelta(body []byte) (ViewDelta, error) {
	return parseViewDeltaBody(body)
}

// ViewDeltaSize returns the encoded payload size of a delta with the given
// change counts, excluding per-packet overhead. The coordinator compares it
// against ViewSize to fall back to a full view when the delta would be
// larger.
func ViewDeltaSize(adds, removes int) int { return HeaderLen + 16 + adds*memberLen + removes*2 }

// ViewSize returns the encoded payload size of a full n-member view,
// excluding per-packet overhead.
func ViewSize(n int) int { return HeaderLen + 12 + n*memberLen }

// ViewChunkMembers is how many members one ViewChunk carries at most. It
// bounds a full-view snapshot datagram the same way MaxPullDeltas bounds a
// pull reply: a joiner in a large overlay receives its snapshot as
// ⌈n/ViewChunkMembers⌉ pieces instead of one O(n)-sized burst, and a
// mass-admission storm no longer multiplies that burst by the joiner count.
const ViewChunkMembers = 64

// ViewChunkCount is how many chunks carry a snapshot of n members:
// ⌈n/ViewChunkMembers⌉, and one for an empty view.
func ViewChunkCount(n int) int { return max(1, (n+ViewChunkMembers-1)/ViewChunkMembers) }

// ViewChunk is one piece of a full-view snapshot, the only form a full view
// travels in. The receiver reassembles chunks sharing a stamp; Index/Count
// frame the sequence and TotalSlots/TotalMembers say what the pieces add up
// to. Loss of any chunk is repaired by the receiver's next TViewPull (the
// re-served pieces fill the gap, or a newer stamp replaces the set).
type ViewChunk struct {
	Stamp        ViewStamp
	TotalSlots   uint16
	TotalMembers uint16
	Index        uint16
	Count        uint16
	Members      []Member
}

// AppendViewChunk encodes vc with its header.
func AppendViewChunk(b []byte, src NodeID, vc ViewChunk) []byte {
	b = appendStamp(AppendHeader(b, TViewChunk, src), vc.Stamp)
	b = binary.BigEndian.AppendUint16(b, vc.TotalSlots)
	b = binary.BigEndian.AppendUint16(b, vc.TotalMembers)
	b = binary.BigEndian.AppendUint16(b, vc.Index)
	b = binary.BigEndian.AppendUint16(b, vc.Count)
	for _, m := range vc.Members {
		b = appendMember(b, m)
	}
	return b
}

// ParseViewChunk decodes a ViewChunk body, accepting only the framing the
// coordinator produces: TotalMembers ≤ TotalSlots, Count =
// ViewChunkCount(TotalMembers), Index < Count, and ViewChunkMembers members in
// every chunk but the last, which carries the remainder. A hostile chunk can
// therefore claim no more pieces than a real snapshot of its size has.
func ParseViewChunk(body []byte) (ViewChunk, error) {
	const fixed = stampLen + 2 + 2 + 2 + 2
	if len(body) < fixed {
		return ViewChunk{}, ErrShort
	}
	vc := ViewChunk{
		Stamp:        stampAt(body),
		TotalSlots:   binary.BigEndian.Uint16(body[8:]),
		TotalMembers: binary.BigEndian.Uint16(body[10:]),
		Index:        binary.BigEndian.Uint16(body[12:]),
		Count:        binary.BigEndian.Uint16(body[14:]),
	}
	if vc.TotalMembers > vc.TotalSlots || int(vc.Count) != ViewChunkCount(int(vc.TotalMembers)) || vc.Index >= vc.Count {
		return ViewChunk{}, fmt.Errorf("%w: chunk %d of %d for %d members in %d slots",
			ErrBadLen, vc.Index, vc.Count, vc.TotalMembers, vc.TotalSlots)
	}
	n := ViewChunkMembers
	if vc.Index == vc.Count-1 {
		n = int(vc.TotalMembers) - int(vc.Index)*ViewChunkMembers
	}
	body = body[fixed:]
	if len(body) != n*memberLen {
		return ViewChunk{}, fmt.Errorf("%w: want %d member bytes, have %d", ErrBadLen, n*memberLen, len(body))
	}
	if n > 0 {
		vc.Members = make([]Member, n)
		for i := 0; i < n; i++ {
			vc.Members[i] = parseMember(body[i*memberLen:])
		}
	}
	return vc, nil
}

// AppendLeave encodes a Leave notification (no body).
func AppendLeave(b []byte, src NodeID) []byte {
	return AppendHeader(b, TLeave, src)
}

// AppendHeartbeat encodes a membership heartbeat (no body). Members send
// these to the coordinator so the 30-minute membership timeout (§5) only
// expires truly departed nodes.
func AppendHeartbeat(b []byte, src NodeID) []byte {
	return AppendHeader(b, THeartbeat, src)
}

// CoordBeacon is the liveness beacon a primary coordinator sends to its
// standby replicas every beacon interval. Standbys elect a new primary after
// beacon silence; a deposed primary hearing a beacon with a higher stamp
// (or an equal epoch from a lower rank) steps down. NextID replicates the ID
// allocator high-water mark so a promoted standby never reissues an ID the
// old primary already assigned.
type CoordBeacon struct {
	Stamp   ViewStamp
	NextID  NodeID
	Primary bool
}

// AppendCoordBeacon encodes cb with its header.
func AppendCoordBeacon(b []byte, src NodeID, cb CoordBeacon) []byte {
	b = appendStamp(AppendHeader(b, TCoordBeacon, src), cb.Stamp)
	b = binary.BigEndian.AppendUint16(b, uint16(cb.NextID))
	return appendFlag(b, cb.Primary)
}

// ParseCoordBeacon decodes a CoordBeacon body.
func ParseCoordBeacon(body []byte) (CoordBeacon, error) {
	if len(body) != stampLen+2+1 {
		return CoordBeacon{}, ErrBadLen
	}
	primary, err := flagAt(body[stampLen+2], "primary")
	if err != nil {
		return CoordBeacon{}, err
	}
	return CoordBeacon{Stamp: stampAt(body), NextID: NodeID(binary.BigEndian.Uint16(body[stampLen:])), Primary: primary}, nil
}

// PreVoteReply answers a TPreVote. PrimaryAlive is the responder's own
// evidence: a primary answers true for itself, a standby answers true iff it
// heard a beacon within its base silence window. The stamp is the responder's
// view stamp, letting the asker also detect that it fell behind a reign.
type PreVoteReply struct {
	Stamp        ViewStamp
	PrimaryAlive bool
}

// AppendPreVoteReply encodes pr with its header.
func AppendPreVoteReply(b []byte, src NodeID, pr PreVoteReply) []byte {
	return appendFlag(appendStamp(AppendHeader(b, TPreVoteReply, src), pr.Stamp), pr.PrimaryAlive)
}

// ParsePreVoteReply decodes a PreVoteReply body.
func ParsePreVoteReply(body []byte) (PreVoteReply, error) {
	if len(body) != stampLen+1 {
		return PreVoteReply{}, ErrBadLen
	}
	alive, err := flagAt(body[stampLen], "alive")
	if err != nil {
		return PreVoteReply{}, err
	}
	return PreVoteReply{Stamp: stampAt(body), PrimaryAlive: alive}, nil
}

// GossipDelta is a ViewDelta travelling the epidemic dissemination tree:
// the primary seeds it to an O(fanout) set of members, and each member
// forwards it to its own deterministic peer set while Hops is positive.
// Receivers deduplicate on the delta's (Epoch, Version) stamp, so duplicated
// or re-forwarded copies are absorbed rather than re-applied.
type GossipDelta struct {
	Hops  uint8 // remaining forwarding budget, decremented per hop
	Delta ViewDelta
}

// AppendGossipDelta encodes g with its header.
func AppendGossipDelta(b []byte, src NodeID, g GossipDelta) []byte {
	b = AppendHeader(b, TGossipDelta, src)
	b = append(b, g.Hops)
	return appendViewDeltaBody(b, g.Delta)
}

// ParseGossipDelta decodes a GossipDelta body.
func ParseGossipDelta(body []byte) (GossipDelta, error) {
	if len(body) < 1 {
		return GossipDelta{}, ErrShort
	}
	d, err := parseViewDeltaBody(body[1:])
	if err != nil {
		return GossipDelta{}, err
	}
	return GossipDelta{Hops: body[0], Delta: d}, nil
}

// GossipDeltaSize returns the encoded payload size of a gossiped delta with
// the given change counts, excluding per-packet overhead.
func GossipDeltaSize(adds, removes int) int { return ViewDeltaSize(adds, removes) + 1 }

// MaxPullDeltas caps the deltas one ViewPullReply carries; a responder also
// stops short of MaxDatagram. A requester further behind than one reply
// converges over successive pulls.
const MaxPullDeltas = 16

// ViewPullReply answers a TViewPull with deltas. Stamp is the responder's own
// view stamp; Deltas holds the consecutive increments starting right after
// the requester's stamp, oldest first. No responder sends an empty one: one
// whose log cannot bridge the gap sends its snapshot instead.
type ViewPullReply struct {
	Stamp  ViewStamp
	Deltas []ViewDelta
}

// AppendViewPullReply encodes r with its header. Each delta body is
// length-prefixed so the receiver can validate the framing without trusting
// the count byte.
func AppendViewPullReply(b []byte, src NodeID, r ViewPullReply) []byte {
	if len(r.Deltas) > MaxPullDeltas {
		panic(fmt.Sprintf("wire: %d deltas in pull reply, max %d", len(r.Deltas), MaxPullDeltas))
	}
	b = appendStamp(AppendHeader(b, TViewPullReply, src), r.Stamp)
	b = append(b, byte(len(r.Deltas)))
	for _, d := range r.Deltas {
		start := len(b)
		b = append(b, 0, 0) // length placeholder
		b = appendViewDeltaBody(b, d)
		binary.BigEndian.PutUint16(b[start:], uint16(len(b)-start-2))
	}
	return b
}

// ViewPullReplySize returns the encoded size of a ViewPullReply carrying
// deltas, header included.
func ViewPullReplySize(deltas []ViewDelta) int {
	n := HeaderLen + stampLen + 1
	for _, d := range deltas {
		n += 2 + ViewDeltaSize(len(d.Adds), len(d.Removes)) - HeaderLen
	}
	return n
}

// ParseViewPullReply decodes a ViewPullReply body.
func ParseViewPullReply(body []byte) (ViewPullReply, error) {
	const fixed = stampLen + 1
	if len(body) < fixed {
		return ViewPullReply{}, ErrShort
	}
	r := ViewPullReply{Stamp: stampAt(body)}
	n := int(body[8])
	if n > MaxPullDeltas {
		return ViewPullReply{}, fmt.Errorf("%w: %d deltas, max %d", ErrBadLen, n, MaxPullDeltas)
	}
	body = body[fixed:]
	if n > 0 {
		r.Deltas = make([]ViewDelta, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(body) < 2 {
			return ViewPullReply{}, ErrShort
		}
		dl := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if len(body) < dl {
			return ViewPullReply{}, ErrShort
		}
		d, err := parseViewDeltaBody(body[:dl])
		if err != nil {
			return ViewPullReply{}, err
		}
		r.Deltas = append(r.Deltas, d)
		body = body[dl:]
	}
	if len(body) != 0 {
		return ViewPullReply{}, fmt.Errorf("%w: %d trailing bytes", ErrBadLen, len(body))
	}
	return r, nil
}
