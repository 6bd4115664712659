// Package wire defines the binary wire format for all overlay messages.
//
// The encodings follow the paper's compact table-exchange representation
// (§5, "Table Exchange"): node IDs are 2-byte integers, link-state rows use
// 3 bytes per destination (2 bytes of latency in milliseconds plus 1 byte of
// liveness and loss), and routing recommendations carry (destination,
// best-hop, cost) triples. Every message starts with a 3-byte common header:
// one type byte and the 2-byte ID of the sender.
//
// A datagram carries one message, with one exception: a rendezvous's round-1
// row to a grid client rides behind its round-2 recommendation to the same
// client, sent at the same instant, without the row's source ID (PutRide,
// SplitRecommendation), so that the pairing's two rounds pay one datagram's
// overhead.
//
// All multi-byte integers are big-endian. Codecs are allocation-conscious:
// marshalling appends to a caller-supplied buffer, and unmarshalling
// validates lengths before touching the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// NodeID identifies an overlay node. IDs are assigned by the membership
// service and are carried on the wire as 2-byte integers, exactly as in the
// paper's implementation.
type NodeID uint16

// NilNode is the reserved "no such node" sentinel. It never names a real
// member; recommendation entries use it to mark unreachable destinations.
const NilNode NodeID = 0xFFFF

// MaxSlots is the most slots — and so the most members — a view can have:
// View.Slots and ViewChunk.TotalSlots are 16 bits wide, and a static fleet's
// IDs 0…N−1 must stay below NilNode.
const MaxSlots = 0xFFFF

// Cost is a path cost in milliseconds of round-trip latency. The value
// InfCost means "unreachable".
type Cost uint16

// InfCost is the unreachable path cost.
const InfCost Cost = 0xFFFF

// Add returns a+b with saturation at InfCost. Adding anything to InfCost
// yields InfCost, so dead links never masquerade as usable paths.
func (a Cost) Add(b Cost) Cost {
	if a == InfCost || b == InfCost {
		return InfCost
	}
	s := uint32(a) + uint32(b)
	if s >= uint32(InfCost) {
		return InfCost
	}
	return Cost(s)
}

// MsgType is the one-byte message discriminator carried first in every
// datagram.
type MsgType byte

// Message types. The probing/routing/membership grouping mirrors the
// bandwidth categories reported in the paper's evaluation (§6.1).
const (
	// Probing plane.
	TProbe MsgType = iota + 1
	TProbeReply

	// Routing plane.
	TLinkState      // round-1 link-state row (also the full-mesh broadcast)
	TRecommendation // round-2 best-hop recommendations
	TLinkStateDelta // a link-state row as the entries that changed since the sender's previous row
	TLinkStateAsym  // round-1 row with both directed costs (footnote 2)
	TLinkStateAck   // acknowledgment for reliable row delivery (§6.2.2 option)

	// Membership plane.
	TJoin
	TJoinReply // reserved: nothing sends it; the first view that lists a joiner's address admits it
	TLeave
	THeartbeat
	TView        // reserved: no node sends it; full views travel as TViewChunk
	TViewDelta   // reserved: no node sends it; deltas travel as TGossipDelta
	TViewRequest // reserved: nobody sends it; every request for missed views is a TViewPull

	// Data plane.
	TData

	// Membership plane, replicated-coordinator extension.
	//
	// THeartbeatAck is a primary's answer to a heartbeat from an ID it seats
	// no member under, carrying its view stamp (AppendStamped): "at this
	// stamp, no member holds your ID". A member's own heartbeat draws
	// nothing. The name is the retired acknowledgement's.
	THeartbeatAck
	TCoordBeacon // primary liveness/epoch beacon between coordinator replicas
	// TPreVote is a standby's question to its replica peers before it
	// promotes itself: "my election timeout fired — do you still observe the
	// primary?". It carries the asker's stamp (AppendStamped), so peers
	// across a healed partition can tell which reign it is about. A standby
	// whose beacon silence is merely a one-way delay learns so from the
	// replies and re-arms instead of splitting the epoch.
	TPreVote
	TPreVoteReply // peer's answer: whether it still observes the primary alive

	// Membership plane, gossip dissemination extension.
	TGossipDelta // epidemically forwarded ViewDelta carrying a hop budget
	// TViewPull is the one way to ask for missed views, by a member of a
	// peer or a coordinator and by a standby of the primary. It carries the
	// asker's stamp (AppendStamped), zero if it holds no view; answerPull in
	// internal/membership is the rule for answering it.
	TViewPull
	TViewPullReply // an answer that bridges the gap with consecutive deltas

	// Membership plane, slot-addressed views extension.
	TViewChunk // one bounded piece of a chunked full-view snapshot

	maxMsgType
)

// TLinkStateMH is the name the delta's type byte had while it was reserved,
// kept while benchmark/trace.go's plane table spells it (ROADMAP item 1).
const TLinkStateMH = TLinkStateDelta

// msgTypes names every message type and gives its traffic category, indexed
// by type: the one table String and CategoryOf read, so a new type is one row.
var msgTypes = [maxMsgType]struct {
	name string
	cat  Category
}{
	TProbe:          {"probe", CatProbing},
	TProbeReply:     {"probe-reply", CatProbing},
	TLinkState:      {"link-state", CatRouting},
	TRecommendation: {"recommendation", CatRouting},
	TLinkStateDelta: {"link-state-delta", CatRouting},
	TLinkStateAsym:  {"link-state-asym", CatRouting},
	TLinkStateAck:   {"link-state-ack", CatRouting},
	TJoin:           {"join", CatMembership},
	TJoinReply:      {"join-reply", CatMembership},
	TLeave:          {"leave", CatMembership},
	THeartbeat:      {"heartbeat", CatMembership},
	TView:           {"view", CatMembership},
	TViewDelta:      {"view-delta", CatMembership},
	TViewRequest:    {"view-request", CatMembership},
	TData:           {"data", CatData},
	THeartbeatAck:   {"heartbeat-ack", CatMembership},
	TCoordBeacon:    {"coord-beacon", CatMembership},
	TPreVote:        {"pre-vote", CatMembership},
	TPreVoteReply:   {"pre-vote-reply", CatMembership},
	TGossipDelta:    {"gossip-delta", CatMembership},
	TViewPull:       {"view-pull", CatMembership},
	TViewPullReply:  {"view-pull-reply", CatMembership},
	TViewChunk:      {"view-chunk", CatMembership},
}

// String returns the human-readable name of the message type.
func (t MsgType) String() string {
	if !t.Valid() {
		return fmt.Sprintf("msgtype(%d)", byte(t))
	}
	return msgTypes[t].name
}

// Valid reports whether t is a known message type.
func (t MsgType) Valid() bool { return t >= TProbe && t < maxMsgType }

// Category is the traffic class a message belongs to, used by bandwidth
// accounting. The paper reports probing and routing traffic separately.
type Category int

// Traffic categories.
const (
	CatProbing Category = iota
	CatRouting
	CatMembership
	CatData
	NumCategories
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case CatProbing:
		return "probing"
	case CatRouting:
		return "routing"
	case CatMembership:
		return "membership"
	case CatData:
		return "data"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// CategoryOf maps a message type to its traffic category; an unknown type
// counts as membership traffic.
func CategoryOf(t MsgType) Category {
	if !t.Valid() {
		return CatMembership
	}
	return msgTypes[t].cat
}

// PerPacketOverhead is the per-datagram overhead in bytes charged by the
// bandwidth accounting on top of the payload: 20 bytes of IPv4 header plus
// 8 bytes of UDP header, plus the 18 bytes of layer-2 framing the paper's
// coefficient implies. Together with the 3-byte common message header this
// reproduces the paper's per-packet constant (a 0-payload probe costs
// 46 + 3 = 49 bytes ≈ the 46-byte packets behind the published 49.1n bps
// probing coefficient; see internal/bwmodel). The paper's quorum law pays it
// once per round, a row and a recommendation each way per grid pairing and
// interval (its 196.3·√n term); a row that rides behind a recommendation pays
// none of its own, which takes that term to ≈ 98·√n (bwmodel.Params.Shared).
const PerPacketOverhead = 46

// HeaderLen is the length of the common message header: type (1 byte) plus
// source node ID (2 bytes).
const HeaderLen = 3

// MaxDatagram is the largest payload one IPv4 UDP datagram carries: 65 535
// bytes less the 20-byte IP and 8-byte UDP headers. Both transports refuse a
// larger one, the simulator included.
const MaxDatagram = 65507

// Common errors returned by the codecs.
var (
	ErrShort   = errors.New("wire: message too short")
	ErrBadType = errors.New("wire: unknown message type")
	ErrBadLen  = errors.New("wire: inconsistent message length")
	// ErrRunForm refuses a run-form recommendation where the receiver's run
	// is unknown: its named entries carry no destination.
	ErrRunForm = errors.New("wire: recommendation names destinations by the receiver's run")
	// ErrBadDelta refuses a link-state delta whose form is no row type, a
	// delta of either kind at Seq 0, which has nothing before it, and one
	// naming a base that no row before Seq−1 is.
	ErrBadDelta = errors.New("wire: delta patches nothing")
)

// Header is the common prefix of every message.
type Header struct {
	Type MsgType
	Src  NodeID
}

// AppendHeader appends the common header to b.
func AppendHeader(b []byte, t MsgType, src NodeID) []byte {
	b = append(b, byte(t))
	return binary.BigEndian.AppendUint16(b, uint16(src))
}

// ParseHeader decodes the common header and returns the remaining payload.
func ParseHeader(b []byte) (Header, []byte, error) {
	if len(b) < HeaderLen {
		return Header{}, nil, ErrShort
	}
	h := Header{
		Type: MsgType(b[0]),
		Src:  NodeID(binary.BigEndian.Uint16(b[1:3])),
	}
	if !h.Type.Valid() {
		return Header{}, nil, fmt.Errorf("%w: %d", ErrBadType, b[0])
	}
	return h, b[HeaderLen:], nil
}

// PeekType returns the message type of an encoded message without fully
// decoding it. It returns 0 for malformed input.
func PeekType(b []byte) MsgType {
	if len(b) == 0 {
		return 0
	}
	return MsgType(b[0])
}
