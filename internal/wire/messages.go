package wire

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// StatusDead is the liveness/loss byte marking a dead link (5 consecutive
// probe losses, §5 "Link Monitoring"). Any other value is the measured loss
// percentage of an alive link, clamped to [0, 100].
const StatusDead byte = 0xFF

// MakeStatus packs liveness and loss into the 1-byte representation used in
// link-state rows.
func MakeStatus(alive bool, lossPct int) byte {
	if !alive {
		return StatusDead
	}
	if lossPct < 0 {
		lossPct = 0
	}
	if lossPct > 100 {
		lossPct = 100
	}
	return byte(lossPct)
}

// StatusAlive reports whether a status byte denotes an alive link.
func StatusAlive(s byte) bool { return s != StatusDead }

// LinkEntry is one destination's measurement in a link-state row: 2 bytes of
// EWMA latency in milliseconds and 1 byte of liveness/loss, the paper's
// 3-byte-per-node compact representation.
type LinkEntry struct {
	Latency uint16
	Status  byte
}

// Cost returns the routing cost of the link: its latency if alive, InfCost
// otherwise.
func (e LinkEntry) Cost() Cost {
	if !StatusAlive(e.Status) {
		return InfCost
	}
	return Cost(e.Latency)
}

// LinkEntryLen is the encoded size of a LinkEntry.
const LinkEntryLen = 3

// Probe is a liveness/latency probe. Echo carries the sender's clock (in
// nanoseconds of its own epoch) and is reflected verbatim by the reply so
// the prober can compute the RTT without synchronized clocks.
type Probe struct {
	Seq  uint32
	Echo int64
}

// probeBodyLen is the encoded body size of Probe and ProbeReply.
const probeBodyLen = 12

// AppendProbe encodes p with its header, growing b at most once.
func AppendProbe(b []byte, src NodeID, p Probe) []byte {
	b = AppendHeader(slices.Grow(b, HeaderLen+probeBodyLen), TProbe, src)
	b = binary.BigEndian.AppendUint32(b, p.Seq)
	return binary.BigEndian.AppendUint64(b, uint64(p.Echo))
}

// ProbeReply answers a Probe, echoing its sequence number and timestamp.
// RecvAt is the replier's own clock at the moment the probe arrived; with
// synchronized clocks it lets the prober split the RTT into one-way
// latencies, the measurement basis for asymmetric link costs (the paper's
// footnote 2 extension).
type ProbeReply struct {
	Seq    uint32
	Echo   int64
	RecvAt int64
}

// probeReplyBodyLen is the encoded body size of ProbeReply.
const probeReplyBodyLen = 20

// AppendProbeReply encodes r with its header, growing b at most once.
func AppendProbeReply(b []byte, src NodeID, r ProbeReply) []byte {
	b = AppendHeader(slices.Grow(b, HeaderLen+probeReplyBodyLen), TProbeReply, src)
	b = binary.BigEndian.AppendUint32(b, r.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Echo))
	return binary.BigEndian.AppendUint64(b, uint64(r.RecvAt))
}

// ParseProbe decodes a Probe body (after the common header).
func ParseProbe(body []byte) (Probe, error) {
	if len(body) != probeBodyLen {
		return Probe{}, ErrBadLen
	}
	return Probe{
		Seq:  binary.BigEndian.Uint32(body),
		Echo: int64(binary.BigEndian.Uint64(body[4:])),
	}, nil
}

// ParseProbeReply decodes a ProbeReply body.
func ParseProbeReply(body []byte) (ProbeReply, error) {
	if len(body) != probeReplyBodyLen {
		return ProbeReply{}, ErrBadLen
	}
	return ProbeReply{
		Seq:    binary.BigEndian.Uint32(body),
		Echo:   int64(binary.BigEndian.Uint64(body[4:])),
		RecvAt: int64(binary.BigEndian.Uint64(body[12:])),
	}, nil
}

// LinkState is a round-1 link-state row: the sender's measurements to every
// member of the view named by ViewVersion, entry i for its i-th occupied slot
// (PackLinkState), so a receiver holding another view discards it. It is also
// the message broadcast by the full-mesh (RON) baseline.
type LinkState struct {
	ViewVersion uint32
	Seq         uint32
	Entries     []LinkEntry
}

// AppendLinkState encodes ls with its header. The payload beyond the fixed
// fields is exactly 3 bytes per entry.
func AppendLinkState(b []byte, src NodeID, ls LinkState) []byte {
	b = appendLinkStateFixed(b, TLinkState, src, ls.ViewVersion, ls.Seq, len(ls.Entries))
	for _, e := range ls.Entries {
		b = binary.BigEndian.AppendUint16(b, e.Latency)
		b = append(b, e.Status)
	}
	return b
}

// linkStateFixed is the encoded size of a link-state row's view version,
// sequence number and entry count, in either row format.
const linkStateFixed = 4 + 4 + 2

// appendLinkStateFixed appends the header and fixed fields of an n-entry
// link-state row of type t: the one writer of both row formats' framing.
func appendLinkStateFixed(b []byte, t MsgType, src NodeID, viewVersion, seq uint32, n int) []byte {
	b = AppendHeader(b, t, src)
	b = binary.BigEndian.AppendUint32(b, viewVersion)
	b = binary.BigEndian.AppendUint32(b, seq)
	return binary.BigEndian.AppendUint16(b, uint16(n))
}

// LinkStateBody validates the body of a link-state row of type t — TLinkState,
// 3 bytes an entry, or TLinkStateAsym, 5 — and returns its view version,
// sequence number and entry bytes, for lsdb.Table.PutWire to unpack in
// place. It is the one framing check of both row formats, and its errors are
// bare so that a rejection allocates nothing.
//
//lint:allocfree
func LinkStateBody(t MsgType, body []byte) (viewVersion, seq uint32, entries []byte, err error) {
	if len(body) < linkStateFixed {
		return 0, 0, nil, ErrShort
	}
	entries = body[linkStateFixed:]
	if len(entries) != int(binary.BigEndian.Uint16(body[8:]))*entryLen(t) {
		return 0, 0, nil, ErrBadLen
	}
	return binary.BigEndian.Uint32(body), binary.BigEndian.Uint32(body[4:]), entries, nil
}

// LinkEntryAt decodes entry i of a TLinkState row's entry bytes: the one
// decoder of the 3-byte form.
func LinkEntryAt(entries []byte, i int) LinkEntry {
	b := entries[i*LinkEntryLen:][:LinkEntryLen]
	return LinkEntry{Latency: binary.BigEndian.Uint16(b), Status: b[2]}
}

// PackLinkState drops in place from msg, a link-state message of either format
// with an entry per slot, the entries of the tombstones (ascending slots).
//
//lint:allocfree
func PackLinkState(msg []byte, tombstones []int) []byte {
	entries, n := msg[HeaderLen+linkStateFixed:], int(binary.BigEndian.Uint16(msg[HeaderLen+8:]))
	size, lo := len(entries)/max(n, 1), 0
	for k, t := range tombstones {
		copy(entries[(lo-k)*size:], entries[lo*size:t*size])
		lo = t + 1
	}
	copy(entries[(lo-len(tombstones))*size:], entries[lo*size:])
	binary.BigEndian.PutUint16(msg[HeaderLen+8:], uint16(n-len(tombstones)))
	return msg[:len(msg)-len(tombstones)*size]
}

// ParseLinkState decodes a LinkState body into a message of its own.
func ParseLinkState(body []byte) (LinkState, error) {
	viewVersion, seq, entries, err := LinkStateBody(TLinkState, body)
	if err != nil {
		return LinkState{}, err
	}
	ls := LinkState{ViewVersion: viewVersion, Seq: seq, Entries: make([]LinkEntry, len(entries)/LinkEntryLen)}
	for i := range ls.Entries {
		ls.Entries[i] = LinkEntryAt(entries, i)
	}
	return ls, nil
}

// LinkStateSize returns the encoded datagram payload size of a link-state
// row over n nodes, excluding per-packet overhead. Used by the bandwidth
// model and tested against the codec.
func LinkStateSize(n int) int { return HeaderLen + linkStateFixed + LinkEntryLen*n }

// A link-state delta (TLinkStateDelta) is a link-state row sent as the
// entries whose cost changed: row Seq of its form, a TLinkState or a
// TLinkStateAsym row of a view's members, member-packed, rebuilt from the
// sender's row Seq−1 in the same view by writing its entries over the changed
// members' of that row.
//
// The body is the view version and Seq (4 bytes each), the form's type byte,
// the member count and the changed count (2 bytes each), the changed members'
// marks, and the changed entries in the form's encoding, in member order. The
// marks take the shorter of two forms, which the two counts choose, so no
// flag says which:
//   - index form, when 2·changed < ⌈members/8⌉: the changed members' 2-byte
//     indices, strictly ascending, each below members;
//   - bitmap form, otherwise: ⌈members/8⌉ bytes whose bit i (least
//     significant first) marks member i changed and whose bits past the
//     members are zero.
//
// The header and the marks fix the length, so no cut goes unseen.

// deltaFixed is the encoded size of a delta's fields before its marks.
const deltaFixed = 4 + 4 + 1 + 2 + 2

// deltaIndexed reports whether a delta of changed entries over a row of
// members marks them by index, the shorter form, rather than by bitmap.
func deltaIndexed(members, changed int) bool { return 2*changed < bitmapLen(members) }

// deltaMarksLen is the encoded size of a delta's marks.
func deltaMarksLen(members, changed int) int {
	if deltaIndexed(members, changed) {
		return 2 * changed
	}
	return bitmapLen(members)
}

// NewLinkStateDelta returns a whole delta message from src, of changed
// entries over a row of members, allocated once at its final size for
// PutDeltaEntry to fill.
func NewLinkStateDelta(src NodeID, viewVersion, seq uint32, form MsgType, members, changed int) []byte {
	b := AppendHeader(make([]byte, 0, LinkStateDeltaSize(members, changed, entryLen(form))), TLinkStateDelta, src)
	b = binary.BigEndian.AppendUint32(b, viewVersion)
	b = binary.BigEndian.AppendUint32(b, seq)
	b = append(b, byte(form))
	b = binary.BigEndian.AppendUint16(b, uint16(members))
	b = binary.BigEndian.AppendUint16(b, uint16(changed))
	return b[:cap(b)]
}

// PutDeltaEntry marks member i changed in msg, a whole delta message, and
// writes entry, in the form's encoding, as its k-th changed entry: k counts
// the members below i marked before.
//
//lint:allocfree
func PutDeltaEntry(msg []byte, i, k int, entry []byte) {
	body := msg[HeaderLen:]
	members, changed := int(binary.BigEndian.Uint16(body[9:])), int(binary.BigEndian.Uint16(body[11:]))
	if deltaIndexed(members, changed) {
		binary.BigEndian.PutUint16(body[deltaFixed+2*k:], uint16(i))
	} else {
		body[deltaFixed+i/8] |= 1 << (i % 8)
	}
	copy(body[deltaFixed+deltaMarksLen(members, changed)+k*len(entry):], entry)
}

// DeltaBody is a delta body LinkStateDeltaBody accepted, read in place.
type DeltaBody struct {
	ViewVersion, Seq uint32
	Form             MsgType
	// Members is the row's entry count, Changed how many the marks name.
	Members, Changed int

	marks, entries []byte
}

// EntryLen is the encoded size of one of the delta's entries.
func (d *DeltaBody) EntryLen() int { return entryLen(d.Form) }

// entryLen is the encoded size of an entry of row type t.
func entryLen(t MsgType) int {
	if t == TLinkStateAsym {
		return AsymEntryLen
	}
	return LinkEntryLen
}

// Member returns the member whose entry is changed entry k, given prev, the
// member of entry k−1 (−1 for k = 0): in both forms the members come
// ascending, one call an entry.
//
//lint:allocfree
func (d *DeltaBody) Member(k, prev int) int {
	if deltaIndexed(d.Members, d.Changed) {
		return int(binary.BigEndian.Uint16(d.marks[2*k:]))
	}
	for i := prev + 1; ; i = (i | 7) + 1 {
		if w := d.marks[i/8] >> (i % 8); w != 0 {
			return i + bits.TrailingZeros8(w)
		}
	}
}

// Entries returns the changed entries, in the form's encoding, in member order.
func (d *DeltaBody) Entries() []byte { return d.entries }

// LinkStateDeltaBody checks the framing of a delta body — a row type for
// form, a row before Seq, marks in the form the counts choose that name as
// many members as the changed count says, ascending and below Members, and
// an entry for each — and returns it for reading in place. Its errors are
// bare, so that a refusal allocates nothing.
//
//lint:allocfree
func LinkStateDeltaBody(body []byte) (DeltaBody, error) {
	if len(body) < deltaFixed {
		return DeltaBody{}, ErrShort
	}
	d := DeltaBody{
		ViewVersion: binary.BigEndian.Uint32(body),
		Seq:         binary.BigEndian.Uint32(body[4:]),
		Form:        MsgType(body[8]),
		Members:     int(binary.BigEndian.Uint16(body[9:])),
		Changed:     int(binary.BigEndian.Uint16(body[11:])),
	}
	if (d.Form != TLinkState && d.Form != TLinkStateAsym) || d.Seq == 0 {
		return DeltaBody{}, ErrBadDelta
	}
	rest, marksLen := body[deltaFixed:], deltaMarksLen(d.Members, d.Changed)
	if len(rest) != marksLen+d.Changed*d.EntryLen() {
		return DeltaBody{}, ErrBadLen
	}
	d.marks, d.entries = rest[:marksLen], rest[marksLen:]
	if deltaIndexed(d.Members, d.Changed) {
		prev := -1
		for k := 0; k < marksLen; k += 2 {
			i := int(binary.BigEndian.Uint16(d.marks[k:]))
			if i <= prev || i >= d.Members {
				return DeltaBody{}, ErrBadLen // out of order, repeated or past the row
			}
			prev = i
		}
		return d, nil
	}
	marked := 0
	for _, w := range d.marks {
		marked += bits.OnesCount8(w)
	}
	if d.Members%8 != 0 && d.marks[len(d.marks)-1]>>(d.Members%8) != 0 {
		return DeltaBody{}, ErrBadLen // a bit past the row
	}
	if marked != d.Changed {
		return DeltaBody{}, ErrBadLen
	}
	return d, nil
}

// LinkStateDeltaSize returns the encoded payload size of a delta over a row of
// members entries, changed of them entryLen bytes each, in the shorter of its
// two forms, excluding per-packet overhead.
func LinkStateDeltaSize(members, changed, entryLen int) int {
	return HeaderLen + deltaFixed + deltaMarksLen(members, changed) + changed*entryLen
}

// RecEntry is one best-hop recommendation: for destination Dst, forward via
// Hop at total path cost Cost. Hop == Dst means the direct path is best;
// Hop == NilNode means the rendezvous found no usable path.
type RecEntry struct {
	Dst  NodeID
	Hop  NodeID
	Cost Cost
}

// A recommendation body takes one of two forms, both TRecommendation. Each
// opens with the view version (4 bytes) and a 16-bit word whose top bit tells
// them apart.
//
// The explicit form names every entry's destination: the word is the entry
// count k, below 0x8000, and k entries of destination, hop and cost follow,
// recEntryLen bytes each. Anyone may send it.
//
// The run form is what a default rendezvous k sends one of its grid clients
// c, which keeps a clock for each destination k holds a row of: k's grid
// clients and k, ascending, less c — the run c holds for k. The word is
// recRunFlag | r, r that run's length; then come the count of explicit
// entries, a bitmap of ⌈r/8⌉ bytes whose bit i (least significant first)
// names the run's i-th destination and whose bits past r are zero, one named
// entry of hop and cost per set bit, in run order, and the explicit entries,
// ascending by slot, for destinations outside the run: k's failover clients.
// The header and bitmap fix the length, so no cut goes unseen.
//
// The paper's bandwidth accounting charges an entry 4 bytes, destination and
// hop. A named entry spends the same 4 on hop and cost, the cost being what a
// client needs to arbitrate between redundant rendezvous and to report path
// gains; an explicit entry adds the destination.
const (
	recEntryLen   = 6            // an explicit entry: destination, hop, cost
	namedEntryLen = 4            // a named entry: hop, cost
	recFixed      = 4 + 2        // view version and count word
	recRunFixed   = recFixed + 2 // and the run form's explicit count
	recRunFlag    = 0x8000       // the count word's run-form bit
)

// Recommendation is a round-2 message in the explicit form, from a rendezvous
// server to one of its clients: the best one-hop routes from that client to
// each of the server's other rendezvous clients.
type Recommendation struct {
	ViewVersion uint32
	Entries     []RecEntry
}

// NewRecommendation returns a whole k-entry explicit-form message from src,
// allocated once at its final size, for PutRecEntry to fill in place: a
// rendezvous knows every entry's position, so round 2 never stages entries.
func NewRecommendation(src NodeID, viewVersion uint32, k int) []byte {
	return appendRecommendation(make([]byte, 0, RecommendationSize(k)), src, viewVersion, k)
}

// appendRecommendation appends a k-entry explicit-form message, its entries
// still zero.
func appendRecommendation(b []byte, src NodeID, viewVersion uint32, k int) []byte {
	b = AppendHeader(b, TRecommendation, src)
	b = binary.BigEndian.AppendUint32(b, viewVersion)
	b = binary.BigEndian.AppendUint16(b, uint16(k))
	return append(b, make([]byte, recEntryLen*k)...)
}

// NewRecommendationRun returns a whole run-form message from src, over a run
// of run destinations, with named entries the bitmap names and extra explicit
// ones, at its final size: MarkRecRun fills the bitmap, PutRecEntry the
// entries.
func NewRecommendationRun(src NodeID, viewVersion uint32, run, named, extra int) []byte {
	b := AppendHeader(make([]byte, 0, RecommendationRunSize(run, named, extra)), TRecommendation, src)
	b = binary.BigEndian.AppendUint32(b, viewVersion)
	b = binary.BigEndian.AppendUint16(b, recRunFlag|uint16(run))
	b = binary.BigEndian.AppendUint16(b, uint16(extra))
	return b[:cap(b)]
}

// MarkRecRun sets bit i of a run-form message's bitmap: the run's i-th
// destination is named.
//
//lint:allocfree
func MarkRecRun(msg []byte, i int) {
	msg[HeaderLen+recRunFixed+i/8] |= 1 << (i % 8)
}

// PutRecEntry encodes e as entry i of msg, a whole recommendation message of
// either form; in the run form the first named entries carry e's hop and cost
// only. It is the one entry encoder; different entries may be written
// concurrently.
//
//lint:allocfree
func PutRecEntry(msg []byte, i int, e RecEntry) {
	body := msg[HeaderLen:]
	word := binary.BigEndian.Uint16(body[4:])
	at := recFixed
	if word&recRunFlag != 0 {
		at = recRunFixed + bitmapLen(int(word&^recRunFlag))
		named := (len(body) - at - int(binary.BigEndian.Uint16(body[recFixed:]))*recEntryLen) / namedEntryLen
		if i < named {
			b := body[at+i*namedEntryLen:][:namedEntryLen]
			binary.BigEndian.PutUint16(b, uint16(e.Hop))
			binary.BigEndian.PutUint16(b[2:], uint16(e.Cost))
			return
		}
		at, i = at+named*namedEntryLen, i-named
	}
	b := body[at+i*recEntryLen:][:recEntryLen]
	binary.BigEndian.PutUint16(b, uint16(e.Dst))
	binary.BigEndian.PutUint16(b[2:], uint16(e.Hop))
	binary.BigEndian.PutUint16(b[4:], uint16(e.Cost))
}

// bitmapLen is the byte length of a bitmap over run destinations.
func bitmapLen(run int) int { return (run + 7) / 8 }

// AppendRecommendation encodes r, in the explicit form, with its header.
func AppendRecommendation(b []byte, src NodeID, r Recommendation) []byte {
	at := len(b)
	b = appendRecommendation(b, src, r.ViewVersion, len(r.Entries))
	msg := b[at:]
	for i, e := range r.Entries {
		PutRecEntry(msg, i, e)
	}
	return b
}

// RecBody is a recommendation body of either form that RecommendationBody
// accepted, read in place.
type RecBody struct {
	ViewVersion uint32
	// ByRun marks the run form; Run is then its run's length and Named the
	// count of run positions its bitmap names (NextRun).
	ByRun bool
	Run   int
	Named int
	// Entries counts every entry: the Named first, then the explicit ones.
	Entries int

	bitmap, entries []byte
}

// NextRun returns the first run position at or past p that the bitmap
// names, or Run when none is: named entry i is for the i-th position named.
//
//lint:allocfree
func (r *RecBody) NextRun(p int) int {
	for p < r.Run {
		if w := r.bitmap[p/8] >> (p % 8); w != 0 {
			return p + bits.TrailingZeros8(w)
		}
		p = p/8*8 + 8
	}
	return r.Run
}

// RecommendationBody checks the framing of a recommendation body of either
// form — its length, and in the run form a bitmap with no bit past the run —
// and returns it for Entry to read in place. Its errors are bare, so that a
// refusal allocates nothing.
//
//lint:allocfree
func RecommendationBody(body []byte) (RecBody, error) {
	if len(body) < recFixed {
		return RecBody{}, ErrShort
	}
	r := RecBody{ViewVersion: binary.BigEndian.Uint32(body)}
	word := int(binary.BigEndian.Uint16(body[4:]))
	extra, rest := word, body[recFixed:]
	if word&recRunFlag != 0 {
		r.ByRun, r.Run = true, word&^recRunFlag
		if len(rest) < 2+bitmapLen(r.Run) {
			return RecBody{}, ErrShort
		}
		extra, r.bitmap, rest = int(binary.BigEndian.Uint16(rest)), rest[2:2+bitmapLen(r.Run)], rest[2+bitmapLen(r.Run):]
		for _, w := range r.bitmap {
			r.Named += bits.OnesCount8(w)
		}
		if r.Run%8 != 0 && r.bitmap[len(r.bitmap)-1]>>(r.Run%8) != 0 {
			return RecBody{}, ErrBadLen // a bit past the run
		}
	}
	if len(rest) != r.Named*namedEntryLen+extra*recEntryLen {
		return RecBody{}, ErrBadLen
	}
	r.Entries, r.entries = r.Named+extra, rest
	return r, nil
}

// Entry decodes entry i: the one entry decoder, and it allocates nothing. A
// named entry's Dst is NilNode — the receiver's run names it.
//
//lint:allocfree
func (r *RecBody) Entry(i int) RecEntry {
	if i < r.Named {
		b := r.entries[i*namedEntryLen:][:namedEntryLen]
		return RecEntry{Dst: NilNode, Hop: NodeID(binary.BigEndian.Uint16(b)), Cost: Cost(binary.BigEndian.Uint16(b[2:]))}
	}
	b := r.entries[r.Named*namedEntryLen+(i-r.Named)*recEntryLen:][:recEntryLen]
	return RecEntry{
		Dst:  NodeID(binary.BigEndian.Uint16(b)),
		Hop:  NodeID(binary.BigEndian.Uint16(b[2:])),
		Cost: Cost(binary.BigEndian.Uint16(b[4:])),
	}
}

// ParseRecommendation decodes an explicit-form body into a message of its
// own; a run-form body is ErrRunForm.
func ParseRecommendation(body []byte) (Recommendation, error) {
	rb, err := RecommendationBody(body)
	if err != nil {
		return Recommendation{}, err
	}
	if rb.ByRun {
		return Recommendation{}, ErrRunForm
	}
	r := Recommendation{ViewVersion: rb.ViewVersion, Entries: make([]RecEntry, rb.Entries)}
	for i := range r.Entries {
		r.Entries[i] = rb.Entry(i)
	}
	return r, nil
}

// RecommendationSize returns the encoded payload size of an explicit-form
// message with k entries, excluding per-packet overhead.
func RecommendationSize(k int) int { return HeaderLen + recFixed + recEntryLen*k }

// RecommendationRunSize returns the encoded payload size of a run-form
// message over a run of run destinations, with named entries the bitmap
// names and extra explicit ones, excluding per-packet overhead.
func RecommendationRunSize(run, named, extra int) int {
	return HeaderLen + recRunFixed + bitmapLen(run) + namedEntryLen*named + recEntryLen*extra
}

// AsymEntry is one destination's entry in an asymmetric link-state row
// (footnote 2: "the link state transmitted in round one would include both
// costs"): the one-way cost toward the destination (Out), the one-way cost
// back (In), and the shared liveness/loss byte.
type AsymEntry struct {
	Out    uint16
	In     uint16
	Status byte
}

// AsymEntryLen is the encoded size of an AsymEntry.
const AsymEntryLen = 5

// OutCost returns the directed cost origin→destination.
func (e AsymEntry) OutCost() Cost {
	if !StatusAlive(e.Status) {
		return InfCost
	}
	return Cost(e.Out)
}

// InCost returns the directed cost destination→origin.
func (e AsymEntry) InCost() Cost {
	if !StatusAlive(e.Status) {
		return InfCost
	}
	return Cost(e.In)
}

// LinkStateAsym is the round-1 row in asymmetric mode.
type LinkStateAsym struct {
	ViewVersion uint32
	Seq         uint32
	Entries     []AsymEntry
}

// AppendLinkStateAsym encodes ls with its header.
func AppendLinkStateAsym(b []byte, src NodeID, ls LinkStateAsym) []byte {
	b = appendLinkStateFixed(b, TLinkStateAsym, src, ls.ViewVersion, ls.Seq, len(ls.Entries))
	for _, e := range ls.Entries {
		b = binary.BigEndian.AppendUint16(b, e.Out)
		b = binary.BigEndian.AppendUint16(b, e.In)
		b = append(b, e.Status)
	}
	return b
}

// AsymEntryAt decodes entry i of a TLinkStateAsym row's entry bytes: the one
// decoder of the 5-byte form.
func AsymEntryAt(entries []byte, i int) AsymEntry {
	b := entries[i*AsymEntryLen:][:AsymEntryLen]
	return AsymEntry{Out: binary.BigEndian.Uint16(b), In: binary.BigEndian.Uint16(b[2:]), Status: b[4]}
}

// AsymLinkStateSize returns the encoded payload size of an asymmetric row
// over n nodes, excluding per-packet overhead.
//
//lint:testonly TestLinkStateRowsCarryMembers (emul) sizes directional rows
func AsymLinkStateSize(n int) int { return HeaderLen + linkStateFixed + AsymEntryLen*n }

// LinkStateAckSize is the encoded payload size of a link-state ack, excluding
// per-packet overhead.
const LinkStateAckSize = HeaderLen + 4

// AppendLinkStateAck encodes an acknowledgment of the link-state row with
// the given sequence number (the §6.2.2 reliability option: "making
// link-state announcements reliable, at the cost of additional complexity
// and some bandwidth").
func AppendLinkStateAck(b []byte, src NodeID, seq uint32) []byte {
	b = AppendHeader(b, TLinkStateAck, src)
	return binary.BigEndian.AppendUint32(b, seq)
}

// ParseLinkStateAck decodes a link-state ack body, returning the
// acknowledged sequence number.
func ParseLinkStateAck(body []byte) (uint32, error) {
	if len(body) != 4 {
		return 0, ErrBadLen
	}
	return binary.BigEndian.Uint32(body), nil
}
