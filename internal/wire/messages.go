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
	putMark(body[deltaFixed:], members, changed, k, i)
	copy(body[deltaFixed+deltaMarksLen(members, changed)+k*len(entry):], entry)
}

// putMark marks member i as the k-th of changed of members in marks, in the
// form the counts choose.
//
//lint:allocfree
func putMark(marks []byte, members, changed, k, i int) {
	if deltaIndexed(members, changed) {
		binary.BigEndian.PutUint16(marks[2*k:], uint16(i))
	} else {
		marks[i/8] |= 1 << (i % 8)
	}
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
func (d *DeltaBody) Member(k, prev int) int { return markAt(d.marks, d.Members, d.Changed, k, prev) }

// markAt returns the member that the marks of changed of members name k-th,
// given prev, the one they name (k−1)-th (−1 for k = 0).
//
//lint:allocfree
func markAt(marks []byte, members, changed, k, prev int) int {
	if deltaIndexed(members, changed) {
		return int(binary.BigEndian.Uint16(marks[2*k:]))
	}
	for i := prev + 1; ; i = (i | 7) + 1 {
		if w := marks[i/8] >> (i % 8); w != 0 {
			return i + bits.TrailingZeros8(w)
		}
	}
}

// checkMarks checks marks, in the form the counts choose, against changed of
// members: they name exactly changed members, ascending and below members.
//
//lint:allocfree
func checkMarks(marks []byte, members, changed int) error {
	if deltaIndexed(members, changed) {
		prev := -1
		for k := 0; k < len(marks); k += 2 {
			i := int(binary.BigEndian.Uint16(marks[k:]))
			if i <= prev || i >= members {
				return ErrBadLen // out of order, repeated or past the row
			}
			prev = i
		}
		return nil
	}
	marked := 0
	for _, w := range marks {
		marked += bits.OnesCount8(w)
	}
	if members%8 != 0 && marks[len(marks)-1]>>(members%8) != 0 {
		return ErrBadLen // a bit past the row
	}
	if marked != changed {
		return ErrBadLen
	}
	return nil
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
	if err := checkMarks(d.marks, d.Members, d.Changed); err != nil {
		return DeltaBody{}, err
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

// A recommendation body takes one of three forms, all TRecommendation. Each
// opens with the view version (4 bytes) and a 16-bit word whose top two bits
// tell them apart.
//
// The explicit form names every entry's destination: the word is the entry
// count k, below 0x8000, and k entries of destination, hop and cost follow,
// recEntryLen bytes each. Anyone may send it. One with no entries, from a
// client to its default rendezvous, is a refusal: the client holds no base
// for the delta it was sent, and asks for the message in full.
//
// The run form is what a default rendezvous k sends one of its grid clients
// c at its routing interval Seq. c keeps a clock for each destination k holds
// a row of: k's grid clients and k, ascending, less c — the run c holds for
// k. The word is recRunFlag | r, r that run's length, below 0x4000; then come
// Seq (4 bytes), the count of explicit entries, a bitmap of ⌈r/8⌉ bytes whose
// bit i (least significant first) names the run's i-th destination and whose
// bits past r are zero, one named entry of hop and cost per set bit, in run
// order, and the explicit entries, ascending by slot, for destinations
// outside the run: k's failover clients.
//
// The delta form is the run-form message at Seq sent as what changed since
// the one k sent c at Seq−1, so Seq is above 0. The word is recRunFlag |
// recDeltaFlag | r; Seq, the explicit count and the bitmap are the run
// form's. Then come the changed count (2 bytes); the changed positions'
// marks, each a position the bitmap names, in the shorter of a link-state
// delta's two forms over the run, which r and the changed count choose; one
// named entry per changed position, in run order; and every explicit entry. A
// position is changed when its entry differs from the message at Seq−1 or
// that message did not name it, so a client holding that message rebuilds
// every other named entry from it.
//
// The header and the counts fix each form's length, so no cut goes unseen.
//
// A run-form or delta-form message may carry behind it the round-1 row its
// sender sends the same client at the same instant, all of that message but
// its 2-byte source ID, which is the recommendation's: the type byte
// (TLinkState, TLinkStateAsym or TLinkStateDelta) and the body. The
// recommendation's counts fix where it ends, so the row needs no length
// field, and the pairing's two rounds pay one datagram's overhead
// (PutRide, SplitRecommendation). No other message carries anything behind.
//
// The paper's bandwidth accounting charges an entry 4 bytes, destination and
// hop. A named entry spends the same 4 on hop and cost, the cost being what a
// client needs to arbitrate between redundant rendezvous and to report path
// gains; an explicit entry adds the destination.
const (
	recEntryLen   = 6                // an explicit entry: destination, hop, cost
	namedEntryLen = 4                // a named entry: hop, cost
	recFixed      = 4 + 2            // view version and count word
	recRunFixed   = recFixed + 4 + 2 // and the run forms' Seq and explicit count
	recRunFlag    = 0x8000           // the count word's run-form bit
	recDeltaFlag  = 0x4000           // and, beside it, the delta form's
)

// Recommendation is a round-2 message in the explicit form, from a rendezvous
// server to one of its clients: the best one-hop routes from that client to
// each of the server's other rendezvous clients.
type Recommendation struct {
	ViewVersion uint32
	Entries     []RecEntry
}

// NewRecommendation returns a whole k-entry explicit-form message from src,
// at its final size, for PutRecEntry to fill in place: a rendezvous knows
// every entry's position, so round 2 writes each entry once. The message is
// built in mem (Carve).
func NewRecommendation(mem []byte, src NodeID, viewVersion uint32, k int) []byte {
	msg := Carve(mem, RecommendationSize(k))
	b := AppendHeader(msg[:0], TRecommendation, src)
	binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(b, viewVersion), uint16(k))
	return msg
}

// Carve returns mem as size zero bytes when it holds exactly that many, and
// else a new allocation of size bytes: a sender that knows its messages'
// sizes before it builds them allocates them together and carves each out.
func Carve(mem []byte, size int) []byte {
	if len(mem) != size {
		return make([]byte, size)
	}
	clear(mem)
	return mem[:size:size]
}

// NewRecommendationRun returns a whole run-form message from src at seq, over
// a run of run destinations, with named entries the bitmap names and extra
// explicit ones, at its final size, built in mem (Carve): MarkRecRun fills
// the bitmap, PutRecEntry the entries.
func NewRecommendationRun(mem []byte, src NodeID, viewVersion, seq uint32, run, named, extra int) []byte {
	return newRun(Carve(mem, RecommendationRunSize(run, named, extra)), src, viewVersion, seq, recRunFlag|uint16(run), extra)
}

// NewRecommendationDelta returns a whole delta-form message from src at seq,
// over a run of run destinations, with changed named entries and extra
// explicit ones, at its final size, built in mem (Carve): MarkRecRun fills
// the bitmap, MarkRecChanged the marks, PutRecEntry the entries.
func NewRecommendationDelta(mem []byte, src NodeID, viewVersion, seq uint32, run, changed, extra int) []byte {
	b := newRun(Carve(mem, RecommendationDeltaSize(run, changed, extra)), src, viewVersion, seq, recRunFlag|recDeltaFlag|uint16(run), extra)
	binary.BigEndian.PutUint16(b[HeaderLen+recRunFixed+bitmapLen(run):], uint16(changed))
	return b
}

// newRun writes over msg, a whole message of zero bytes, the opening both run
// forms share.
func newRun(msg []byte, src NodeID, viewVersion, seq uint32, word uint16, extra int) []byte {
	b := AppendHeader(msg[:0], TRecommendation, src)
	b = binary.BigEndian.AppendUint32(b, viewVersion)
	b = binary.BigEndian.AppendUint16(b, word)
	b = binary.BigEndian.AppendUint32(b, seq)
	binary.BigEndian.AppendUint16(b, uint16(extra))
	return msg
}

// MarkRecRun sets bit i of a run-form or delta-form message's bitmap: the
// run's i-th destination is named.
//
//lint:testonly TestRunFormRecommendationWalk and TestHostileRecommendationDeltasTouchNothing (core) name positions one by one
func MarkRecRun(msg []byte, i int) {
	msg[HeaderLen+recRunFixed+i/8] |= 1 << (i % 8)
}

// PutRecRun writes the bitmap of msg, a run-form or delta-form message, from
// bits, a bitmap over the addressee's run and the addressee itself at
// position cut: the addressee's bit drops out and every bit past it moves
// down one place. A rendezvous builds bits once a tick for all its clients.
//
//lint:allocfree
func PutRecRun(msg, bits []byte, cut int) {
	dst := msg[HeaderLen+recRunFixed:][:bitmapLen(runLen(msg[HeaderLen:]))]
	w := cut / 8
	copy(dst[:w], bits[:w])
	for b := w; b < len(dst); b++ {
		var next byte
		if b+1 < len(bits) {
			next = bits[b+1]
		}
		v := bits[b]>>1 | next<<7
		if b == w {
			low := byte(1)<<(cut%8) - 1
			v = bits[b]&low | v&^low
		}
		dst[b] = v
	}
}

// MarkRecChanged marks run position i as the k-th changed one of msg, a whole
// delta-form message: k counts the positions below i marked before.
//
//lint:allocfree
func MarkRecChanged(msg []byte, k, i int) {
	body := msg[HeaderLen:]
	at := recRunFixed + bitmapLen(runLen(body))
	putMark(body[at+2:], runLen(body), int(binary.BigEndian.Uint16(body[at:])), k, i)
}

// runLen reads a run form's run length from its count word.
func runLen(body []byte) int {
	return int(binary.BigEndian.Uint16(body[4:]) &^ (recRunFlag | recDeltaFlag))
}

// PutRecEntry encodes e as entry i of msg, a whole recommendation message of
// any form; in the run forms the first named entries carry e's hop and cost
// only. It is the one entry encoder; different entries may be written
// concurrently.
//
//lint:allocfree
func PutRecEntry(msg []byte, i int, e RecEntry) {
	body := msg[HeaderLen:]
	word := binary.BigEndian.Uint16(body[4:])
	at := recFixed
	if word&recRunFlag != 0 {
		run := runLen(body)
		at = recRunFixed + bitmapLen(run)
		named := (len(body) - at - int(binary.BigEndian.Uint16(body[recFixed+4:]))*recEntryLen) / namedEntryLen
		if word&recDeltaFlag != 0 {
			named = int(binary.BigEndian.Uint16(body[at:]))
			at += 2 + deltaMarksLen(run, named)
		}
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
	at, size := len(b), RecommendationSize(len(r.Entries))
	b = slices.Grow(b, size)[:at+size]
	msg := NewRecommendation(b[at:], src, r.ViewVersion, len(r.Entries))
	for i, e := range r.Entries {
		PutRecEntry(msg, i, e)
	}
	return b
}

// RecBody is a recommendation body of any form that RecommendationBody
// accepted, read in place.
type RecBody struct {
	ViewVersion uint32
	// ByRun marks the run forms and Delta the delta form. Seq is then the
	// sender's routing interval, Run its run's length, and Named the count of
	// run positions its bitmap names (NextRun).
	ByRun, Delta bool
	Seq          uint32
	Run          int
	Named        int
	// Carried counts the named entries the body carries: in the run form one
	// per position named, in the delta form one per position changed
	// (Position). Entries counts every entry: the Carried first, then the
	// explicit ones.
	Carried int
	Entries int

	bitmap, marks, entries []byte
}

// NextRun returns the first run position at or past p that the bitmap
// names, or Run when none is.
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

// Position returns the run position of named entry k, given prev, that of
// entry k−1 (−1 for k = 0), or Run when k is past the named entries: in the
// run form the k-th position named, in the delta form the k-th changed.
//
//lint:allocfree
func (r *RecBody) Position(k, prev int) int {
	switch {
	case k >= r.Carried:
		return r.Run
	case r.Delta:
		return markAt(r.marks, r.Run, r.Carried, k, prev)
	}
	return r.NextRun(prev + 1)
}

// RecommendationBody checks the framing of a recommendation body of any form
// — its length; in the run forms a bitmap with no bit past the run; in the
// delta form a Seq above 0 and marks that name as many positions as its
// changed count says, ascending and each named by the bitmap — and returns
// it for Entry to read in place. It is the one framing check of all three
// forms, and its errors are bare, so that a refusal allocates nothing.
//
//lint:allocfree
func RecommendationBody(body []byte) (RecBody, error) {
	r, n, err := recommendationPrefix(body)
	if err == nil && n != len(body) {
		err = ErrBadLen
	}
	return r, err
}

// recommendationPrefix is RecommendationBody for a body that may go on past
// the recommendation: it returns the recommendation's length, which its
// counts fix, and checks everything else.
//
//lint:allocfree
func recommendationPrefix(body []byte) (RecBody, int, error) {
	if len(body) < recFixed {
		return RecBody{}, 0, ErrShort
	}
	r := RecBody{ViewVersion: binary.BigEndian.Uint32(body)}
	word := int(binary.BigEndian.Uint16(body[4:]))
	extra, rest := word, body[recFixed:]
	if word&recRunFlag != 0 {
		r.ByRun, r.Delta, r.Run = true, word&recDeltaFlag != 0, runLen(body)
		bl := bitmapLen(r.Run)
		if len(rest) < 6+bl {
			return RecBody{}, 0, ErrShort
		}
		r.Seq, extra = binary.BigEndian.Uint32(rest), int(binary.BigEndian.Uint16(rest[4:]))
		r.bitmap, rest = rest[6:6+bl], rest[6+bl:]
		for _, w := range r.bitmap {
			r.Named += bits.OnesCount8(w)
		}
		if r.Run%8 != 0 && r.bitmap[bl-1]>>(r.Run%8) != 0 {
			return RecBody{}, 0, ErrBadLen // a bit past the run
		}
		r.Carried = r.Named
	}
	if r.Delta {
		if r.Seq == 0 {
			return RecBody{}, 0, ErrBadDelta
		}
		if len(rest) < 2 {
			return RecBody{}, 0, ErrShort
		}
		r.Carried = int(binary.BigEndian.Uint16(rest))
		ml := deltaMarksLen(r.Run, r.Carried)
		if len(rest) < 2+ml {
			return RecBody{}, 0, ErrShort
		}
		r.marks, rest = rest[2:2+ml], rest[2+ml:]
		if err := checkMarks(r.marks, r.Run, r.Carried); err != nil {
			return RecBody{}, 0, err
		}
		for k, p := 0, -1; k < r.Carried; k++ {
			if p = markAt(r.marks, r.Run, r.Carried, k, p); r.bitmap[p/8]>>(p%8)&1 == 0 {
				return RecBody{}, 0, ErrBadLen // a change at a position not named
			}
		}
	}
	n := r.Carried*namedEntryLen + extra*recEntryLen
	if len(rest) < n {
		return RecBody{}, 0, ErrShort
	}
	r.Entries, r.entries = r.Carried+extra, rest[:n]
	return r, len(body) - len(rest) + n, nil
}

// RideSize returns the size of row, a whole round-1 message, riding behind
// a recommendation.
func RideSize(row []byte) int { return len(row) - (HeaderLen - 1) }

// PutRide writes row, a whole round-1 message, into b, RideSize(row) bytes
// right behind a run-form or delta-form recommendation.
//
//lint:allocfree
func PutRide(b, row []byte) {
	b[0] = row[0]
	copy(b[1:], row[HeaderLen:])
}

// SplitRecommendation splits a recommendation body into the recommendation
// and the row riding behind it, if any: the row's type and body, the row in
// the form (TLinkState or TLinkStateAsym) of the receiver's table. rowType
// is 0 and row nil when nothing rides. It refuses the whole body when the
// recommendation's framing fails (RecommendationBody), when anything follows
// an explicit-form recommendation, a refusal included, and when what follows
// is not a row or delta of that form, framed as LinkStateBody or
// LinkStateDeltaBody checks, at the recommendation's view version. Its errors
// are bare, so that a refusal allocates nothing.
//
//lint:allocfree
func SplitRecommendation(body []byte, form MsgType) (rec []byte, rowType MsgType, row []byte, err error) {
	r, n, err := recommendationPrefix(body)
	switch {
	case err != nil:
		return nil, 0, nil, err
	case n == len(body):
		return body, 0, nil, nil
	case !r.ByRun:
		return nil, 0, nil, ErrBadLen
	}
	rowType, row = MsgType(body[n]), body[n+1:]
	var version uint32
	switch {
	case rowType == form && (form == TLinkState || form == TLinkStateAsym):
		version, _, _, err = LinkStateBody(form, row)
	case rowType == TLinkStateDelta:
		var d DeltaBody
		if d, err = LinkStateDeltaBody(row); err == nil && d.Form != form {
			err = ErrBadType
		}
		version = d.ViewVersion
	default:
		err = ErrBadType
	}
	if err == nil && version != r.ViewVersion {
		err = ErrBadLen
	}
	if err != nil {
		return nil, 0, nil, err
	}
	return body[:n], rowType, row, nil
}

// Entry decodes entry i: the one entry decoder, and it allocates nothing. A
// named entry's Dst is NilNode — the receiver's run names it.
//
//lint:allocfree
func (r *RecBody) Entry(i int) RecEntry {
	if i < r.Carried {
		b := r.entries[i*namedEntryLen:][:namedEntryLen]
		return RecEntry{Dst: NilNode, Hop: NodeID(binary.BigEndian.Uint16(b)), Cost: Cost(binary.BigEndian.Uint16(b[2:]))}
	}
	b := r.entries[r.Carried*namedEntryLen+(i-r.Carried)*recEntryLen:][:recEntryLen]
	return RecEntry{
		Dst:  NodeID(binary.BigEndian.Uint16(b)),
		Hop:  NodeID(binary.BigEndian.Uint16(b[2:])),
		Cost: Cost(binary.BigEndian.Uint16(b[4:])),
	}
}

// ParseRecommendation decodes an explicit-form body into a message of its
// own; a body of either run form is ErrRunForm.
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

// RecommendationDeltaSize returns the encoded payload size of a delta-form
// message over a run of run destinations, with changed named entries, their
// marks in the shorter form, and extra explicit ones, excluding per-packet
// overhead.
func RecommendationDeltaSize(run, changed, extra int) int {
	return RecommendationRunSize(run, changed, extra) + 2 + deltaMarksLen(run, changed)
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
