package core

import (
	"math/bits"
	"slices"

	"allpairs/internal/lsdb"
	"allpairs/internal/wire"
)

// Round 2 sends a default client's run-form message, after its first, as a
// delta against the message it sent the same client at seq−1 (formDelta):
// the run bitmap, which moves the client's silence clocks, the entries that
// changed, and the explicit entries in full. A stable view
// install onto the next version carries the base at both ends (carry,
// Quorum.pairRendezvous), as rows keep theirs (rowCore.installView); any
// other install resets it, and the first message after it goes in full.
//
// The base is kept by position in the full run — this node's servers and
// itself, ascending, the positions every default client's run is cut from —
// as the kernel's result for each pair of positions (recBase), so that a
// symmetric table keeps one 4-byte result a pair: both ends' entries are that
// result read from either end (turned).
//
// A client holding the message at seq−1 (silence.said) rebuilds this one. One
// that does not still moves the clocks the bitmap marks and installs the
// explicit entries, which the delta carries whole, and refuses the run
// entries, changed or not, with an explicit-form message of no entries
// (Quorum.refusal). The rendezvous answers it with the message's run form
// less the explicit entries (answerRefusal), once an interval and only to a
// client it sent a delta. Whether a delta is worth sending a client is the row rule (pays).
// Each message, whatever its form, is written once, from the base
// (recommendation).
type recBase struct {
	directional bool
	at          []uint32  // per position, the last seq whose messages named it; 0 for none the base kept
	pairs       []pairHop // per pair of positions (pairIndex), the kernel's result at the pair's last seq; on a directional table the way back follows
	wasAt       []uint32  // carry's other storage for at and pairs: it remaps into them and swaps
	wasPairs    []pairHop
	from        []int    // carry's scratch: per position, the one it had before the install, −1 for none
	changed     []byte   // this tick's marks: per position, a bitmap over its run of the positions whose entry changed
	deltas      []uint16 // the slots sent a delta at seq
	answered    answers  // those of them whose refusal was answered
}

// pairHop is one kernel result as a base keeps it.
type pairHop struct {
	hop  uint16 // a slot, noSlot for none
	cost wire.Cost
}

// unknownHop is a kept pair's result that no kernel returns — no hop at a
// finite cost — so that the next note marks the pair changed.
var unknownHop = pairHop{hop: noSlot}

// reset empties the base for a full run of m positions.
func (b *recBase) reset(m int, directional bool) {
	pairs := m * (m - 1) / 2
	if directional {
		pairs *= 2
	}
	b.directional = directional
	b.at, b.pairs, b.changed = cleared(b.at, m), cleared(b.pairs, pairs), cleared(b.changed, m*marksLen(m))
	b.deltas, b.answered = b.deltas[:0], b.answered[:0]
}

// carry keeps the base across a stable install onto the next version, which
// retired the slots retired and made servers, not old, this node's servers
// (self among them in the full run). Both full runs ascend and this node keeps
// its slot, so a pair's lower end stays its lower end: a position keeps its
// seq, and a pair of kept positions its result, remapped by slot. A position
// has none when the install retired its slot (reused, it is started too; a
// slot only started was no position before) or newly appointed its member a
// server. A kept pair whose hop the install retired holds unknownHop: the hop
// names another member now, or none.
func (b *recBase) carry(old, servers []int, self int, retired []int) {
	at, pairs := b.at, b.pairs
	b.at, b.pairs, b.wasAt, b.wasPairs = b.wasAt, b.wasPairs, at, pairs
	m := len(servers) + 1
	b.reset(m, b.directional)
	b.from = b.from[:0]
	below, _ := slices.BinarySearch(servers, self) // self's position
	for p := range m {
		s := self
		switch {
		case p < below:
			s = servers[p]
		case p > below:
			s = servers[p-1]
		}
		f, ok := slices.BinarySearch(old, s)
		if s > self {
			f++
		}
		if !ok && s != self || slices.Contains(retired, s) {
			f = -1
		} else {
			b.at[p] = at[f]
		}
		b.from = append(b.from, f)
	}
	kept := func(ph pairHop) pairHop {
		if ph.hop != noSlot && slices.Contains(retired, int(ph.hop)) {
			return unknownHop
		}
		return ph
	}
	for y, fy := range b.from {
		for x, fx := range b.from[:y] {
			if fx < 0 || fy < 0 {
				continue
			}
			i, j := pairIndex(x, y), pairIndex(fx, fy)
			b.pairs[i] = kept(pairs[j])
			if b.directional {
				b.pairs[len(b.pairs)/2+i] = kept(pairs[len(pairs)/2+j])
			}
		}
	}
}

// cleared returns s as n zero values, in its own storage when that is large
// enough: a churned node installs views every few seconds.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// marksLen is the length of a position's changed marks in a full run of m
// positions: a bitmap over the m−1 positions of its run.
func marksLen(m int) int { return (m + 6) / 8 }

// marks returns the changed marks of position p's run this tick.
func (b *recBase) marks(p int) []byte {
	n := marksLen(len(b.at))
	return b.changed[p*n : (p+1)*n]
}

// pairIndex places the pair of positions x and y in a triangle.
func pairIndex(x, y int) int {
	x, y = min(x, y), max(x, y)
	return y*(y-1)/2 + x
}

// note keeps the kernel's result for the pair of positions x and y at seq —
// fwd from x to y, and on a directional table rev back — and marks the pair
// changed in both ends' runs when the result differs from the one at seq−1
// or either end went unnamed then.
//
//lint:allocfree
func (b *recBase) note(x, y int, fwd, rev lsdb.HopCost, seq uint32) {
	i := pairIndex(x, y)
	same := b.keep(i, fwd) && seq > 1 && b.at[x] == seq-1 && b.at[y] == seq-1
	if b.directional {
		same = b.keep(len(b.pairs)/2+i, rev) && same
	}
	if !same {
		mark(b.marks(x), place(uint16(x), uint16(y)))
		mark(b.marks(y), place(uint16(y), uint16(x)))
	}
}

// keep stores hc as pair i's result and reports whether it was already.
//
//lint:allocfree
func (b *recBase) keep(i int, hc lsdb.HopCost) bool {
	kept := pairHop{hop: uint16(hc.Hop), cost: hc.Cost} // -1 converts to noSlot
	same := b.pairs[i] == kept
	b.pairs[i] = kept
	return same
}

// mark sets bit i of a bitmap.
func mark(bitmap []byte, i int) { bitmap[i/8] |= 1 << (i % 8) }

// answers lists the slots whose refusal was answered since the last
// announce: a refusal is answered once an interval.
type answers []uint16

// first reports whether slot's refusal is the first this interval, and lists
// it.
func (a *answers) first(slot int) bool {
	if slices.Contains(*a, uint16(slot)) {
		return false
	}
	*a = append(*a, uint16(slot))
	return true
}

// recForm is the form of a round-2 message (recommendation).
type recForm uint8

const (
	formFull   recForm = iota // the run form; to a failover client, the explicit form
	formDelta                 // the run form's delta against the message at seq−1
	formAnswer                // the run form without explicit entries: a refusal's answer
)

// changes counts position p's changed marks this tick.
func (b *recBase) changes(p int) int {
	n := 0
	for _, w := range b.marks(p) {
		n += bits.OnesCount8(w)
	}
	return n
}

// recForm returns the form of the message to the member at place to: a delta
// when it is a default client round 2 sent one at seq−1 and the delta is
// expected to pay for the refusals it draws at refused of them
// (rowCore.refusals).
func (q *Quorum) recForm(refused float64, to uint16) recForm {
	if int(to) >= len(q.runPos) || q.seq <= 1 || q.base.at[q.runPos[to]] != q.seq-1 {
		return formFull
	}
	if !pays(refused, q.recSize(to, formFull)-q.recSize(to, formDelta), wire.RecommendationSize(0), q.recSize(to, formAnswer)) {
		return formFull
	}
	return formDelta
}

// recSize returns the size of the message to the member at place to in form.
func (q *Quorum) recSize(to uint16, form recForm) int {
	k, run := len(q.order), len(q.runPos)
	if int(to) >= run {
		return wire.RecommendationSize(k)
	}
	extra := k + 1 - run
	switch form {
	case formDelta:
		return wire.RecommendationDeltaSize(len(q.servers), q.base.changes(int(q.runPos[to])), extra)
	case formAnswer:
		extra = 0
	}
	return wire.RecommendationRunSize(len(q.servers), run-1, extra)
}

// recommendation writes the message to the member at place to in form, built
// in mem (wire.Carve): round 2's one writer. A failover client's goes in the
// explicit form. A default client's names the rest of the run, in full, as a
// delta over its position's marks, or as a refusal's answer, whose explicit
// entries went in the delta.
func (q *Quorum) recommendation(mem []byte, to uint16, form recForm) []byte {
	src, version, k, run := q.env.LocalID(), q.view.VersionNum(), len(q.order), uint16(len(q.runPos))
	var msg, marks []byte
	switch extra := k + 1 - int(run); {
	case to >= run:
		msg = wire.NewRecommendation(mem, src, version, k)
	case form == formDelta:
		marks = q.base.marks(int(q.runPos[to]))
		msg = wire.NewRecommendationDelta(mem, src, version, q.seq, len(q.servers), q.base.changes(int(q.runPos[to])), extra)
	case form == formAnswer:
		extra = 0
		fallthrough
	default:
		msg = wire.NewRecommendationRun(mem, src, version, q.seq, len(q.servers), int(run)-1, extra)
	}
	if to < run {
		wire.PutRecRun(msg, q.runBits, int(q.runPos[to]))
	}
	e := 0
	for of := range uint16(k + 1) {
		switch {
		case of == to, form == formAnswer && of >= run:
			continue
		case form == formDelta && of < run:
			i := place(q.runPos[to], q.runPos[of])
			if marks[i/8]>>(i%8)&1 == 0 {
				continue
			}
			wire.MarkRecChanged(msg, e, i)
		}
		wire.PutRecEntry(msg, e, q.entry(to, of))
		e++
	}
	return msg
}

// answerRefusal answers a refusal from the member src at slot with the run
// form of the message round 2 wrote it at seq, once an interval and only when
// that was a delta.
func (q *Quorum) answerRefusal(src wire.NodeID, slot int) {
	if !slices.Contains(q.base.deltas, uint16(slot)) || !q.base.answered.first(slot) {
		return
	}
	to, _ := slices.BinarySearch(q.runSlot, uint16(slot))
	q.env.Send(src, q.recommendation(nil, uint16(to), formAnswer))
}

// entry returns the entry of the member at place to about the one at place
// of: the stage's when either is a failover client, else the base's. A pair's
// result runs from this node, when it is an end, else from the lower position
// (note's x): read from the other end it is the way back, turned.
func (q *Quorum) entry(to, of uint16) wire.RecEntry {
	if run := uint16(len(q.runPos)); to >= run || of >= run {
		return *q.staged(to, of)
	}
	x, y := min(to, of), max(to, of)
	if y == q.selfAt {
		x, y = y, x
	}
	i := pairIndex(int(q.runPos[x]), int(q.runPos[y]))
	if to != x && q.base.directional {
		i += len(q.base.pairs) / 2
	}
	ph := q.base.pairs[i]
	hc := lsdb.HopCost{Hop: int(ph.hop), Cost: ph.cost}
	if ph.hop == noSlot {
		hc.Hop = -1
	}
	if to != x {
		hc = turned(hc, int(q.runSlot[x]), int(q.runSlot[y]))
	}
	return wire.RecEntry{Hop: q.hopID(hc.Hop), Cost: hc.Cost}
}
