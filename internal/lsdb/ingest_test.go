package lsdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// tombstoneSets are the views TestPutWireMatchesPut packs rows against: no
// tombstone, one at the head, the tail or the middle, and 30 % of the slots.
func tombstoneSets(rng *rand.Rand, n int) []struct {
	name  string
	tombs []int
} {
	return []struct {
		name  string
		tombs []int
	}{
		{"none", nil},
		{"head", []int{0}},
		{"tail", []int{n - 1}},
		{"middle", []int{n / 2}},
		{"30%", slices.Sorted(slices.Values(rng.Perm(n)[:3*n/10]))},
	}
}

// TestPutWireMatchesPut: scattering a member-packed row from its wire bytes
// straight into the table must leave exactly what Put (PutAsym) leaves from
// the same row indexed by slot, its tombstones dead, and take or refuse it on
// the same grounds. For every set of tombstones, one table of each pair ingests
// 1 000 announcements each way: dead-status entries, latency 0xFFFF under an
// alive status, sequence numbers that go backwards, equal-sequence duplicates
// with an older receive time, rows one entry short or long, and now and then an
// Expire, after which a row lands in storage of its own again. Packing must
// equal encoding the members' entries alone, and on a tombstoned table a row
// with an entry per slot is refused.
func TestPutWireMatchesPut(t *testing.T) {
	const n = 21
	t0 := time.Unix(4_000_000, 0)
	for _, set := range tombstoneSets(rand.New(rand.NewSource(32)), n) {
		for _, directional := range []bool{false, true} {
			checkPutWire(t, fmt.Sprintf("tombstones=%s directional=%v", set.name, directional), n, set.tombs, directional, t0)
		}
	}
}

func checkPutWire(t *testing.T, name string, n int, tombs []int, directional bool, t0 time.Time) {
	rng := rand.New(rand.NewSource(25))
	parsed, inPlace := NewTable(n), NewTable(n)
	if directional {
		parsed, inPlace = NewDirectionalTable(n), NewDirectionalTable(n)
	}
	inPlace.SetTombstones(tombs)
	latency := func() uint16 {
		if rng.Intn(6) == 0 {
			return 0xFFFF
		}
		return uint16(rng.Intn(2000))
	}
	status := func(slot int) byte {
		if slices.Contains(tombs, slot) || rng.Intn(4) == 0 {
			return wire.StatusDead
		}
		return byte(rng.Intn(101))
	}
	accepted := 0
	for i := 0; i < 1000; i++ {
		// Around what the slot last took: one below, the same again, the next.
		slot := rng.Intn(n)
		seq := max(parsed.Seq(slot), 1) + uint32(rng.Intn(3)) - 1
		when := t0.Add(time.Duration(rng.Intn(7)-3) * time.Second)
		skew := 0 // entries past the right count, in both forms
		if rng.Intn(10) == 0 {
			skew = 2*rng.Intn(2) - 1
		}
		var bySlot, packed, wantPacked []byte
		var viaPut func() bool
		if directional {
			entries := make([]wire.AsymEntry, n)
			for j := range entries {
				entries[j] = wire.AsymEntry{Out: latency(), In: latency(), Status: status(j)}
			}
			kept := keepMembers(tombs, entries)
			bySlot = wire.AppendLinkStateAsym(nil, 1, wire.LinkStateAsym{Seq: seq + 1, Entries: entries})
			packed = wire.PackLinkState(wire.AppendLinkStateAsym(nil, 1, wire.LinkStateAsym{Seq: seq, Entries: entries}), tombs)
			wantPacked = wire.AppendLinkStateAsym(nil, 1, wire.LinkStateAsym{Seq: seq, Entries: kept})
			if skew != 0 {
				packed = wire.AppendLinkStateAsym(nil, 1, wire.LinkStateAsym{Seq: seq, Entries: append(kept, kept[0])[:len(kept)+skew]})
				wantPacked = packed
			}
			viaPut = func() bool {
				return parsed.PutAsym(slot, AsymRow{Seq: seq, When: when, Entries: append(entries, entries[0])[:n+skew]})
			}
		} else {
			entries := make([]wire.LinkEntry, n)
			for j := range entries {
				entries[j] = wire.LinkEntry{Latency: latency(), Status: status(j)}
			}
			kept := keepMembers(tombs, entries)
			bySlot = wire.AppendLinkState(nil, 1, wire.LinkState{Seq: seq + 1, Entries: entries})
			packed = wire.PackLinkState(wire.AppendLinkState(nil, 1, wire.LinkState{Seq: seq, Entries: entries}), tombs)
			wantPacked = wire.AppendLinkState(nil, 1, wire.LinkState{Seq: seq, Entries: kept})
			if skew != 0 {
				packed = wire.AppendLinkState(nil, 1, wire.LinkState{Seq: seq, Entries: append(kept, kept[0])[:len(kept)+skew]})
				wantPacked = packed
			}
			viaPut = func() bool {
				return parsed.Put(slot, Row{Seq: seq, When: when, Entries: append(entries, entries[0])[:n+skew]})
			}
		}
		if !slices.Equal(packed, wantPacked) {
			t.Fatalf("%s announcement %d: PackLinkState = %x, the members' entries encode to %x", name, i, packed, wantPacked)
		}
		entriesOf := func(msg []byte) []byte {
			_, _, entries, err := wire.LinkStateBody(wire.PeekType(msg), msg[wire.HeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			return entries
		}
		before := snapshotSlot(inPlace, slot)
		if tombs != nil && inPlace.PutWire(slot, seq+1, when, entriesOf(bySlot)) {
			t.Fatalf("%s announcement %d: a row with an entry per slot was taken on a tombstoned table", name, i)
		}
		if after := snapshotSlot(inPlace, slot); !sameSlot(before, after) {
			t.Fatalf("%s announcement %d: a refused row changed slot %d", name, i, slot)
		}
		want, got := viaPut(), inPlace.PutWire(slot, seq, when, entriesOf(packed))
		if got != want {
			t.Fatalf("%s announcement %d (slot %d seq %d, skew %d): PutWire = %v, Put = %v", name, i, slot, seq, skew, got, want)
		}
		if got {
			accepted++
		}
		if rng.Intn(50) == 0 {
			parsed.Expire(t0.Add(2*time.Second), 3*time.Second)
			inPlace.Expire(t0.Add(2*time.Second), 3*time.Second)
		}
		if a, b := snapshotSlot(parsed, slot), snapshotSlot(inPlace, slot); !sameSlot(a, b) {
			t.Fatalf("%s announcement %d: slot %d holds\n%+v in place,\n%+v via Put", name, i, slot, b, a)
		}
	}
	if parsed.Stored() != inPlace.Stored() {
		t.Errorf("%s: %d rows stored in place, %d via Put", name, inPlace.Stored(), parsed.Stored())
	}
	if accepted < 300 || accepted > 900 {
		t.Errorf("%s: %d of 1000 announcements accepted — the mix no longer tests both outcomes", name, accepted)
	}
}

// keepMembers returns the entries of a slot-indexed row but for the
// tombstones', in slot order.
func keepMembers[E any](tombs []int, row []E) []E {
	var kept []E
	for s, e := range row {
		if !slices.Contains(tombs, s) {
			kept = append(kept, e)
		}
	}
	return kept
}

// sameSlot reports whether two snapshots of a slot agree in every field.
func sameSlot(a, b slotState) bool {
	return a.have == b.have && a.seq == b.seq && a.when.Equal(b.when) && slices.Equal(a.out, b.out) && slices.Equal(a.in, b.in)
}

// AsymRow is one node's announced directional link-state vector (footnote 2
// mode): for every slot, the one-way cost toward it and the one-way cost back.
type AsymRow struct {
	Seq     uint32
	When    time.Time
	Entries []wire.AsymEntry
}

// PutAsym is Put for a directional row, under the same acceptance rule; each
// direction is unpacked into its own matrix. A symmetric table rejects it.
func (t *Table) PutAsym(slot int, row AsymRow) bool {
	if !t.Directional() || !t.accept(slot, len(row.Entries), row.Seq, row.When) {
		return false
	}
	out, in := t.out.rowFor(slot), t.in.rowFor(slot)
	for i, e := range row.Entries {
		out[i], in[i] = e.OutCost(), e.InCost()
	}
	return true
}

// TestUnpackPackedRows: a row packed by a set of tombstones unpacks, by
// linkCosts and asymLinkCosts, to every slot's cost at its slot and InfCost at
// the tombstones — for no tombstone, every slot but one, and random sets.
func TestUnpackPackedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		var tombs []int
		switch {
		case trial == 1:
			tombs = []int{}
		case trial%7 == 2:
			for s := range n - 1 {
				tombs = append(tombs, s+trial%2)
			}
		case trial > 2:
			for s := range n {
				if rng.Intn(4) == 0 {
					tombs = append(tombs, s)
				}
			}
		}
		sym, asym := make([]wire.LinkEntry, n), make([]wire.AsymEntry, n)
		for s := range n {
			sym[s] = wire.LinkEntry{Latency: uint16(rng.Intn(3000)), Status: byte(rng.Intn(101))}
			asym[s] = wire.AsymEntry{Out: uint16(rng.Intn(3000)), In: uint16(rng.Intn(3000)), Status: byte(rng.Intn(101))}
		}
		msg := wire.PackLinkState(wire.AppendLinkState(nil, 3, wire.LinkState{ViewVersion: 9, Seq: 4, Entries: sym}), tombs)
		msgAsym := wire.PackLinkState(wire.AppendLinkStateAsym(nil, 3, wire.LinkStateAsym{ViewVersion: 9, Seq: 4, Entries: asym}), tombs)
		_, _, entries, err := wire.LinkStateBody(wire.TLinkState, msg[wire.HeaderLen:])
		_, _, entriesAsym, errAsym := wire.LinkStateBody(wire.TLinkStateAsym, msgAsym[wire.HeaderLen:])
		if err != nil || errAsym != nil {
			t.Fatal(err, errAsym)
		}
		row, out, in := make([]wire.Cost, n), make([]wire.Cost, n), make([]wire.Cost, n)
		linkCosts(row, entries, tombs)
		asymLinkCosts(out, in, entriesAsym, tombs)
		for s := range n {
			want, wantOut, wantIn := sym[s].Cost(), asym[s].OutCost(), asym[s].InCost()
			if slices.Contains(tombs, s) {
				want, wantOut, wantIn = wire.InfCost, wire.InfCost, wire.InfCost
			}
			if row[s] != want || out[s] != wantOut || in[s] != wantIn {
				t.Fatalf("n=%d tombstones %v slot %d: unpacked %d / %d,%d, want %d / %d,%d",
					n, tombs, s, row[s], out[s], in[s], want, wantOut, wantIn)
			}
		}
	}
}
