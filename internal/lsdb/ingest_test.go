package lsdb

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// TestPutWireMatchesPut: unpacking a row from its wire bytes straight into the
// table must leave exactly what parsing it and calling Put (PutAsym) leaves,
// and take or refuse it on the same grounds. One table of each pair ingests
// 1 000 announcements each way: dead-status entries, latency 0xFFFF under an
// alive status, sequence numbers that go backwards, equal-sequence duplicates
// with an older receive time, rows one entry short or long, and now and then an
// Expire, after which a row lands in storage of its own again.
func TestPutWireMatchesPut(t *testing.T) {
	const n = 21
	t0 := time.Unix(4_000_000, 0)
	for _, directional := range []bool{false, true} {
		rng := rand.New(rand.NewSource(25))
		parsed, inPlace, msgType := NewTable(n), NewTable(n), wire.TLinkState
		if directional {
			parsed, inPlace, msgType = NewDirectionalTable(n), NewDirectionalTable(n), wire.TLinkStateAsym
		}
		latency := func() uint16 {
			if rng.Intn(6) == 0 {
				return 0xFFFF
			}
			return uint16(rng.Intn(2000))
		}
		status := func() byte {
			if rng.Intn(4) == 0 {
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
			rowLen := n
			if rng.Intn(10) == 0 {
				rowLen = n - 1 + 2*rng.Intn(2)
			}
			var msg []byte
			var viaPut func() bool
			if directional {
				entries := make([]wire.AsymEntry, rowLen)
				for j := range entries {
					entries[j] = wire.AsymEntry{Out: latency(), In: latency(), Status: status()}
				}
				msg = wire.AppendLinkStateAsym(nil, 1, wire.LinkStateAsym{Seq: seq, Entries: entries})
				viaPut = func() bool {
					ls, err := wire.ParseLinkStateAsym(msg[wire.HeaderLen:])
					return err == nil && parsed.PutAsym(slot, AsymRow{Seq: ls.Seq, When: when, Entries: ls.Entries})
				}
			} else {
				entries := make([]wire.LinkEntry, rowLen)
				for j := range entries {
					entries[j] = wire.LinkEntry{Latency: latency(), Status: status()}
				}
				msg = wire.AppendLinkState(nil, 1, wire.LinkState{Seq: seq, Entries: entries})
				viaPut = func() bool {
					ls, err := wire.ParseLinkState(msg[wire.HeaderLen:])
					return err == nil && parsed.Put(slot, Row{Seq: ls.Seq, When: when, Entries: ls.Entries})
				}
			}
			_, wireSeq, entries, err := wire.LinkStateBody(msgType, msg[wire.HeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			want, got := viaPut(), inPlace.PutWire(slot, wireSeq, when, entries)
			if got != want {
				t.Fatalf("directional=%v announcement %d (slot %d seq %d, %d entries): PutWire = %v, parse-then-Put = %v",
					directional, i, slot, seq, rowLen, got, want)
			}
			if got {
				accepted++
			}
			if rng.Intn(50) == 0 {
				parsed.Expire(t0.Add(2*time.Second), 3*time.Second)
				inPlace.Expire(t0.Add(2*time.Second), 3*time.Second)
			}
			a, b := snapshotSlot(parsed, slot), snapshotSlot(inPlace, slot)
			if a.have != b.have || a.seq != b.seq || !a.when.Equal(b.when) || !slices.Equal(a.out, b.out) || !slices.Equal(a.in, b.in) {
				t.Fatalf("directional=%v announcement %d: slot %d holds\n%+v in place,\n%+v parsed", directional, i, slot, b, a)
			}
		}
		if parsed.Stored() != inPlace.Stored() {
			t.Errorf("directional=%v: %d rows stored in place, %d parsed", directional, inPlace.Stored(), parsed.Stored())
		}
		if accepted < 300 || accepted > 900 {
			t.Errorf("directional=%v: %d of 1000 announcements accepted — the mix no longer tests both outcomes", directional, accepted)
		}
	}
}
