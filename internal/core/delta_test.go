package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// mail is a datagram in flight between the row cores of the delta tests.
type mail struct {
	from, to wire.NodeID
	msg      []byte
}

// mailEnv is a row core's Env in the delta tests: its own ID over a shared
// clock, and a Send that posts to a shared outbox.
type mailEnv struct {
	*transport.SimEnv
	id  wire.NodeID
	box *[]mail
}

func (e *mailEnv) LocalID() wire.NodeID { return e.id }

func (e *mailEnv) Send(to wire.NodeID, msg []byte) {
	*e.box = append(*e.box, mail{from: e.id, to: to, msg: msg})
}

// deltaView is the delta tests' view: ten slots, slot 4 a tombstone.
func deltaView(t *testing.T) *membership.ViewInfo {
	return slotView(t, 5, 0, 1, 2, 3, wire.NilNode, 5, 6, 7, 8, 9)
}

// rowCoreAt returns a row core of slot self of view, directional when asym,
// whose measured row is *row (or *asymRow).
func rowCoreAt(env transport.Env, view *membership.ViewInfo, self int, asym bool, row *[]wire.LinkEntry, asymRow *[]wire.AsymEntry) *rowCore {
	c := &rowCore{env: env, staleness: time.Hour}
	fresh := lsdb.NewTable
	if asym {
		fresh = lsdb.NewDirectionalTable
	}
	c.installView(view, self, fresh)
	c.SelfRow = func() []wire.LinkEntry { return *row }
	c.SelfAsymRow = func() []wire.AsymEntry { return *asymRow }
	return c
}

// costsOf reads a full row message of either form into a fresh table of
// view at slot and returns its out- and in-costs.
func costsOf(t *testing.T, view *membership.ViewInfo, slot int, msg []byte) (out, in []wire.Cost) {
	t.Helper()
	table := lsdb.NewTable(view.Slots())
	if wire.PeekType(msg) == wire.TLinkStateAsym {
		table = lsdb.NewDirectionalTable(view.Slots())
	}
	table.SetTombstones(view.Tombstones())
	_, seq, entries, err := wire.LinkStateBody(wire.PeekType(msg), msg[wire.HeaderLen:])
	if err != nil || !table.PutWire(slot, seq, time.Unix(0, 0), entries) {
		t.Fatalf("not a full row of the view: %x (%v)", msg, err)
	}
	return table.OutRow(slot), table.InRow(slot)
}

// TestDeltasAreLossless sends four members' rows to a fifth over a channel
// that drops, duplicates, delays and reorders datagrams — rows, deltas,
// refusals and their answers alike — while the rows drift: a few entries an
// interval, now and then most of them, so that some rows go full because a
// delta would be no smaller. The senders' links to the receiver read no loss,
// so that the change share alone picks the encoding. Now and then the receiver expires the rows it
// has not heard from within the last interval, and midway a member joins in
// the tombstone, a stable extension every core installs. After every
// delivery each row the receiver holds has exactly the costs of the row its
// sender announced at the held seq; after a final clean interval the
// receiver's table is bit for bit the one ingesting every delivered row in
// full builds, and from then on every row is a delta and none is refused.
// Both row forms, symmetric and directional, over many seeds.
func TestDeltasAreLossless(t *testing.T) {
	for _, asym := range []bool{false, true} {
		for seed := int64(1); seed <= 25; seed++ {
			testDeltasAreLossless(t, asym, seed)
		}
	}
}

func testDeltasAreLossless(t *testing.T, asym bool, seed int64) {
	sim, nw := soloEnv()
	view := deltaView(t)
	rng := rand.New(rand.NewSource(seed))
	var box []mail
	senders := []int{1, 3, 5, 9} // slots, which are IDs here
	rows := make([][]wire.LinkEntry, view.Slots())
	asymRows := make([][]wire.AsymEntry, view.Slots())
	cores := map[wire.NodeID]*rowCore{}
	fresh := lsdb.NewTable
	if asym {
		fresh = lsdb.NewDirectionalTable
	}
	for _, s := range append([]int{0}, senders...) {
		rows[s] = make([]wire.LinkEntry, view.Slots())
		asymRows[s] = make([]wire.AsymEntry, view.Slots())
		cores[wire.NodeID(s)] = rowCoreAt(&mailEnv{SimEnv: sim, id: wire.NodeID(s), box: &box}, view, s, asym, &rows[s], &asymRows[s])
	}
	recv, ref := cores[0], fresh(view.Slots())
	ref.SetTombstones(view.Tombstones())
	// A sender's own entry is alive at 0, so a row the receiver holds
	// never reads all InfCost, as one Expire released does; so is its entry
	// for the receiver, whose loss delta weighs.
	drift := func(s int, share float64) {
		for h := range rows[s] {
			if rng.Float64() < share && h != s && h != 0 {
				rows[s][h] = wire.LinkEntry{Latency: uint16(10 + rng.Intn(200)), Status: wire.MakeStatus(rng.Intn(8) != 0, rng.Intn(3))}
				asymRows[s][h] = wire.AsymEntry{Out: uint16(10 + rng.Intn(200)), In: uint16(10 + rng.Intn(200)), Status: rows[s][h].Status}
			}
		}
	}
	for _, s := range senders {
		drift(s, 1)
	}
	type row struct {
		msg  []byte
		view *membership.ViewInfo
	}
	announced := map[[2]uint32]row{} // (sender, seq) → its full row, and the view it was built on
	tick := func(clean bool) (deltas, full int) {
		for _, s := range senders {
			share := 0.05
			if !clean && rng.Intn(6) == 0 {
				share = 0.9
			}
			drift(s, share)
			c := cores[wire.NodeID(s)]
			msg := c.announce()
			announced[[2]uint32{uint32(s), c.seq}] = row{msg, view}
			if d := c.delta([]int{0}); d != nil {
				msg = d
				deltas++
			} else {
				full++
			}
			c.env.Send(0, msg)
		}
		return deltas, full
	}
	check := func() {
		t.Helper()
		for _, s := range senders {
			if recv.table.OutRow(s)[s] != 0 {
				continue // no row held
			}
			seq := recv.table.Seq(s)
			a := announced[[2]uint32{uint32(s), seq}]
			out, in := costsOf(t, a.view, s, a.msg)
			if !slices.Equal(recv.table.OutRow(s), out) || !slices.Equal(recv.table.InRow(s), in) {
				t.Fatalf("asym=%v seed %d: slot %d's held row is not row %d:\n got %v %v\nwant %v %v",
					asym, seed, s, seq, recv.table.OutRow(s), recv.table.InRow(s), out, in)
			}
		}
	}
	refusals := 0
	deliver := func(m mail) {
		h, body, err := wire.ParseHeader(m.msg)
		if err != nil {
			t.Fatal(err)
		}
		if m.to != 0 {
			refusals++
			cores[m.to].answer(m.from, 0)
			return
		}
		if h.Type == wire.TLinkStateDelta {
			recv.patch(h, body)
		} else {
			recv.ingest(h, body)
		}
		version, seq, _, err := wire.LinkStateBody(h.Type, body)
		if h.Type == wire.TLinkStateDelta {
			d, _ := wire.LinkStateDeltaBody(body)
			version, seq, err = d.ViewVersion, d.Seq, nil
		}
		if err != nil {
			t.Fatal(err)
		}
		if version == view.VersionNum() { // what the receiver takes in full
			full := announced[[2]uint32{uint32(m.from), seq}].msg
			_, _, entries, _ := wire.LinkStateBody(wire.PeekType(full), full[wire.HeaderLen:])
			ref.PutWire(int(m.from), seq, sim.Now(), entries)
		}
		check()
	}
	// Lossy intervals: each datagram in flight is dropped, duplicated or held
	// back an interval at random, and the rest go in random order.
	for i := range 40 {
		nw.RunFor(time.Second)
		if i == 20 { // member 4 joins in the tombstone
			view = slotView(t, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
			for id, c := range cores {
				c.installView(view, int(id), fresh)
			}
			ref.SetTombstones(view.Tombstones())
		}
		if rng.Intn(5) == 0 {
			recv.table.Expire(sim.Now(), 1500*time.Millisecond)
			ref.Expire(sim.Now(), 1500*time.Millisecond)
			check()
		}
		tick(false)
		for len(box) > 0 {
			var later []mail
			for len(box) > 0 {
				i := rng.Intn(len(box))
				m := box[i]
				box = slices.Delete(box, i, i+1)
				switch r := rng.Float64(); {
				case r < 0.2: // dropped
				case r < 0.3:
					later = append(later, m)
				default:
					if r < 0.4 {
						box = append(box, m)
					}
					deliver(m)
				}
			}
			box = later
			if rng.Intn(2) == 0 {
				break
			}
		}
	}
	// Clean intervals: everything arrives, in order.
	for round := range 3 {
		nw.RunFor(time.Second)
		refused := refusals
		deltas, full := tick(true)
		for len(box) > 0 {
			m := box[0]
			box = box[1:]
			deliver(m)
		}
		if round > 0 && (full != 0 || refusals != refused) {
			t.Fatalf("asym=%v seed %d: clean interval %d sent %d deltas and %d full rows, %d refused", asym, seed, round, deltas, full, refusals-refused)
		}
	}
	for _, s := range senders {
		if recv.table.Seq(s) != ref.Seq(s) || recv.table.Seq(s) != cores[wire.NodeID(s)].seq ||
			!slices.Equal(recv.table.OutRow(s), ref.OutRow(s)) || !slices.Equal(recv.table.InRow(s), ref.InRow(s)) {
			t.Fatalf("asym=%v seed %d: slot %d holds row %d, full-row ingest row %d, the sender is at %d:\n got %v\nwant %v",
				asym, seed, s, recv.table.Seq(s), ref.Seq(s), cores[wire.NodeID(s)].seq, recv.table.OutRow(s), ref.OutRow(s))
		}
	}
}

// TestHostileDeltasTouchNothing hands the quorum deltas that are well-formed
// datagrams but must not be taken: from a stranger, from a member gone from
// the view (its slot a tombstone now), built on another view, at seq 0, with
// a bitmap bit past the member count, with a changed count the bitmap or the
// body disagrees with, of the other row form, or over another member count.
// Each is refused whole: no table field or row byte moves, nothing is
// allocated, and nothing is sent. A refusal from a stranger draws no datagram
// either, nor one from a member the router sends no rows to, nor a second
// from a member answered since the last announce. The same delta without a
// defect is taken, allocating nothing. Both row forms.
func TestHostileDeltasTouchNothing(t *testing.T) {
	const version = 5
	for _, asym := range []bool{false, true} {
		t.Run(map[bool]string{false: "symmetric", true: "directional"}[asym], func(t *testing.T) {
			sim, nw := soloEnv()
			env := &countingEnv{SimEnv: sim}
			// Slot 4 was member 4's in view 4; in view 5 it is a tombstone.
			view := slotView(t, version, 0, 1, 2, 3, wire.NilNode, 5, 6, 7, 8, 9)
			row := aliveRow(view.Slots(), 0)
			q, err := NewQuorum(env, QuorumConfig{Asymmetric: asym}, view, 0)
			if err != nil {
				t.Fatal(err)
			}
			q.LinkAlive = func(int) bool { return true }
			q.SelfRow = func() []wire.LinkEntry { return row }
			q.SelfAsymRow = func() []wire.AsymEntry { return make([]wire.AsymEntry, view.Slots()) }
			form, size := wire.TLinkState, wire.LinkEntryLen
			if asym {
				form, size = wire.TLinkStateAsym, wire.AsymEntryLen
			}
			m := len(view.Members())
			delta := func(src wire.NodeID, version, seq uint32, form wire.MsgType, members int, changed ...int) []byte {
				size := wire.LinkEntryLen
				if form == wire.TLinkStateAsym {
					size = wire.AsymEntryLen
				}
				msg := wire.NewLinkStateDelta(src, version, seq, form, members, len(changed))
				for k, i := range changed {
					wire.PutDeltaEntry(msg, i, k, slices.Repeat([]byte{byte(0x11 * (k + 1))}, size))
				}
				return msg
			}
			handle := func(msg []byte) {
				h, body, err := wire.ParseHeader(msg)
				if err != nil {
					t.Fatal(err)
				}
				if h.Type == wire.TLinkStateAck {
					q.HandleLinkStateAck(h, body)
				} else {
					q.HandleLinkState(h, body)
				}
			}

			// Slot 3's row 2 is held: a delta at 3 is good.
			nw.RunFor(10 * time.Second)
			handle(rowMessage(asym, 3, version, 2, m, 40))
			good := delta(3, version, 3, form, m, 1, 6)
			type state struct {
				seq     uint32
				when    time.Time
				out, in []wire.Cost
				sent    int
			}
			snapshot := func() state {
				tb := q.Table()
				return state{tb.Seq(3), tb.When(3), slices.Clone(tb.OutRow(3)), slices.Clone(tb.InRow(3)), env.sent}
			}
			before := snapshot()
			corrupt := func(at int, b byte) []byte {
				msg := slices.Clone(good)
				msg[at] = b
				return msg
			}
			bitmap := wire.HeaderLen + 13
			for _, hostile := range []struct {
				defect string
				msg    []byte
			}{
				{"a stranger", delta(77, version, 3, form, m, 1, 6)},
				{"a member gone from the view", delta(4, version, 3, form, m, 1, 6)},
				{"itself", delta(0, version, 3, form, m, 1, 6)},
				{"a stale view version", delta(3, version-1, 3, form, m, 1, 6)},
				{"a future view version", delta(3, version+1, 3, form, m, 1, 6)},
				{"seq 0, with no row before it", delta(3, version, 0, form, m, 1, 6)},
				{"a bitmap bit past the members", delta(3, version, 3, form, m, 1, m)},
				{"a changed count above the bitmap's", corrupt(bitmap-1, 3)},
				{"a changed count below the bitmap's", corrupt(bitmap-1, 1)},
				{"an entry short", good[:len(good)-1]},
				{"an entry long", append(slices.Clone(good), make([]byte, size)...)},
				{"the other row form", delta(3, version, 3, map[bool]wire.MsgType{false: wire.TLinkStateAsym, true: wire.TLinkState}[asym], m, 1, 6)},
				{"an entry per slot", delta(3, version, 3, form, view.Slots(), 1, 6)},
				{"no row type as its form", corrupt(wire.HeaderLen+8, byte(wire.TRecommendation))},
				{"a refusal from a stranger", wire.AppendLinkStateAck(nil, 77, 0)},
				{"a refusal from a member gone from the view", wire.AppendLinkStateAck(nil, 4, 0)},
			} {
				h, body, err := wire.ParseHeader(hostile.msg)
				if err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(100, func() {
					if h.Type == wire.TLinkStateAck {
						q.HandleLinkStateAck(h, body)
					} else {
						q.HandleLinkState(h, body)
					}
				})
				if after := snapshot(); after.seq != before.seq || !after.when.Equal(before.when) ||
					!slices.Equal(after.out, before.out) || !slices.Equal(after.in, before.in) || after.sent != before.sent {
					t.Errorf("%s: the table or the send count changed:\n got %+v\nwant %+v", hostile.defect, after, before)
					before = after
				}
				if allocs != 0 {
					t.Errorf("%s: handling it allocates %.0f times, want 0", hostile.defect, allocs)
				}
			}

			// Refusals: a member the router sends rows to is answered once
			// between announces, and one outside its grid lines not at all.
			q.Tick()
			sent, far := env.sent, 9
			for slices.Contains(q.servers, far) {
				far--
			}
			handle(wire.AppendLinkStateAck(nil, wire.NodeID(far), 0))
			handle(wire.AppendLinkStateAck(nil, 1, 0))
			handle(wire.AppendLinkStateAck(nil, 1, 0))
			if env.sent-sent != 1 {
				t.Errorf("three refusals, one of them a repeat, drew %d rows, want 1", env.sent-sent)
			}

			// The good delta is taken, and allocates nothing.
			before = snapshot()
			h, body, _ := wire.ParseHeader(good)
			if allocs := testing.AllocsPerRun(100, func() { q.HandleLinkState(h, body) }); allocs != 0 {
				t.Errorf("taking a delta allocates %.0f times, want 0", allocs)
			}
			if after := snapshot(); after.seq != 3 || slices.Equal(after.out, before.out) || after.sent != before.sent {
				t.Errorf("the good delta was not taken: %+v, before %+v", after, before)
			}
		})
	}
}
