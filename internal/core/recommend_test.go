package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"allpairs/internal/grid"
	"allpairs/internal/membership"
	"allpairs/internal/wire"
)

// runFormFixture is the router at slot 9 of a 49-slot view (7×7) whose slots
// 12 and 30 are tombstones, every other slot's member carrying its slot as
// its ID, one second after the install started every clock, on an Env that
// counts what it sends (countingEnv); run advances its clock.
func runFormFixture(tb testing.TB) (q *Quorum, run func(time.Duration)) {
	tb.Helper()
	const n = 49
	v := wire.View{Epoch: 1, Version: 1, Slots: n}
	for s := range n {
		if s != 12 && s != 30 {
			v.Members = append(v.Members, wire.Member{ID: wire.NodeID(s), Slot: uint16(s)})
		}
	}
	view, err := membership.NewViewInfo(v)
	if err != nil {
		tb.Fatal(err)
	}
	sim, nw := soloEnv()
	if q, err = NewQuorum(&countingEnv{SimEnv: sim}, QuorumConfig{}, view, 9); err != nil {
		tb.Fatal(err)
	}
	q.LinkAlive = func(int) bool { return true }
	nw.RunFor(time.Second)
	return q, nw.RunFor
}

// gridRun is the run slot c holds for its server k, rebuilt from the grid:
// k's clients and k, ascending, less c.
func gridRun(g *grid.Grid, k, c int) []int {
	run := slices.DeleteFunc(append(g.Clients(k), k), func(s int) bool { return s == c })
	slices.Sort(run)
	return run
}

// heldRun is the run q holds for its server k.
func heldRun(q *Quorum, k int) []int { return gridRun(q.Grid(), k, q.self) }

// runForm builds a run-form recommendation from slot k to q naming the run
// positions named, with the explicit extras after them; entry i routes via
// hop 20+i at cost 30+i.
func runForm(q *Quorum, k, run int, named []int, extras []wire.NodeID) (wire.Header, []byte) {
	msg := wire.NewRecommendationRun(nil, wire.NodeID(k), q.view.VersionNum(), 1, run, len(named), len(extras))
	for i, p := range named {
		wire.MarkRecRun(msg, p)
		wire.PutRecEntry(msg, i, wire.RecEntry{Hop: wire.NodeID(20 + i), Cost: wire.Cost(30 + i)})
	}
	for i, dst := range extras {
		i += len(named)
		wire.PutRecEntry(msg, i, wire.RecEntry{Dst: dst, Hop: wire.NodeID(20 + i), Cost: wire.Cost(30 + i)})
	}
	h, body, _ := wire.ParseHeader(msg)
	return h, body
}

// expectRecommendation is what HandleRecommendation must leave behind: q's
// routes and clocks after the message from h.Src, decoded here from the grid
// rather than from q's clocks, had its word. A refused or ignored message
// leaves both as they are. Only the run positions a message's bitmap names
// are heard from; an explicit entry moves no clock.
func expectRecommendation(q *Quorum, h wire.Header, body []byte) ([]route, map[[2]int]int64) {
	routes, heard := slices.Clone(q.routes), clocks(q)
	rec, err := wire.RecommendationBody(body)
	from, ok := q.view.SlotOf(h.Src)
	if err != nil || rec.ViewVersion != q.view.VersionNum() || !ok || from == q.self {
		return routes, heard
	}
	now := q.env.Now().UnixNano()
	type word struct {
		dst int
		e   wire.RecEntry
	}
	var words []word
	var named []int // the destinations whose clock moves: the run positions named
	if rec.ByRun {
		servers := q.Grid().Servers(q.self)
		run := heldRun(q, from)
		if !slices.Contains(servers, from) || rec.Run != len(run) {
			return routes, heard
		}
		var explicit []word
		last := -1
		for i := rec.Carried; i < rec.Entries; i++ {
			e := rec.Entry(i)
			dst, ok := q.view.SlotOf(e.Dst)
			if !ok || dst == q.self || slices.Contains(run, dst) || dst <= last {
				return routes, heard
			}
			explicit = append(explicit, word{dst, e})
			last = dst
		}
		// The base: what q holds of from's message at its seq, by run position.
		r := slices.Index(servers, from)
		held, said := q.rv.seq[r], q.rv.said[q.rv.run[r]:q.rv.run[r+1]]
		if rec.Seq < held {
			return routes, heard
		}
		refused := rec.Delta && (held == 0 || rec.Seq > held+1)
		// The bitmap and the changed marks, as the wire package documents
		// them: a bitmap over the run, or 2-byte indices when those are
		// shorter.
		bits := (len(run) + 7) / 8
		bit := func(b []byte, p int) bool { return b[p/8]&(1<<(p%8)) != 0 }
		changed := func(p int) bool { return true }
		if rec.Delta {
			count := int(body[12+bits])<<8 | int(body[13+bits])
			marks := body[14+bits:]
			changed = func(p int) bool { return bit(marks, p) }
			if 2*count < bits {
				changed = func(p int) bool {
					for k := range count {
						if int(marks[2*k])<<8|int(marks[2*k+1]) == p {
							return true
						}
					}
					return false
				}
			}
		}
		carried := 0
		for p := range run {
			if !bit(body[12:], p) {
				continue
			}
			named = append(named, run[p])
			switch {
			case refused: // waits for the answer
			case changed(p):
				words = append(words, word{run[p], rec.Entry(carried)})
				carried++
			default:
				words = append(words, word{run[p], wire.RecEntry{Hop: said[p].hop, Cost: said[p].cost}})
			}
		}
		words = append(words, explicit...)
	} else {
		for i := range rec.Entries {
			e := rec.Entry(i)
			if dst, ok := q.view.SlotOf(e.Dst); ok && dst != q.self {
				words = append(words, word{dst, e})
			}
		}
	}
	for _, dst := range named {
		heard[[2]int{dst, from}] = now
	}
	for _, w := range words {
		hop, ok := q.view.SlotOf(w.e.Hop)
		if !ok {
			hop = -1
		}
		if hop != q.self && (hop >= 0 || w.e.Cost == wire.InfCost) {
			routes[w.dst] = route{when: now, hop: uint16(hop), from: uint16(from), cost: w.e.Cost, source: SourceRendezvous}
		}
	}
	return routes, heard
}

// checkRecommendation handles one message and holds the outcome to
// expectRecommendation's, and the handling to no allocation.
func checkRecommendation(tb testing.TB, q *Quorum, what string, h wire.Header, body []byte) {
	tb.Helper()
	wantRoutes, wantHeard := expectRecommendation(q, h, body)
	if allocs := testing.AllocsPerRun(1, func() { q.HandleRecommendation(h, body) }); allocs != 0 {
		tb.Errorf("%s: handling allocates %.0f times", what, allocs)
	}
	if !slices.Equal(q.routes, wantRoutes) {
		tb.Errorf("%s: routes\n got %v\nwant %v", what, q.routes, wantRoutes)
	}
	if got := clocks(q); !reflect.DeepEqual(got, wantHeard) {
		tb.Errorf("%s: the clocks moved wrongly", what)
	}
}

// TestRunFormRecommendationWalk: a run-form message from a default
// rendezvous installs a route for each destination its bitmap names and each
// explicit extra, and moves exactly the named destinations' clocks for that
// rendezvous — whatever subset of the run it names — allocating nothing.
func TestRunFormRecommendationWalk(t *testing.T) {
	q, advance := runFormFixture(t)
	rng := rand.New(rand.NewSource(5))
	for round := range 200 {
		advance(time.Millisecond)
		k := q.servers[rng.Intn(len(q.servers))]
		run := heldRun(q, k)
		var named []int
		for p := range run {
			if rng.Intn(3) > 0 {
				named = append(named, p)
			}
		}
		var extras []wire.NodeID
		for s := range q.view.Slots() {
			if q.view.Occupied(s) && s != q.self && !slices.Contains(run, s) && rng.Intn(8) == 0 {
				extras = append(extras, q.view.IDAt(s))
			}
		}
		h, body := runForm(q, k, len(run), named, extras)
		before := clocks(q)
		checkRecommendation(t, q, "walk", h, body)
		if reflect.DeepEqual(clocks(q), before) && len(named) > 0 {
			t.Fatalf("round %d: %d named %d destinations and moved no clock", round, k, len(named))
		}
	}
}

// TestRunFormRecommendationRefusals: a run-form message is refused whole —
// no route installed, no clock moved, nothing allocated — when its bitmap
// does not span the receiver's run for its sender, when it comes from a
// member that is not one of the receiver's default rendezvous, when an
// explicit entry names the receiver, a tombstone, an unknown ID, a member of
// the run or a destination twice, and when its entries are cut short.
func TestRunFormRecommendationRefusals(t *testing.T) {
	q, _ := runFormFixture(t)
	k := q.servers[0]
	run := heldRun(q, k)
	if len(run)%8 == 0 {
		t.Fatalf("k's run is %d long: no bit of its bitmap's last byte lies past it", len(run))
	}
	all := make([]int, len(run))
	for p := range all {
		all[p] = p
	}
	var outside []wire.NodeID // members outside k's run: failover clients of k's
	for s := range q.view.Slots() {
		if q.view.Occupied(s) && s != q.self && !slices.Contains(run, s) {
			outside = append(outside, q.view.IDAt(s))
		}
	}
	stranger := -1 // a member that is not one of the receiver's servers
	for s := range q.view.Slots() {
		if q.view.Occupied(s) && s != q.self && !slices.Contains(q.servers, s) {
			stranger = s
			break
		}
	}
	extra := func(ids ...wire.NodeID) func() (wire.Header, []byte) {
		return func() (wire.Header, []byte) { return runForm(q, k, len(run), all, ids) }
	}
	for _, tc := range []struct {
		name string
		msg  func() (wire.Header, []byte)
	}{
		{"a run one short", func() (wire.Header, []byte) { return runForm(q, k, len(run)-1, all[:len(all)-1], nil) }},
		{"a run one long", func() (wire.Header, []byte) { return runForm(q, k, len(run)+1, all, nil) }},
		{"a non-default sender", func() (wire.Header, []byte) { return runForm(q, stranger, len(run), all, nil) }},
		{"a non-default sender's empty run", func() (wire.Header, []byte) { return runForm(q, stranger, 0, nil, outside[:1]) }},
		{"an extra naming the receiver", extra(q.view.IDAt(q.self))},
		{"an extra naming a tombstone", extra(12)},
		{"an extra naming an unknown ID", extra(999)},
		{"an extra naming the nil node", extra(wire.NilNode)},
		{"an extra in the run", extra(q.view.IDAt(run[1]))},
		{"an extra twice", extra(outside[0], outside[0])},
		{"extras descending", extra(outside[1], outside[0])},
		{"entries cut short", func() (wire.Header, []byte) {
			h, body := runForm(q, k, len(run), all, outside[:1])
			return h, body[:len(body)-1]
		}},
		{"a bit past the run", func() (wire.Header, []byte) {
			h, body := runForm(q, k, len(run), all, nil)
			body = slices.Clone(body)
			body[8+len(run)/8] |= 1 << (len(run) % 8)
			return h, body
		}},
	} {
		h, body := tc.msg()
		routes, heard := slices.Clone(q.routes), clocks(q)
		if allocs := testing.AllocsPerRun(10, func() { q.HandleRecommendation(h, body) }); allocs != 0 {
			t.Errorf("%s: refusing allocates %.0f times", tc.name, allocs)
		}
		if !slices.Equal(q.routes, routes) || !reflect.DeepEqual(clocks(q), heard) {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The same message, whole and from k, is taken.
	h, body := extra(outside[0], outside[1])()
	q.HandleRecommendation(h, body)
	if e := q.routes[outside[1]].entry(); e.Source != SourceRendezvous || e.From != k {
		t.Errorf("the well-formed message was refused: route to the extra %+v", e)
	}
}

// FuzzRecommendationDecode feeds HandleRecommendation arbitrary bodies, in
// any form, from any slot of runFormFixture's view: it must never panic or
// allocate, and must leave the routes and clocks expectRecommendation decodes
// from the grid and, for a delta, the base the router holds. A body a row
// rides behind is split first, as the overlay node splits it
// (wire.SplitRecommendation), and the recommendation part is what is checked;
// the seeds put a row behind each of the three forms.
func FuzzRecommendationDecode(f *testing.F) {
	q, _ := runFormFixture(f)
	k := q.servers[2]
	run := heldRun(q, k)
	_, body := runForm(q, k, len(run), []int{0, 2, len(run) - 1}, []wire.NodeID{48})
	f.Add(uint8(k), body)
	_, body = runForm(q, k, len(run), nil, nil)
	f.Add(uint8(k), body)
	_, body = runForm(q, k, len(run)+1, []int{0}, nil)
	f.Add(uint8(k), body)
	f.Add(uint8(40), body)
	msg := wire.AppendRecommendation(nil, wire.NodeID(k), wire.Recommendation{ViewVersion: 1, Entries: []wire.RecEntry{
		{Dst: 2, Hop: 2, Cost: 30}, {Dst: 9, Hop: 3, Cost: 30}, {Dst: 12, Hop: 1, Cost: 4}, {Dst: 5, Hop: wire.NilNode, Cost: wire.InfCost},
	}})
	f.Add(uint8(k), msg[wire.HeaderLen:])
	// The delta form: on a base and on none, from a server and not.
	_, body = runForm(q, k, len(run), []int{0, 2, len(run) - 1}, nil)
	f.Add(uint8(k), body)
	delta := recDelta(q, k, 2, len(run), []int{0, 2, len(run) - 1}, []int{2})
	f.Add(uint8(k), delta[wire.HeaderLen:])
	f.Add(uint8(40), delta[wire.HeaderLen:])
	delta = recDelta(q, k, 7, len(run), []int{1, len(run) - 1}, nil)
	f.Add(uint8(k), delta[wire.HeaderLen:])
	row := rowMessage(false, wire.NodeID(k), 1, 3, q.view.N(), 20)
	for _, msg := range [][]byte{msg, delta, append(wire.AppendHeader(nil, wire.TRecommendation, wire.NodeID(k)), body...)} {
		f.Add(uint8(k), riding(msg, row)[wire.HeaderLen:])
	}
	f.Fuzz(func(t *testing.T, from uint8, body []byte) {
		h := wire.Header{Type: wire.TRecommendation, Src: wire.NodeID(from)}
		if _, _, err := wire.SplitRecommendation(body, q.Shape()); err == nil {
			body = body[:recLen(body)]
		}
		checkRecommendation(t, q, "fuzzed", h, body)
	})
}
