package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// recDelta builds a delta from slot k to q at seq over a run of run
// positions, naming the positions named, of which changed changed: entry i
// routes via hop 40+i at cost 50+i.
func recDelta(q *Quorum, k int, seq uint32, run int, named, changed []int) []byte {
	msg := wire.NewRecommendationDelta(nil, wire.NodeID(k), q.view.VersionNum(), seq, run, len(changed), 0)
	for _, p := range named {
		wire.MarkRecRun(msg, p)
	}
	for i, p := range changed {
		wire.MarkRecChanged(msg, i, p)
		wire.PutRecEntry(msg, i, wire.RecEntry{Hop: wire.NodeID(40 + i), Cost: wire.Cost(50 + i)})
	}
	return msg
}

// TestHostileRecommendationDeltasTouchNothing hands the quorum delta-form
// recommendations that are well-formed datagrams but must not be taken: from
// a member that is not its default rendezvous, from a stranger, over a run
// one short or one long, at seq 0, with a mark past the run or at a position
// the bitmap does not name, with a changed count the marks disagree with, an
// entry short or long, or at another view version. Each is refused whole: no
// clock, route or base moves, nothing is allocated and nothing is sent. The
// same delta without a defect is taken, allocating nothing: every named
// position's clock moves, its changed entries are installed and the others
// rebuilt from the base.
func TestHostileRecommendationDeltasTouchNothing(t *testing.T) {
	q, advance := runFormFixture(t)
	env := q.env.(*countingEnv)
	k := q.servers[1]
	slots, _ := q.rv.server(1)
	run := len(slots)
	all := make([]int, run)
	for p := range all {
		all[p] = p
	}
	stranger := -1
	for s := range q.view.Slots() {
		if q.view.Occupied(s) && s != q.self && !slices.Contains(q.servers, s) {
			stranger = s
			break
		}
	}
	// k's message at seq 4, in full, is the base.
	h, body := runForm(q, k, run, all, nil)
	binaryPutSeq(body, 4)
	q.HandleRecommendation(h, body)
	if seq, _, _ := q.HeldRecommendation(k); seq != 4 {
		t.Fatalf("the full message left the base at seq %d", seq)
	}
	advance(time.Second)

	good := recDelta(q, k, 5, run, all, []int{1, run - 1})
	corrupt := func(at int, delta byte) []byte {
		msg := slices.Clone(good)
		msg[at] += delta
		return msg
	}
	marks := wire.HeaderLen + 12 + (run+7)/8 + 2 // the changed marks, a bitmap over the run
	count := marks - 1                           // the changed count's low byte
	unnamed := recDelta(q, k, 5, run, all[1:], []int{1, run - 1})
	wire.MarkRecChanged(unnamed, 0, 0)
	for _, hostile := range []struct {
		defect string
		msg    []byte
	}{
		{"a member that is not a default rendezvous", recDelta(q, stranger, 5, run, all, []int{1, run - 1})},
		{"a stranger", recDelta(q, 77, 5, run, all, []int{1, run - 1})},
		{"itself", recDelta(q, q.self, 5, run, all, []int{1, run - 1})},
		{"a run one short", recDelta(q, k, 5, run-1, all[:run-1], []int{1})},
		{"a run one long", recDelta(q, k, 5, run+1, all, []int{1, run - 1})},
		{"seq 0", recDelta(q, k, 0, run, all, []int{1, run - 1})},
		{"a mark past the run", corrupt(marks+run/8, 1<<(run%8))},
		{"a mark at a position not named", unnamed},
		{"a changed count above the marks'", corrupt(count, 1)},
		{"a changed count below the marks'", corrupt(count, 0xFF)},
		{"an entry short", good[:len(good)-1]},
		{"an entry long", append(slices.Clone(good), 0, 0, 0, 0)},
		{"a stale view version", corrupt(wire.HeaderLen+3, 0xFF)},
	} {
		h, body, err := wire.ParseHeader(hostile.msg)
		if err != nil {
			t.Fatal(err)
		}
		routes, heard, sent := slices.Clone(q.routes), clocks(q), env.sent
		said := slices.Clone(q.rv.said)
		if allocs := testing.AllocsPerRun(10, func() { q.HandleRecommendation(h, body) }); allocs != 0 {
			t.Errorf("%s: handling it allocates %.0f times", hostile.defect, allocs)
		}
		if !slices.Equal(q.routes, routes) || !reflect.DeepEqual(clocks(q), heard) || !slices.Equal(q.rv.said, said) || env.sent != sent {
			t.Errorf("%s: taken", hostile.defect)
		}
		if seq, _, _ := q.HeldRecommendation(k); seq != 4 {
			t.Errorf("%s: the base moved to seq %d", hostile.defect, seq)
		}
	}

	// The good delta is taken whole, allocating nothing.
	h, body, _ = wire.ParseHeader(good)
	checkRecommendation(t, q, "the good delta", h, body)
	_, dsts, said := q.HeldRecommendation(k)
	for p, e := range said {
		want := wire.RecEntry{Hop: wire.NodeID(20 + p), Cost: wire.Cost(30 + p)} // runForm's
		switch p {
		case 1:
			want = wire.RecEntry{Hop: 40, Cost: 50}
		case run - 1:
			want = wire.RecEntry{Hop: 41, Cost: 51}
		}
		if e != want {
			t.Errorf("position %d: holds %+v, want %+v", p, e, want)
		}
		if hop, ok := q.view.SlotOf(want.Hop); ok && hop != q.self && q.routes[dsts[p]].cost != want.Cost {
			t.Errorf("position %d: route cost %d, want %d", p, q.routes[dsts[p]].cost, want.Cost)
		}
	}
	if seq, _, _ := q.HeldRecommendation(k); seq != 5 || env.sent != 0 {
		t.Errorf("the good delta left the base at seq %d and sent %d datagrams", seq, env.sent)
	}
}

// riding returns msg, a whole recommendation, with the whole round-1
// message row riding behind it (wire.PutRide).
func riding(msg, row []byte) []byte {
	b := make([]byte, len(msg)+wire.RideSize(row))
	copy(b, msg)
	wire.PutRide(b[len(msg):], row)
	return b
}

// TestHostileTrailersTouchNothing hands the quorum, as the overlay node
// dispatches a datagram (deliver), a good run-form recommendation from its
// default rendezvous k with what may not ride behind it: a probe, a
// heartbeat, data or a link-state ack; k's row cut short or one byte long; a
// row or a delta of the other table form; a row at another view version than
// the recommendation's; and k's row behind a refusal. Each datagram is
// dropped whole: no table row, clock, route or base moves, nothing is
// allocated and nothing is sent. The same recommendation with k's row behind
// it is taken whole, allocating nothing: the row, then the recommendation.
func TestHostileTrailersTouchNothing(t *testing.T) {
	q, advance := runFormFixture(t)
	env := q.env.(*countingEnv)
	k := q.servers[1]
	id, version, members := wire.NodeID(k), q.view.VersionNum(), q.view.N()
	slots, _ := q.rv.server(1)
	run := len(slots)
	all := make([]int, run)
	for p := range all {
		all[p] = p
	}
	// k's row at seq 6 and its message at seq 4, in full, are what q holds.
	deliver(q, rowMessage(false, id, version, 6, members, 20))
	whole := func(h wire.Header, body []byte) []byte { return append(wire.AppendHeader(nil, h.Type, h.Src), body...) }
	h, body := runForm(q, k, run, all, nil)
	binaryPutSeq(body, 4)
	deliver(q, whole(h, body))
	advance(time.Second)
	if seq, _, _ := q.HeldRecommendation(k); seq != 4 || q.table.Seq(k) != 6 {
		t.Fatalf("q holds k's message at seq %d and its row at seq %d, want 4 and 6", seq, q.table.Seq(k))
	}
	binaryPutSeq(body, 5)
	rec := whole(h, body)
	row := rowMessage(false, id, version, 7, members, 33)
	refusal := wire.AppendRecommendation(nil, id, wire.Recommendation{ViewVersion: version})
	for _, hostile := range []struct {
		defect string
		msg    []byte
	}{
		{"a probe", riding(rec, wire.AppendProbe(nil, id, wire.Probe{Seq: 1}))},
		{"a heartbeat", riding(rec, wire.AppendHeartbeat(nil, id))},
		{"data", riding(rec, wire.AppendData(nil, id, wire.Data{Origin: id, Dst: wire.NodeID(q.self), TTL: 2}))},
		{"a link-state ack", riding(rec, wire.AppendLinkStateAck(nil, id, 7))},
		{"a row cut short", riding(rec, row)[:len(rec)+wire.RideSize(row)-1]},
		{"a row one byte long", append(riding(rec, row), 0)},
		{"a row of the other table form", riding(rec, rowMessage(true, id, version, 7, members, 33))},
		{"a delta of the other table form", riding(rec, wire.NewLinkStateDelta(id, version, 7, wire.TLinkStateAsym, members, 0))},
		{"a row at another view version", riding(rec, rowMessage(false, id, version+1, 7, members, 33))},
		{"a row behind a refusal", riding(refusal, row)},
	} {
		routes, heard, sent := slices.Clone(q.routes), clocks(q), env.sent
		said, out := slices.Clone(q.rv.said), slices.Clone(q.table.OutRow(k))
		if allocs := testing.AllocsPerRun(10, func() { deliver(q, hostile.msg) }); allocs != 0 {
			t.Errorf("%s: dropping it allocates %.0f times", hostile.defect, allocs)
		}
		if !slices.Equal(q.routes, routes) || !reflect.DeepEqual(clocks(q), heard) || !slices.Equal(q.rv.said, said) || env.sent != sent {
			t.Errorf("%s: the recommendation was taken", hostile.defect)
		}
		if q.table.Seq(k) != 6 || !slices.Equal(q.table.OutRow(k), out) {
			t.Errorf("%s: the table holds k's row at seq %d", hostile.defect, q.table.Seq(k))
		}
		if seq, _, _ := q.HeldRecommendation(k); seq != 4 {
			t.Errorf("%s: the base moved to seq %d", hostile.defect, seq)
		}
	}

	// k's row behind its message is taken whole, allocating nothing.
	good := riding(rec, row)
	wantRoutes, wantHeard := expectRecommendation(q, h, body)
	if allocs := testing.AllocsPerRun(1, func() { deliver(q, good) }); allocs != 0 {
		t.Errorf("taking the row and the recommendation allocates %.0f times", allocs)
	}
	if !slices.Equal(q.routes, wantRoutes) || !reflect.DeepEqual(clocks(q), wantHeard) {
		t.Error("the recommendation behind the row was not taken as it is alone")
	}
	if seq, _, _ := q.HeldRecommendation(k); seq != 5 || q.table.Seq(k) != 7 || q.table.OutRow(k)[q.self] != 33 {
		t.Errorf("q holds k's message at seq %d and its row at seq %d, want 5 and 7", seq, q.table.Seq(k))
	}
}

// binaryPutSeq writes seq into a run-form body.
func binaryPutSeq(body []byte, seq uint32) {
	body[6], body[7], body[8], body[9] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
}

// TestRecommendationDeltaWithoutBase: a delta whose base the receiver lacks —
// none since the install, or a seq it skipped — moves every clock its bitmap
// names, installs none of its run entries, changed or not, leaves the base
// and the routes alone, and draws one refusal (an explicit-form message of no
// entries) per delta — two per check here, which handles each message twice
// (checkRecommendation) — one older than the base is ignored whole; a
// duplicate of the base's is taken again.
func TestRecommendationDeltaWithoutBase(t *testing.T) {
	q, advance := runFormFixture(t)
	env := q.env.(*countingEnv)
	k := q.servers[0]
	slots, _ := q.rv.server(0)
	run := len(slots)
	all := make([]int, run)
	for p := range all {
		all[p] = p
	}
	refused := func(what string, msg []byte, want int) {
		t.Helper()
		h, body, _ := wire.ParseHeader(msg)
		sent := env.sent
		checkRecommendation(t, q, what, h, body)
		if env.sent-sent != want {
			t.Errorf("%s: %d datagrams sent, want %d", what, env.sent-sent, want)
		}
	}
	refused("a delta with no base", recDelta(q, k, 3, run, all, []int{2}), 2)
	if seq, _, _ := q.HeldRecommendation(k); seq != 0 {
		t.Fatalf("a refused delta set the base at %d", seq)
	}
	h, body := runForm(q, k, run, all, nil)
	binaryPutSeq(body, 5)
	q.HandleRecommendation(h, body)
	advance(time.Second)
	refused("a delta past a skipped seq", recDelta(q, k, 7, run, all, []int{2, 3}), 2)
	refused("a delta older than the base", recDelta(q, k, 4, run, all, []int{2}), 0)
	refused("a delta at the base's seq, a duplicate", recDelta(q, k, 5, run, all[1:], []int{2}), 0)
	refused("the next delta", recDelta(q, k, 6, run, all[:4], nil), 0)
	if seq, _, _ := q.HeldRecommendation(k); seq != 6 {
		t.Errorf("the base is at seq %d, want 6", seq)
	}
}

// TestRefusedDeltaTakesOnlyItsExplicitEntries: a delta without its base
// moves the clock of every position its bitmap names and draws one refusal.
// It installs its explicit entries, which it carries whole, and none of its
// run entries: the changed ones wait for the answer with the rest.
func TestRefusedDeltaTakesOnlyItsExplicitEntries(t *testing.T) {
	q, _ := runFormFixture(t)
	env := q.env.(*countingEnv)
	k := q.servers[0]
	run := heldRun(q, k)
	var extras []int // two of k's failover clients: members outside its run
	for s := range q.view.Slots() {
		if q.view.Occupied(s) && s != q.self && !slices.Contains(run, s) && len(extras) < 2 {
			extras = append(extras, s)
		}
	}
	msg := wire.NewRecommendationDelta(nil, wire.NodeID(k), q.view.VersionNum(), 3, len(run), 1, len(extras))
	for p := range run {
		wire.MarkRecRun(msg, p)
	}
	wire.MarkRecChanged(msg, 0, 2)
	wire.PutRecEntry(msg, 0, wire.RecEntry{Hop: 40, Cost: 50})
	for i, dst := range extras {
		wire.PutRecEntry(msg, 1+i, wire.RecEntry{Dst: q.view.IDAt(dst), Hop: q.view.IDAt(dst), Cost: wire.Cost(60 + i)})
	}
	h, body, _ := wire.ParseHeader(msg)
	q.HandleRecommendation(h, body)
	now := q.env.Now().UnixNano()
	if env.sent != 1 {
		t.Errorf("%d datagrams sent, want the one refusal", env.sent)
	}
	for _, dst := range run {
		if *q.rv.clock(k, dst) != now {
			t.Errorf("the clock of %d's pairing with %d did not move", dst, k)
		}
		if e := q.routes[dst].entry(); e.Source != SourceNone {
			t.Errorf("the run entry about %d was installed: %+v", dst, e)
		}
	}
	for i, dst := range extras {
		if e := q.routes[dst].entry(); e.Source != SourceRendezvous || e.From != k || e.Cost != wire.Cost(60+i) {
			t.Errorf("the explicit entry about %d was not installed: %+v", dst, e)
		}
	}
	if seq, dsts, _ := q.HeldRecommendation(k); seq != 0 || len(dsts) != 0 {
		t.Errorf("the refused delta left a base at seq %d naming %v", seq, dsts)
	}
}

// TestOlderRunFormIgnoredWhole: a run-form message older than the one held
// from its sender is ignored whole, in full as in the delta form: it changes
// no route, clock, said entry or held seq, and sends nothing.
func TestOlderRunFormIgnoredWhole(t *testing.T) {
	q, advance := runFormFixture(t)
	env := q.env.(*countingEnv)
	k := q.servers[0]
	run := heldRun(q, k)
	all := make([]int, len(run))
	for p := range all {
		all[p] = p
	}
	h, body := runForm(q, k, len(run), all, nil)
	binaryPutSeq(body, 5)
	q.HandleRecommendation(h, body)
	advance(time.Second)
	_, full := runForm(q, k, len(run), all[1:], nil) // other words about the same run
	binaryPutSeq(full, 4)
	delta := recDelta(q, k, 4, len(run), all, []int{2})[wire.HeaderLen:]
	for _, older := range []struct {
		form string
		body []byte
	}{{"full", full}, {"delta", delta}} {
		routes, heard, said, sent := slices.Clone(q.routes), clocks(q), slices.Clone(q.rv.said), env.sent
		q.HandleRecommendation(h, older.body)
		if !slices.Equal(q.routes, routes) || !reflect.DeepEqual(clocks(q), heard) || !slices.Equal(q.rv.said, said) || env.sent != sent {
			t.Errorf("the older %s message was taken", older.form)
		}
		if seq, _, _ := q.HeldRecommendation(k); seq != 5 {
			t.Errorf("the older %s message moved the base to seq %d", older.form, seq)
		}
	}
}

// TestRecommendationRefusalAnswered: a rendezvous answers a client's refusal
// with what it built for it this interval, in the run form, once an interval
// and only when it sent it a delta; a refusal from anyone else, or a second,
// draws nothing. On round2Fixture's tables, whose rows do not change, the
// second interval sends a delta that changes nothing to every default client
// whose link reads alive (the rest go in full: a dead link's refusal odds are
// 1), and the answer names what the first message named, at the second seq.
func TestRecommendationRefusalAnswered(t *testing.T) {
	for _, directional := range []bool{false, true} {
		q, env := round2Fixture(t, directional)
		q.seq = 1
		q.sendRounds(nil)
		first := maps(env.last)
		q.seq = 2
		q.sendRounds(nil)
		clients := q.Grid().Clients(0)
		var deltas []int
		for _, c := range clients {
			rec, err := wire.RecommendationBody(env.last[q.view.IDAt(c)][wire.HeaderLen:])
			alive := wire.StatusAlive(q.SelfRow()[c].Status)
			if directional {
				alive = wire.StatusAlive(q.SelfAsymRow()[c].Status)
			}
			if err != nil || rec.Seq != 2 || rec.Delta != alive || rec.Delta && rec.Carried != 0 {
				t.Fatalf("directional=%v: slot %d, its link alive %v, was sent %+v, %v; want a delta that changes nothing if alive", directional, c, alive, rec, err)
			}
			if rec.Delta {
				deltas = append(deltas, c)
			}
		}
		if 2*len(deltas) < len(clients) {
			t.Fatalf("directional=%v: %d of %d clients were sent a delta", directional, len(deltas), len(clients))
		}
		refuse := func(from int) (answered bool) {
			delete(env.last, q.view.IDAt(from))
			before := len(env.last)
			h, body, _ := wire.ParseHeader(wire.AppendRecommendation(nil, q.view.IDAt(from), wire.Recommendation{ViewVersion: q.view.VersionNum()}))
			q.HandleRecommendation(h, body)
			_, answered = env.last[q.view.IDAt(from)]
			if !answered && len(env.last) != before {
				t.Fatalf("a refusal from %d drew a datagram to someone else", from)
			}
			return answered
		}
		if full := slices.IndexFunc(clients, func(c int) bool { return !slices.Contains(deltas, c) }); full >= 0 && refuse(clients[full]) {
			t.Errorf("directional=%v: a refusal from a client sent its message in full was answered", directional)
		}
		c := deltas[3]
		if !refuse(c) {
			t.Fatalf("directional=%v: the refusal was not answered", directional)
		}
		answer := env.last[q.view.IDAt(c)]
		rec, err := wire.RecommendationBody(answer[wire.HeaderLen:])
		if err != nil || !rec.ByRun || rec.Delta || rec.Seq != 2 {
			t.Fatalf("directional=%v: answered with %+v, %v", directional, rec, err)
		}
		want := decodeRound2(t, q, c, first[q.view.IDAt(c)])
		if got := decodeRound2(t, q, c, answer); !slices.Equal(got, want) {
			t.Errorf("directional=%v: the answer says\n %v\nthe full message said\n %v", directional, got, want)
		}
		if refuse(c) {
			t.Errorf("directional=%v: a second refusal in the interval was answered", directional)
		}
		if far := 601; slices.Contains(clients, far) || refuse(far) {
			t.Errorf("directional=%v: a refusal from a non-client was answered", directional)
		}
		if !bytes.Equal(first[q.view.IDAt(c)][wire.HeaderLen+10:], answer[wire.HeaderLen+10:]) {
			t.Errorf("directional=%v: the answer's bytes past its seq differ from the first interval's message", directional)
		}
	}
}

// maps copies a map of payloads.
func maps(m map[wire.NodeID][]byte) map[wire.NodeID][]byte {
	out := make(map[wire.NodeID][]byte, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestRecommendationBasesSurviveStableInstalls drives a rendezvous, slot 5 of
// a 5×5 grid, and a quorum at every other slot through stable installs onto
// the next version, over a clean channel, on symmetric and directional
// tables. The installs append slot 25, which the grid makes the rendezvous's
// client; replace the member at slot 12, through which the pair of clients 6
// and 15 routes before and after; and empty slot 7, which appoints slot 2,
// column 2's deputy, a server of 5. Then an install skips a version. Each
// interval a few costs drift. After every interval each client holds, at the
// rendezvous's seq, exactly the entries a rendezvous without a base sends it
// in full; no message is refused; and the first message after an install
// goes as a delta to every client it kept, in full to every other, and in
// full to all after the skip.
func TestRecommendationBasesSurviveStableInstalls(t *testing.T) {
	for _, directional := range []bool{false, true} {
		testBasesSurviveInstalls(t, directional)
	}
}

func testBasesSurviveInstalls(t *testing.T, directional bool) {
	const rv, hub, slots = 5, 12, 27
	rng := rand.New(rand.NewSource(5))
	cost := make([][]wire.Cost, slots) // by slot: from, to
	for s := range cost {
		cost[s] = make([]wire.Cost, slots)
		for d := range cost[s] {
			if d != s {
				cost[s][d] = wire.Cost(30 + rng.Intn(370))
			}
		}
	}
	for _, c := range []int{6, 15} { // 6 and 15 meet at the hub at cost 2
		cost[c][hub], cost[hub][c] = 1, 1
	}
	ids := make([]wire.NodeID, 25)
	for s := range ids {
		ids[s] = wire.NodeID(s)
	}
	view := slotView(t, 1, ids...)
	// links returns slot s's row in view, in both forms.
	links := func(s int) ([]wire.LinkEntry, []wire.AsymEntry) {
		sym, asym := make([]wire.LinkEntry, view.Slots()), make([]wire.AsymEntry, view.Slots())
		for d := range sym {
			st := wire.MakeStatus(view.Occupied(d), 0)
			sym[d] = wire.LinkEntry{Latency: uint16(cost[min(s, d)][max(s, d)]), Status: st}
			asym[d] = wire.AsymEntry{Out: uint16(cost[s][d]), In: uint16(cost[d][s]), Status: st}
		}
		return sym, asym
	}
	sim, nw := soloEnv()
	var box []mail
	cfg := QuorumConfig{Asymmetric: directional}
	newQuorum := func(s int, box *[]mail) *Quorum {
		q, err := NewQuorum(&mailEnv{SimEnv: sim, id: view.IDAt(s), box: box}, cfg, view, s)
		if err != nil {
			t.Fatal(err)
		}
		q.LinkAlive = func(int) bool { return true }
		q.SelfRow = func() []wire.LinkEntry { sym, _ := links(s); return sym }
		q.SelfAsymRow = func() []wire.AsymEntry { _, asym := links(s); return asym }
		return q
	}
	slot := func(id wire.NodeID) int {
		s, _ := view.SlotOf(id)
		return s
	}
	sender := newQuorum(rv, &box)
	nodes := map[wire.NodeID]*Quorum{}
	for s := range view.Slots() {
		if s != rv {
			nodes[view.IDAt(s)] = newQuorum(s, &box)
		}
	}
	// load puts every client's row into q's table at seq.
	load := func(q *Quorum, seq uint32) {
		for _, c := range q.Grid().Clients(rv) {
			sym, asym := links(c)
			msg := wire.AppendLinkState(nil, 0, wire.LinkState{Entries: sym})
			if directional {
				msg = wire.AppendLinkStateAsym(nil, 0, wire.LinkStateAsym{Entries: asym})
			}
			msg = wire.PackLinkState(msg, view.Tombstones())
			_, _, entries, err := wire.LinkStateBody(wire.PeekType(msg), msg[wire.HeaderLen:])
			if err != nil || !q.table.PutWire(c, seq, sim.Now(), entries) {
				t.Fatalf("slot %d's row refused: %v", c, err)
			}
		}
	}
	// interval runs one round 2 and delivers everything it sends, and
	// reports which clients were sent a delta.
	interval := func(what string) (delta map[int]bool) {
		nw.RunFor(15 * time.Second)
		for range 3 { // drift
			a, b := rng.Intn(slots), rng.Intn(slots)
			if a != b && a != hub && b != hub {
				cost[a][b] = wire.Cost(30 + rng.Intn(370))
			}
		}
		sender.seq++
		load(sender, sender.seq)
		sender.sendRounds(nil)
		delta = map[int]bool{}
		for len(box) > 0 {
			m := box[0]
			box = box[1:]
			h, body, err := wire.ParseHeader(m.msg)
			if err != nil {
				t.Fatal(err)
			}
			if m.to == view.IDAt(rv) {
				t.Fatalf("directional=%v %s: %d refused a message", directional, what, m.from)
			}
			rec, _ := wire.RecommendationBody(body)
			delta[slot(m.to)] = rec.Delta
			nodes[m.to].HandleRecommendation(h, body)
		}
		// What a rendezvous without a base sends in full.
		var full []mail
		ref := newQuorum(rv, &full)
		ref.seq = sender.seq
		load(ref, sender.seq)
		ref.sendRounds(nil)
		for _, m := range full {
			c := slot(m.to)
			held, dsts, said := nodes[m.to].HeldRecommendation(rv)
			if held != sender.seq {
				t.Fatalf("directional=%v %s: slot %d holds seq %d, want %d", directional, what, c, held, sender.seq)
			}
			for _, want := range decodeRound2(t, ref, c, m.msg) {
				i := slices.IndexFunc(dsts, func(d uint16) bool { return view.IDAt(int(d)) == want.Dst })
				if i < 0 || said[i].Hop != want.Hop || said[i].Cost != want.Cost {
					t.Fatalf("directional=%v %s: slot %d holds %+v toward %d, the full message says %+v", directional, what, c, said[max(i, 0)], want.Dst, want)
				}
			}
		}
		return delta
	}
	// install installs the view of ids at version on every member, a
	// quorum for each new one.
	install := func(version uint32) {
		view = slotView(t, version, ids...)
		if err := sender.SetView(view, rv); err != nil {
			t.Fatal(err)
		}
		kept := map[wire.NodeID]*Quorum{}
		for s := range view.Slots() {
			id := view.IDAt(s)
			switch q, ok := nodes[id]; {
			case s == rv || id == wire.NilNode:
			case ok:
				if err := q.SetView(view, s); err != nil {
					t.Fatal(err)
				}
				kept[id] = q
			default:
				kept[id] = newQuorum(s, &box)
			}
		}
		nodes = kept
	}
	interval("the first interval")
	interval("the second interval")
	steps := []struct {
		what    string
		change  func()
		version uint32
		full    []int // the clients the install newly paired
	}{
		{"after slot 25 was appended", func() { ids = append(ids, 100) }, 2, []int{25}},
		{"after slot 12 was reused", func() { ids[hub] = 101 }, 3, nil},
		{"after slot 7 was emptied", func() { ids[7] = wire.NilNode }, 4, []int{2}},
		{"after a skipped version", func() { ids = append(ids, 102) }, 6, nil},
	}
	for _, step := range steps {
		before := sender.Grid().Clients(rv)
		step.change()
		install(step.version)
		delta := interval(step.what)
		for _, c := range sender.Grid().Clients(rv) {
			want := slices.Contains(before, c) && !slices.Contains(step.full, c) && step.version != 6
			if delta[c] != want {
				t.Errorf("directional=%v %s: slot %d was sent a delta %v, want %v", directional, step.what, c, delta[c], want)
			}
		}
		if step.version == 3 { // the pair the reused slot routes keeps its hop
			_, dsts, said := nodes[view.IDAt(6)].HeldRecommendation(rv)
			if i := slices.Index(dsts, 15); i < 0 || said[i].Hop != 101 {
				t.Fatalf("directional=%v: slot 6 reaches slot 15 by %+v, not by the hub's new member", directional, said)
			}
		}
		interval(step.what + ", one interval on")
	}
}
