package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestCostAddSaturates(t *testing.T) {
	cases := []struct {
		a, b, want Cost
	}{
		{0, 0, 0},
		{10, 20, 30},
		{InfCost, 5, InfCost},
		{5, InfCost, InfCost},
		{InfCost, InfCost, InfCost},
		{0xFFFE, 1, InfCost},
		{0xFFFE, 0, 0xFFFE},
		{0x8000, 0x8000, InfCost},
	}
	for _, c := range cases {
		if got := c.a.Add(c.b); got != c.want {
			t.Errorf("Cost(%d).Add(%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCostAddProperties(t *testing.T) {
	commutes := func(a, b Cost) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(commutes, nil); err != nil {
		t.Errorf("Add not commutative: %v", err)
	}
	neverExceedsInf := func(a, b Cost) bool { return a.Add(b) <= InfCost }
	if err := quick.Check(neverExceedsInf, nil); err != nil {
		t.Errorf("Add overflowed: %v", err)
	}
	monotone := func(a, b Cost) bool { return a.Add(b) >= a || a.Add(b) == InfCost }
	if err := quick.Check(monotone, nil); err != nil {
		t.Errorf("Add not monotone: %v", err)
	}
}

func TestMsgTypeNames(t *testing.T) {
	for mt := TProbe; mt < maxMsgType; mt++ {
		if !mt.Valid() {
			t.Errorf("type %d should be valid", mt)
		}
		if mt.String() == "" {
			t.Errorf("type %d has empty name", mt)
		}
	}
	if MsgType(0).Valid() || MsgType(200).Valid() {
		t.Error("invalid types reported valid")
	}
}

func TestCategoryOf(t *testing.T) {
	want := map[MsgType]Category{
		TProbe:          CatProbing,
		TProbeReply:     CatProbing,
		TLinkState:      CatRouting,
		TRecommendation: CatRouting,
		TLinkStateDelta: CatRouting,
		TJoin:           CatMembership,
		TJoinReply:      CatMembership,
		TLeave:          CatMembership,
		THeartbeat:      CatMembership,
		TView:           CatMembership,
		THeartbeatAck:   CatMembership,
		TCoordBeacon:    CatMembership,
	}
	for mt, cat := range want {
		if got := CategoryOf(mt); got != cat {
			t.Errorf("CategoryOf(%v) = %v, want %v", mt, got, cat)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	b := AppendHeader(nil, TProbe, 42)
	h, rest, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TProbe || h.Src != 42 {
		t.Errorf("got %+v", h)
	}
	if len(rest) != 0 {
		t.Errorf("unexpected trailing bytes: %d", len(rest))
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, _, err := ParseHeader(nil); err == nil {
		t.Error("want error for nil")
	}
	if _, _, err := ParseHeader([]byte{1, 2}); err == nil {
		t.Error("want error for short header")
	}
	if _, _, err := ParseHeader([]byte{0, 0, 0}); err == nil {
		t.Error("want error for type 0")
	}
	if _, _, err := ParseHeader([]byte{99, 0, 0}); err == nil {
		t.Error("want error for unknown type")
	}
}

func TestPeekType(t *testing.T) {
	if PeekType(nil) != 0 {
		t.Error("PeekType(nil) != 0")
	}
	b := AppendProbe(nil, 1, Probe{Seq: 7})
	if PeekType(b) != TProbe {
		t.Errorf("PeekType = %v", PeekType(b))
	}
}

func TestProbeRoundTrip(t *testing.T) {
	p := Probe{Seq: 0xDEADBEEF, Echo: -12345678901234}
	b := AppendProbe(nil, 9, p)
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TProbe || h.Src != 9 {
		t.Fatalf("header %+v err %v", h, err)
	}
	got, err := ParseProbe(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("got %+v want %+v", got, p)
	}
}

func TestProbeReplyRoundTrip(t *testing.T) {
	r := ProbeReply{Seq: 1, Echo: 99}
	b := AppendProbeReply(nil, 3, r)
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TProbeReply {
		t.Fatalf("header %+v err %v", h, err)
	}
	got, err := ParseProbeReply(body)
	if err != nil || got != r {
		t.Errorf("got %+v err %v", got, err)
	}
}

func TestProbeParseErrors(t *testing.T) {
	if _, err := ParseProbe([]byte{1, 2, 3}); err == nil {
		t.Error("want error for short probe")
	}
	if _, err := ParseProbe(make([]byte, probeBodyLen+1)); err == nil {
		t.Error("want error for long probe")
	}
}

func TestLinkStateRoundTrip(t *testing.T) {
	ls := LinkState{
		ViewVersion: 7,
		Seq:         100,
		Entries: []LinkEntry{
			{Latency: 0, Status: 0},
			{Latency: 450, Status: 12},
			{Latency: 65535, Status: StatusDead},
		},
	}
	b := AppendLinkState(nil, 5, ls)
	if len(b) != LinkStateSize(len(ls.Entries)) {
		t.Errorf("encoded size %d, LinkStateSize says %d", len(b), LinkStateSize(len(ls.Entries)))
	}
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TLinkState || h.Src != 5 {
		t.Fatalf("header %+v err %v", h, err)
	}
	got, err := ParseLinkState(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ls) {
		t.Errorf("got %+v want %+v", got, ls)
	}
}

// TestPackThenUnpackLinkState: a row packed by a set of tombstones carries the
// other slots' entries in slot order, a member count and nothing else, and
// LinkEntryAt / AsymEntryAt read the k-th member's entry back as entry k — for
// no tombstone, every slot but one, and random sets. Unpacking a packed row
// into slot-indexed costs is lsdb's ingest step and is tested there.
func TestPackThenUnpackLinkState(t *testing.T) {
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
		sym, asym := make([]LinkEntry, n), make([]AsymEntry, n)
		var kept []LinkEntry
		var keptAsym []AsymEntry
		for s := range n {
			sym[s] = LinkEntry{Latency: uint16(rng.Intn(3000)), Status: byte(rng.Intn(101))}
			asym[s] = AsymEntry{Out: uint16(rng.Intn(3000)), In: uint16(rng.Intn(3000)), Status: byte(rng.Intn(101))}
			if !slices.Contains(tombs, s) {
				kept, keptAsym = append(kept, sym[s]), append(keptAsym, asym[s])
			}
		}
		msg := PackLinkState(AppendLinkState(nil, 3, LinkState{ViewVersion: 9, Seq: 4, Entries: sym}), tombs)
		if want := AppendLinkState(nil, 3, LinkState{ViewVersion: 9, Seq: 4, Entries: kept}); !slices.Equal(msg, want) {
			t.Fatalf("n=%d tombstones %v: packed %x, want %x", n, tombs, msg, want)
		}
		msgAsym := PackLinkState(AppendLinkStateAsym(nil, 3, LinkStateAsym{ViewVersion: 9, Seq: 4, Entries: asym}), tombs)
		if want := AppendLinkStateAsym(nil, 3, LinkStateAsym{ViewVersion: 9, Seq: 4, Entries: keptAsym}); !slices.Equal(msgAsym, want) {
			t.Fatalf("n=%d tombstones %v: packed %x, want %x", n, tombs, msgAsym, want)
		}
		_, _, entries, err := LinkStateBody(TLinkState, msg[HeaderLen:])
		_, _, entriesAsym, errAsym := LinkStateBody(TLinkStateAsym, msgAsym[HeaderLen:])
		if err != nil || errAsym != nil {
			t.Fatal(err, errAsym)
		}
		for k := range kept {
			if got, gotAsym := LinkEntryAt(entries, k), AsymEntryAt(entriesAsym, k); got != kept[k] || gotAsym != keptAsym[k] {
				t.Fatalf("n=%d tombstones %v member %d: unpacked %+v / %+v, want %+v / %+v",
					n, tombs, k, got, gotAsym, kept[k], keptAsym[k])
			}
		}
	}
}

func TestLinkStateEmptyRow(t *testing.T) {
	b := AppendLinkState(nil, 1, LinkState{ViewVersion: 1, Seq: 2})
	_, body, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseLinkState(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 0 {
		t.Errorf("want empty entries, got %d", len(got.Entries))
	}
}

func TestLinkStateParseErrors(t *testing.T) {
	if _, err := ParseLinkState([]byte{1}); err == nil {
		t.Error("want error for short body")
	}
	// Claim 2 entries but supply bytes for 1.
	ls := LinkState{Entries: []LinkEntry{{Latency: 1}}}
	b := AppendLinkState(nil, 1, ls)
	_, body, _ := ParseHeader(b)
	body[8] = 0
	body[9] = 2 // count=2
	if _, err := ParseLinkState(body); err == nil {
		t.Error("want error for inconsistent count")
	}
}

func TestLinkEntryCost(t *testing.T) {
	if c := (LinkEntry{Latency: 80, Status: 3}).Cost(); c != 80 {
		t.Errorf("alive cost = %d", c)
	}
	if c := (LinkEntry{Latency: 80, Status: StatusDead}).Cost(); c != InfCost {
		t.Errorf("dead cost = %d", c)
	}
}

func TestMakeStatus(t *testing.T) {
	if MakeStatus(false, 0) != StatusDead {
		t.Error("dead status wrong")
	}
	if MakeStatus(true, -5) != 0 {
		t.Error("negative loss not clamped")
	}
	if MakeStatus(true, 250) != 100 {
		t.Error("loss not clamped to 100")
	}
	if MakeStatus(true, 33) != 33 {
		t.Error("loss not preserved")
	}
	if StatusAlive(StatusDead) {
		t.Error("StatusDead reported alive")
	}
	if !StatusAlive(100) {
		t.Error("loss=100 should still be alive")
	}
}

func TestRecommendationRoundTrip(t *testing.T) {
	r := Recommendation{
		ViewVersion: 3,
		Entries: []RecEntry{
			{Dst: 1, Hop: 1, Cost: 40},            // direct
			{Dst: 2, Hop: 17, Cost: 90},           // detour
			{Dst: 3, Hop: NilNode, Cost: InfCost}, // unreachable
		},
	}
	b := AppendRecommendation(nil, 8, r)
	if len(b) != RecommendationSize(len(r.Entries)) {
		t.Errorf("encoded size %d, RecommendationSize says %d", len(b), RecommendationSize(len(r.Entries)))
	}
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TRecommendation {
		t.Fatalf("header %+v err %v", h, err)
	}
	got, err := ParseRecommendation(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("got %+v want %+v", got, r)
	}
}

func TestRecommendationParseErrors(t *testing.T) {
	if _, err := ParseRecommendation([]byte{1, 2}); err == nil {
		t.Error("want error for short body")
	}
	b := AppendRecommendation(nil, 1, Recommendation{Entries: []RecEntry{{Dst: 1}}})
	_, body, _ := ParseHeader(b)
	if _, err := ParseRecommendation(body[:len(body)-1]); err == nil {
		t.Error("want error for truncated entries")
	}
}

// TestRecommendationRunForm: a run-form message is the size
// RecommendationRunSize gives, reads back by RecommendationBody — the named
// entries without a destination, then the explicit ones — and is no
// Recommendation ParseRecommendation could return.
func TestRecommendationRunForm(t *testing.T) {
	named := []RecEntry{{Hop: 4, Cost: 90}, {Hop: NilNode, Cost: InfCost}, {Hop: 11, Cost: 7}}
	extra := []RecEntry{{Dst: 40, Hop: 40, Cost: 3}}
	msg := NewRecommendationRun(8, 5, 17, len(named), len(extra))
	for _, bit := range []int{0, 9, 16} {
		MarkRecRun(msg, bit)
	}
	for i, e := range append(slices.Clone(named), extra...) {
		PutRecEntry(msg, i, e)
	}
	if want := RecommendationRunSize(17, 3, 1); len(msg) != want || want != HeaderLen+8+3+3*4+6 {
		t.Fatalf("encoded size %d, RecommendationRunSize says %d", len(msg), want)
	}
	h, body, _ := ParseHeader(msg)
	r, err := RecommendationBody(body)
	if err != nil || h.Type != TRecommendation || !r.ByRun || r.ViewVersion != 5 || r.Run != 17 || r.Named != 3 || r.Entries != 4 {
		t.Fatalf("read back %+v, %v", r, err)
	}
	var at []int
	for p := r.NextRun(0); p < r.Run; p = r.NextRun(p + 1) {
		at = append(at, p)
	}
	if !slices.Equal(at, []int{0, 9, 16}) || !bytes.Equal(body[8:11], []byte{0x01, 0x02, 0x01}) {
		t.Errorf("bitmap %x names %v, want 0, 9 and 16", body[8:11], at)
	}
	for i, want := range append(slices.Clone(named), extra...) {
		if i < len(named) {
			want.Dst = NilNode
		}
		if got := r.Entry(i); got != want {
			t.Errorf("entry %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := ParseRecommendation(body); !errors.Is(err, ErrRunForm) {
		t.Errorf("ParseRecommendation on the run form: %v, want ErrRunForm", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { r, err = RecommendationBody(body) }); allocs != 0 {
		t.Errorf("reading a run-form body allocates %.0f times", allocs)
	}
}

// TestRecommendationBodyRefusals: a run-form body is refused, without an
// allocation, when it is cut anywhere, when its bitmap has a bit past the run
// or a bit too few or too many for its named entries, and when anything
// follows its last entry.
func TestRecommendationBodyRefusals(t *testing.T) {
	msg := NewRecommendationRun(8, 5, 10, 2, 1)
	MarkRecRun(msg, 3)
	MarkRecRun(msg, 9)
	_, good, _ := ParseHeader(msg)
	if _, err := RecommendationBody(good); err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{}
	for cut := 0; cut < len(good); cut++ {
		bad[fmt.Sprintf("cut to %d", cut)] = good[:cut]
	}
	past := slices.Clone(good)
	past[recRunFixed+1] |= 0x04 // bit 10 of a 10-long run
	bad["bit past the run"] = past
	fewer := slices.Clone(good)
	fewer[recRunFixed] &^= 0x08 // bit 3 cleared
	bad["a bit too few"] = fewer
	more := slices.Clone(good)
	more[recRunFixed] |= 0x01
	bad["a bit too many"] = more
	bad["a trailing byte"] = append(slices.Clone(good), 1)
	for name, body := range bad {
		if _, err := RecommendationBody(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = RecommendationBody(body) }); allocs != 0 {
			t.Errorf("%s: refusing allocates %.0f times", name, allocs)
		}
	}
}

func TestJoinRoundTrip(t *testing.T) {
	j := Join{Addr: netip.MustParseAddrPort("10.1.2.3:9000")}
	b := AppendJoin(nil, j)
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TJoin || h.Src != NilNode {
		t.Fatalf("header %+v err %v", h, err)
	}
	got, err := ParseJoin(body)
	if err != nil || got != j {
		t.Errorf("got %+v err %v", got, err)
	}
	if _, err := ParseJoin(body[:4]); err == nil {
		t.Error("want error for short join")
	}
}

// TestJoinReplyRoundTrip: the join reply is retired, its type byte reserved
// under its name and category (the ledger's traffic table still names it). A
// join is answered by the view that lists the joiner, so its body is the
// 6-byte address alone.
func TestJoinReplyRoundTrip(t *testing.T) {
	if !TJoinReply.Valid() || TJoinReply.String() != "join-reply" || CategoryOf(TJoinReply) != CatMembership {
		t.Errorf("reserved type %d: valid=%v name=%v category=%v", TJoinReply, TJoinReply.Valid(), TJoinReply, CategoryOf(TJoinReply))
	}
	_, body, err := ParseHeader(AppendJoin(nil, Join{Addr: netip.MustParseAddrPort("10.1.2.3:9000")}))
	if err != nil || len(body) != 6 {
		t.Fatalf("join body %x err %v, want 6 bytes", body, err)
	}
	if _, err := ParseJoin(append(body, 0, 0, 0, 0)); err == nil {
		t.Error("a join with a trailing nonce was accepted")
	}
}

func TestViewRoundTrip(t *testing.T) {
	v := View{
		Epoch:   3,
		Version: 12,
		Members: []Member{
			{ID: 0, Addr: netip.MustParseAddrPort("192.168.0.1:4000")},
			{ID: 3, Addr: netip.MustParseAddrPort("10.0.0.2:4001")},
			{ID: 9, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{}), 0)},
		},
	}
	b := AppendView(nil, 2, v)
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TView {
		t.Fatalf("header %+v err %v", h, err)
	}
	got, err := ParseView(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %+v want %+v", got, v)
	}
	if _, err := ParseView(body[:len(body)-1]); err == nil {
		t.Error("want error for truncated view")
	}
	if _, err := ParseView(body[:2]); err == nil {
		t.Error("want error for short view")
	}
}

// TestViewChunkFraming: ParseViewChunk accepts exactly the framing a
// coordinator produces — ViewChunkCount(TotalMembers) pieces of
// ViewChunkMembers, the last carrying the remainder — and nothing a hostile
// sender could use to make a receiver buffer more pieces than its snapshot
// has, such as a 19-byte chunk claiming 65 535 of them.
func TestViewChunkFraming(t *testing.T) {
	members := func(n int) []Member {
		ms := make([]Member, n)
		for i := range ms {
			ms[i] = Member{ID: NodeID(i), Slot: uint16(i)}
		}
		return ms
	}
	chunk := func(total, slots, index, count, carried int) []byte {
		b := AppendViewChunk(nil, 1, ViewChunk{
			Stamp: ViewStamp{Epoch: 1, Version: 2}, TotalSlots: uint16(slots), TotalMembers: uint16(total),
			Index: uint16(index), Count: uint16(count), Members: members(carried),
		})
		return b[HeaderLen:]
	}
	for _, tc := range []struct {
		name                                string
		total, slots, index, count, carried int
		ok                                  bool
	}{
		{"empty view", 0, 0, 0, 1, 0, true},
		{"empty view in tombstones", 0, 5, 0, 1, 0, true},
		{"one full chunk", 64, 64, 0, 1, 64, true},
		{"first of two", 65, 70, 0, 2, 64, true},
		{"remainder", 65, 70, 1, 2, 1, true},
		{"largest view's last chunk", MaxSlots, MaxSlots, 1023, 1024, MaxSlots - 1023*64, true},
		{"hostile count", 0, 0, 0, 65535, 0, false},
		{"count one short", 129, 129, 0, 2, 64, false},
		{"count one over", 128, 128, 2, 3, 0, false},
		{"zero count", 0, 0, 0, 0, 0, false},
		{"index past count", 65, 70, 2, 2, 1, false},
		{"more members than slots", 3, 2, 0, 1, 3, false},
		{"short middle chunk", 129, 129, 1, 3, 63, false},
		{"long last chunk", 65, 70, 1, 2, 2, false},
		{"empty last chunk", 64, 64, 0, 1, 0, false},
	} {
		body := chunk(tc.total, tc.slots, tc.index, tc.count, tc.carried)
		vc, err := ParseViewChunk(body)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && (len(vc.Members) != tc.carried || int(vc.Index) != tc.index || int(vc.Count) != tc.count) {
			t.Errorf("%s: decoded %d members, chunk %d of %d", tc.name, len(vc.Members), vc.Index, vc.Count)
		}
	}
	if got := len(chunk(0, 0, 0, 65535, 0)) + HeaderLen; got != 19 {
		t.Errorf("hostile chunk is %d bytes, want the 19 of the finding", got)
	}
}

func TestLeaveHeartbeatRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		b    []byte
		want MsgType
	}{
		{AppendLeave(nil, 4), TLeave},
		{AppendHeartbeat(nil, 4), THeartbeat},
	} {
		h, body, err := ParseHeader(tc.b)
		if err != nil || h.Type != tc.want || h.Src != 4 {
			t.Errorf("header %+v err %v", h, err)
		}
		if len(body) != 0 {
			t.Errorf("%v: unexpected body", tc.want)
		}
	}
}

// Property: link-state rows of arbitrary content round-trip exactly.
func TestLinkStateQuick(t *testing.T) {
	f := func(view, seq uint32, lat []uint16, status []byte) bool {
		n := len(lat)
		if len(status) < n {
			n = len(status)
		}
		if n > 300 {
			n = 300
		}
		ls := LinkState{ViewVersion: view, Seq: seq, Entries: make([]LinkEntry, n)}
		for i := 0; i < n; i++ {
			ls.Entries[i] = LinkEntry{Latency: lat[i], Status: status[i]}
		}
		b := AppendLinkState(nil, 1, ls)
		_, body, err := ParseHeader(b)
		if err != nil {
			return false
		}
		got, err := ParseLinkState(body)
		return err == nil && reflect.DeepEqual(got, ls)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: recommendations of arbitrary content round-trip exactly.
func TestRecommendationQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(view uint32, k uint8) bool {
		r := Recommendation{ViewVersion: view, Entries: make([]RecEntry, int(k))}
		for i := range r.Entries {
			r.Entries[i] = RecEntry{
				Dst:  NodeID(rng.Intn(1 << 16)),
				Hop:  NodeID(rng.Intn(1 << 16)),
				Cost: Cost(rng.Intn(1 << 16)),
			}
		}
		b := AppendRecommendation(nil, 1, r)
		_, body, err := ParseHeader(b)
		if err != nil {
			return false
		}
		got, err := ParseRecommendation(body)
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Fuzz-ish robustness: random bytes never panic the parsers.
func TestParsersNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		h, body, err := ParseHeader(b)
		if err != nil {
			continue
		}
		switch h.Type {
		case TProbe:
			ParseProbe(body)
		case TProbeReply:
			ParseProbeReply(body)
		case TLinkState:
			ParseLinkState(body)
		case TRecommendation:
			ParseRecommendation(body)
		case TJoin:
			ParseJoin(body)
		case TView:
			ParseView(body)
		case TViewChunk:
			ParseViewChunk(body)
		case TGossipDelta:
			ParseGossipDelta(body)
		case THeartbeatAck, TPreVote, TViewPull:
			ParseStamped(body)
		case TViewPullReply:
			ParseViewPullReply(body)
		}
	}
}

func TestViewDeltaRoundTrip(t *testing.T) {
	d := ViewDelta{
		Epoch:       2,
		BaseVersion: 41,
		Version:     42,
		Adds: []Member{
			{ID: 7, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 7}), 7007)},
			{ID: 9, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 9}), 7009)},
		},
		Removes: []NodeID{3, 5},
	}
	b := AppendViewDelta(nil, 0xFFFE, d)
	if len(b) != ViewDeltaSize(2, 2) {
		t.Errorf("encoded %d bytes, ViewDeltaSize says %d", len(b), ViewDeltaSize(2, 2))
	}
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TViewDelta || h.Src != 0xFFFE {
		t.Fatalf("header = %+v err=%v", h, err)
	}
	got, err := ParseViewDelta(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 || got.BaseVersion != 41 || got.Version != 42 {
		t.Errorf("versions = e%d %d->%d", got.Epoch, got.BaseVersion, got.Version)
	}
	if len(got.Adds) != 2 || got.Adds[0] != d.Adds[0] || got.Adds[1] != d.Adds[1] {
		t.Errorf("adds = %+v", got.Adds)
	}
	if len(got.Removes) != 2 || got.Removes[0] != 3 || got.Removes[1] != 5 {
		t.Errorf("removes = %+v", got.Removes)
	}
}

func TestViewDeltaEmpty(t *testing.T) {
	b := AppendViewDelta(nil, 1, ViewDelta{BaseVersion: 1, Version: 2})
	_, body, _ := ParseHeader(b)
	got, err := ParseViewDelta(body)
	if err != nil || len(got.Adds) != 0 || len(got.Removes) != 0 {
		t.Errorf("got %+v err=%v", got, err)
	}
}

func TestViewDeltaParseErrors(t *testing.T) {
	if _, err := ParseViewDelta([]byte{1, 2, 3}); err == nil {
		t.Error("short body accepted")
	}
	// Claims one add but carries no member bytes.
	b := AppendViewDelta(nil, 1, ViewDelta{BaseVersion: 1, Version: 2})
	_, body, _ := ParseHeader(b)
	bad := append([]byte(nil), body...)
	bad[12] = 0
	bad[13] = 1
	if _, err := ParseViewDelta(bad); err == nil {
		t.Error("inconsistent length accepted")
	}
}

// checkStampedRoundTrip: the three stamp-only messages share one codec, and
// the header's type says which message it is.
func checkStampedRoundTrip(t *testing.T, mt MsgType, src NodeID, s ViewStamp) {
	t.Helper()
	b := AppendStamped(nil, mt, src, s)
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != mt || h.Src != src {
		t.Fatalf("header = %+v err=%v", h, err)
	}
	got, err := ParseStamped(body)
	if err != nil || got != s {
		t.Errorf("got %+v err=%v", got, err)
	}
	if _, err := ParseStamped(body[:7]); err == nil {
		t.Error("short body accepted")
	}
	if _, err := ParseStamped(append(body, 0)); err == nil {
		t.Error("long body accepted")
	}
}

func TestHeartbeatAckRoundTrip(t *testing.T) {
	checkStampedRoundTrip(t, THeartbeatAck, 0xFFFE, ViewStamp{Epoch: 5, Version: 991})
}

func TestPreVoteRoundTrip(t *testing.T) {
	checkStampedRoundTrip(t, TPreVote, 7, ViewStamp{Epoch: 3, Version: 21})
}

func TestViewPullRoundTrip(t *testing.T) {
	checkStampedRoundTrip(t, TViewPull, 9, ViewStamp{Epoch: 2, Version: 31})
}

func TestCoordBeaconRoundTrip(t *testing.T) {
	for _, cb := range []CoordBeacon{
		{Stamp: ViewStamp{Epoch: 2, Version: 9000}, NextID: 512, Primary: true},
		{Stamp: ViewStamp{Epoch: 1, Version: 3}, NextID: 0, Primary: false},
	} {
		b := AppendCoordBeacon(nil, 0xFFFD, cb)
		h, body, err := ParseHeader(b)
		if err != nil || h.Type != TCoordBeacon || h.Src != 0xFFFD {
			t.Fatalf("header = %+v err=%v", h, err)
		}
		got, err := ParseCoordBeacon(body)
		if err != nil || got != cb {
			t.Errorf("got %+v want %+v err=%v", got, cb, err)
		}
		if _, err := ParseCoordBeacon(body[:5]); err == nil {
			t.Error("short body accepted")
		}
	}
}

func TestViewStampAfter(t *testing.T) {
	for _, tc := range []struct {
		a, b ViewStamp
		want bool
	}{
		{ViewStamp{1, 5}, ViewStamp{1, 4}, true},
		{ViewStamp{1, 4}, ViewStamp{1, 4}, false},
		{ViewStamp{2, 0}, ViewStamp{1, 9999}, true},  // epoch dominates version
		{ViewStamp{1, 9999}, ViewStamp{2, 0}, false}, // deposed reign never wins
	} {
		if got := tc.a.After(tc.b); got != tc.want {
			t.Errorf("%+v.After(%+v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestGossipDeltaRoundTrip(t *testing.T) {
	g := GossipDelta{
		Hops: 3,
		Delta: ViewDelta{
			Epoch: 1, BaseVersion: 8, Version: 9,
			Adds:    []Member{{ID: 4, Addr: netip.MustParseAddrPort("10.0.0.4:4004")}},
			Removes: []NodeID{11},
		},
	}
	b := AppendGossipDelta(nil, 7, g)
	if len(b) != GossipDeltaSize(1, 1) {
		t.Errorf("encoded %d bytes, GossipDeltaSize says %d", len(b), GossipDeltaSize(1, 1))
	}
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TGossipDelta || h.Src != 7 {
		t.Fatalf("header = %+v err=%v", h, err)
	}
	got, err := ParseGossipDelta(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hops != 3 || !reflect.DeepEqual(got.Delta, g.Delta) {
		t.Errorf("got %+v want %+v", got, g)
	}
	if _, err := ParseGossipDelta(nil); err == nil {
		t.Error("empty body accepted")
	}
	if _, err := ParseGossipDelta(body[:5]); err == nil {
		t.Error("short body accepted")
	}
}

func TestViewPullReplyRoundTrip(t *testing.T) {
	r := ViewPullReply{
		Stamp: ViewStamp{Epoch: 2, Version: 33},
		Deltas: []ViewDelta{
			{Epoch: 2, BaseVersion: 31, Version: 32,
				Adds: []Member{{ID: 5, Addr: netip.MustParseAddrPort("10.0.0.5:4005")}}},
			{Epoch: 2, BaseVersion: 32, Version: 33, Removes: []NodeID{3}},
		},
	}
	b := AppendViewPullReply(nil, 6, r)
	h, body, err := ParseHeader(b)
	if err != nil || h.Type != TViewPullReply || h.Src != 6 {
		t.Fatalf("header = %+v err=%v", h, err)
	}
	got, err := ParseViewPullReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stamp != r.Stamp || len(got.Deltas) != 2 {
		t.Fatalf("got %+v want %+v", got, r)
	}
	// The parser materialises empty Adds/Removes slices, so compare by
	// re-encoding: decode→encode must reproduce the message byte for byte.
	if out := AppendViewPullReply(nil, 6, got); string(out) != string(b) {
		t.Errorf("re-encode mismatch:\n in:  %x\n out: %x", b, out)
	}
	if got := ViewPullReplySize(r.Deltas); got != len(b) {
		t.Errorf("ViewPullReplySize = %d, encoded %d bytes", got, len(b))
	}
	// An empty reply decodes, though no responder sends one.
	empty := ViewPullReply{Stamp: ViewStamp{Epoch: 1, Version: 4}}
	eb := AppendViewPullReply(nil, 6, empty)
	if got := ViewPullReplySize(nil); got != len(eb) {
		t.Errorf("ViewPullReplySize(nil) = %d, encoded %d bytes", got, len(eb))
	}
	_, ebody, _ := ParseHeader(eb)
	gotEmpty, err := ParseViewPullReply(ebody)
	if err != nil || gotEmpty.Stamp != empty.Stamp || len(gotEmpty.Deltas) != 0 {
		t.Errorf("empty reply: got %+v err=%v", gotEmpty, err)
	}
	// Framing violations are rejected.
	if _, err := ParseViewPullReply(body[:len(body)-1]); err == nil {
		t.Error("truncated deltas accepted")
	}
	if _, err := ParseViewPullReply(append(append([]byte{}, body...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := append([]byte{}, ebody...)
	bad[8] = MaxPullDeltas + 1
	if _, err := ParseViewPullReply(bad); err == nil {
		t.Error("over-limit delta count accepted")
	}
}

func TestAppendViewPullReplyPanicsOverLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for > MaxPullDeltas deltas")
		}
	}()
	AppendViewPullReply(nil, 1, ViewPullReply{Deltas: make([]ViewDelta, MaxPullDeltas+1)})
}

// ParseLinkStateAsym decodes a LinkStateAsym body into a message of its own.
func ParseLinkStateAsym(body []byte) (LinkStateAsym, error) {
	viewVersion, seq, entries, err := LinkStateBody(TLinkStateAsym, body)
	if err != nil {
		return LinkStateAsym{}, err
	}
	ls := LinkStateAsym{ViewVersion: viewVersion, Seq: seq, Entries: make([]AsymEntry, len(entries)/AsymEntryLen)}
	for i := range ls.Entries {
		ls.Entries[i] = AsymEntryAt(entries, i)
	}
	return ls, nil
}
