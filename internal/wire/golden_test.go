package wire

import (
	"encoding/hex"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// TestEncodingsGolden pins the bytes every encoder writes for one fixed value
// (both values of a flag, where a message has one) and the name, validity and
// category of every type byte. A round-trip test cannot see a layout change
// that the encoder and the decoder make together; this one can, and a change
// to it is a wire change.
func TestEncodingsGolden(t *testing.T) {
	const src NodeID = 0x0102
	stamp := ViewStamp{Epoch: 0x01020304, Version: 0x05060708}
	members := []Member{
		{ID: 7, Slot: 9, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 7}), 4407)},
		{ID: 0x0A0B, Slot: 0x0C0D},
	}
	delta := ViewDelta{Epoch: 3, BaseVersion: 41, Version: 42, Adds: members[:1], Removes: []NodeID{5, 0x0E0F}}
	rec := NewRecommendation(nil, src, 77, 2)
	PutRecEntry(rec, 0, RecEntry{Dst: 3, Hop: 4, Cost: 90})
	PutRecEntry(rec, 1, RecEntry{Dst: 5, Hop: NilNode, Cost: InfCost})
	run := NewRecommendationRun(nil, src, 77, 78, 10, 2, 1) // bits 1 and 9 of a 10-long run, one extra
	MarkRecRun(run, 1)
	MarkRecRun(run, 9)
	PutRecEntry(run, 0, RecEntry{Dst: 3, Hop: 4, Cost: 90})
	PutRecEntry(run, 1, RecEntry{Dst: 5, Hop: NilNode, Cost: InfCost})
	PutRecEntry(run, 2, RecEntry{Dst: 6, Hop: 7, Cost: 8})
	long := NewRecommendationRun(nil, src, 77, 78, 40, 2, 0) // bits 1 and 39 of a 40-long run
	MarkRecRun(long, 1)
	MarkRecRun(long, 39)
	PutRecEntry(long, 0, RecEntry{Hop: 4, Cost: 90})
	PutRecEntry(long, 1, RecEntry{Hop: NilNode, Cost: InfCost})
	runDelta := deltaOf(src, 77, 78, 10, []int{1, 9}, []int{9}, RecEntry{Hop: NilNode, Cost: InfCost}, RecEntry{Dst: 6, Hop: 7, Cost: 8})
	longDelta := deltaOf(src, 77, 78, 40, []int{1, 39}, []int{39}, RecEntry{Hop: NilNode, Cost: InfCost})
	rowDelta := AppendLinkStateDelta(nil, src, LinkStateDelta{ViewVersion: 77, Seq: 78, Form: TLinkState, Members: 10,
		Changed: []int{1}, Entries: []byte{0x01, 0xc2, 0x0c}})
	withRow := make([]byte, len(runDelta)+RideSize(rowDelta)) // the row rides behind the delta
	copy(withRow, runDelta)
	PutRide(withRow[len(runDelta):], rowDelta)
	fullRow := AppendLinkState(nil, src, LinkState{ViewVersion: 77, Seq: 78, Entries: []LinkEntry{{Latency: 450, Status: 12}, {Latency: 0xFFFF, Status: StatusDead}}})
	runWithRow := make([]byte, len(run)+RideSize(fullRow)) // a full row rides behind the run form
	copy(runWithRow, run)
	PutRide(runWithRow[len(run):], fullRow)
	packed := PackLinkState(AppendLinkState(nil, src, LinkState{ViewVersion: 8, Seq: 9, Entries: []LinkEntry{
		{Latency: 1, Status: 2}, {Latency: 3, Status: 4}, {Latency: 5, Status: 6},
	}}), []int{1})

	for _, tc := range []struct {
		name string
		msg  []byte
		want string
	}{
		{"header", AppendHeader(nil, TData, src), "0f0102"},
		{"probe", AppendProbe(nil, src, Probe{Seq: 0xDEADBEEF, Echo: -2}), "010102deadbeeffffffffffffffffe"},
		{"probe-reply", AppendProbeReply(nil, src, ProbeReply{Seq: 7, Echo: 0x0102030405060708, RecvAt: 9}),
			"0201020000000701020304050607080000000000000009"},
		{"link-state", AppendLinkState(nil, src, LinkState{ViewVersion: 8, Seq: 9, Entries: []LinkEntry{
			{Latency: 450, Status: 12}, {Latency: 0xFFFF, Status: StatusDead},
		}}), "03010200000008000000090002" + "01c20c" + "ffffff"},
		{"link-state-packed", packed, "03010200000008000000090002000102000506"},
		{"recommendation", AppendRecommendation(nil, src, Recommendation{ViewVersion: 77, Entries: []RecEntry{
			{Dst: 3, Hop: 4, Cost: 90}, {Dst: 5, Hop: NilNode, Cost: InfCost},
		}}), "0401020000004d000200030004005a0005ffffffff"},
		{"new-recommendation", rec, "0401020000004d000200030004005a0005ffffffff"},
		{"recommendation-run", run, "0401020000004d800a0000004e0001" + "0202" + "0004005a" + "ffffffff" + "000600070008"},
		{"recommendation-delta", runDelta, // run's, bit 9 changed
			"0401020000004dc00a0000004e0001" + "0202" + "0001" + "0002" + "ffffffff" + "000600070008"},
		{"recommendation-delta-indexed", longDelta, // long's, bit 39 changed
			"0401020000004dc0280000004e0000" + "0200000080" + "0001" + "0027" + "ffffffff"},
		{"recommendation-delta-with-row", withRow, // runDelta's, then rowDelta's type byte, changed count, marks and entries
			"0401020000004dc00a0000004e0001" + "0202" + "0001" + "0002" + "ffffffff" + "000600070008" +
				"05" + "0001" + "0200" + "01c20c"},
		{"recommendation-run-with-row", runWithRow, // run's, then fullRow's type byte and entries
			"0401020000004d800a0000004e0001" + "0202" + "0004005a" + "ffffffff" + "000600070008" + "03" + "01c20c" + "ffffff"},
		{"recommendation-refusal", AppendRecommendation(nil, src, Recommendation{ViewVersion: 77}), "0401020000004d0000"},
		{"link-state-asym", AppendLinkStateAsym(nil, src, LinkStateAsym{ViewVersion: 8, Seq: 9, Entries: []AsymEntry{
			{Out: 20, In: 35, Status: 4},
		}}), "0601020000000800000009000100140023" + "04"},
		{"link-state-delta", AppendLinkStateDelta(nil, src, LinkStateDelta{ViewVersion: 8, Seq: 9, Form: TLinkState, Members: 10,
			Changed: []int{1, 9}, Entries: []byte{0x01, 0xc2, 0x0c, 0xff, 0xff, 0xff}}),
			"0501020000000800000009" + "03000a0002" + "0202" + "01c20c" + "ffffff"},
		{"link-state-delta-indexed", AppendLinkStateDelta(nil, src, LinkStateDelta{ViewVersion: 8, Seq: 9, Form: TLinkState, Members: 40,
			Changed: []int{1, 39}, Entries: []byte{0x01, 0xc2, 0x0c, 0xff, 0xff, 0xff}}),
			"0501020000000800000009" + "0300280002" + "00010027" + "01c20c" + "ffffff"},
		{"link-state-delta-based", AppendLinkStateDelta(nil, src, LinkStateDelta{ViewVersion: 8, Seq: 9, Base: 7, Form: TLinkState, Members: 10,
			Changed: []int{1, 9}, Entries: []byte{0x01, 0xc2, 0x0c, 0xff, 0xff, 0xff}}),
			"0501020000000800000009" + "83000a0002" + "00000007" + "0202" + "01c20c" + "ffffff"},
		{"link-state-ack", AppendLinkStateAck(nil, src, 0x01020304), "07010201020304"},
		{"link-state-refusal", AppendLinkStateRefusal(nil, src, 7), "07010280000007"},
		{"link-state-refusal-holding-none", AppendLinkStateRefusal(nil, src, 0), "07010280000000"},
		{"join", AppendJoin(nil, Join{Addr: members[0].Addr}), "08ffff0a0000071137"},
		{"leave", AppendLeave(nil, src), "0a0102"},
		{"heartbeat", AppendHeartbeat(nil, src), "0b0102"},
		{"view", AppendView(nil, src, View{Epoch: stamp.Epoch, Version: stamp.Version, Slots: 0x1011, Members: members}),
			"0c0102010203040506070800021011" + "000700090a0000071137" + "0a0b0c0d000000000000"},
		{"view-delta", AppendViewDelta(nil, src, delta),
			"0d010200000003000000290000002a00010002" + "000700090a0000071137" + "00050e0f"},
		{"heartbeat-ack", AppendStamped(nil, THeartbeatAck, src, stamp), "1001020102030405060708"},
		{"coord-beacon", AppendCoordBeacon(nil, src, CoordBeacon{Stamp: stamp, NextID: 0x0A0B, Primary: true}),
			"11010201020304050607080a0b01"},
		{"coord-beacon-standby", AppendCoordBeacon(nil, src, CoordBeacon{Stamp: stamp, NextID: 0x0A0B}),
			"11010201020304050607080a0b00"},
		{"pre-vote", AppendStamped(nil, TPreVote, src, stamp), "1201020102030405060708"},
		{"pre-vote-reply", AppendPreVoteReply(nil, src, PreVoteReply{Stamp: stamp, PrimaryAlive: true}),
			"130102010203040506070801"},
		{"pre-vote-reply-silent", AppendPreVoteReply(nil, src, PreVoteReply{Stamp: stamp}),
			"130102010203040506070800"},
		{"gossip-delta", AppendGossipDelta(nil, src, GossipDelta{Hops: 2, Delta: delta}),
			"1401020200000003000000290000002a00010002" + "000700090a0000071137" + "00050e0f"},
		{"view-pull", AppendStamped(nil, TViewPull, src, stamp), "1501020102030405060708"},
		{"view-pull-reply", AppendViewPullReply(nil, src, ViewPullReply{Stamp: stamp, Deltas: []ViewDelta{delta}}),
			"160102010203040506070801" + "001e" + "00000003000000290000002a00010002" + "000700090a0000071137" + "00050e0f"},
		{"view-chunk", AppendViewChunk(nil, src, ViewChunk{Stamp: stamp, TotalSlots: 0x1011, TotalMembers: 2, Index: 0, Count: 1, Members: members}),
			"17010201020304050607081011000200000001" + "000700090a0000071137" + "0a0b0c0d000000000000"},
		{"data", AppendData(nil, src, Data{Origin: 3, Dst: 6, TTL: DefaultDataTTL, Payload: []byte("ping")}),
			"0f0102000300060870696e67"},
	} {
		if got := hex.EncodeToString(tc.msg); got != tc.want {
			t.Errorf("%s: encoded\n %s\nwant\n %s", tc.name, got, tc.want)
		}
	}

	var types strings.Builder
	for b := 0; b <= int(maxMsgType)+1; b++ {
		mt := MsgType(b)
		fmt.Fprintf(&types, "%d %v %v %v\n", b, mt, mt.Valid(), CategoryOf(mt))
	}
	const wantTypes = `0 msgtype(0) false membership
1 probe true probing
2 probe-reply true probing
3 link-state true routing
4 recommendation true routing
5 link-state-delta true routing
6 link-state-asym true routing
7 link-state-ack true routing
8 join true membership
9 join-reply true membership
10 leave true membership
11 heartbeat true membership
12 view true membership
13 view-delta true membership
14 view-request true membership
15 data true data
16 heartbeat-ack true membership
17 coord-beacon true membership
18 pre-vote true membership
19 pre-vote-reply true membership
20 gossip-delta true membership
21 view-pull true membership
22 view-pull-reply true membership
23 view-chunk true membership
24 msgtype(24) false membership
25 msgtype(25) false membership
`
	if got := types.String(); got != wantTypes {
		t.Errorf("type table:\n%s\nwant\n%s", got, wantTypes)
	}
}
