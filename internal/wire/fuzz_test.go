package wire_test

// Byte-driven round-trip fuzzing of every wire codec: any body the parser
// accepts must re-encode byte-identically. A decoder that accepts bytes it
// cannot reproduce is lossy — two nodes could hold different in-memory views
// of the same datagram — so asymmetry is treated as a bug, not a curiosity.
// (FuzzCoordBeaconRoundTrip caught exactly that: ParseCoordBeacon accepted
// any nonzero primary-flag byte but re-encoded it as 1.)
//
// Run a single target with, e.g.:
//
//	go test ./internal/wire -run '^$' -fuzz FuzzViewRoundTrip -fuzztime 30s

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"

	"allpairs/internal/wire"
)

// roundTrip parses body, and — if the parser accepts it — re-encodes the
// value and requires the rebuilt message to reproduce the input exactly,
// header included.
func roundTrip[T any](t *testing.T, src uint16, body []byte,
	parse func([]byte) (T, error),
	appendFn func([]byte, wire.NodeID, T) []byte) {
	t.Helper()
	v, err := parse(body)
	if err != nil {
		return // rejecting malformed input is fine; accepting it lossily is not
	}
	out := appendFn(nil, wire.NodeID(src), v)
	h, got, err := wire.ParseHeader(out)
	if err != nil {
		t.Fatalf("re-encoded message has bad header: %v", err)
	}
	if h.Src != wire.NodeID(src) {
		t.Fatalf("src mangled: sent %d, got %d", src, h.Src)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("decode/encode asymmetry:\n in:  %x\n out: %x", body, got)
	}
}

// body strips the common header from a freshly encoded message, turning the
// Append* output into a seed for the corresponding body parser.
func body(msg []byte) []byte { return msg[wire.HeaderLen:] }

func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(wire.AppendHeartbeat(nil, 7))
	f.Add(wire.AppendProbe(nil, 1, wire.Probe{Seq: 42, Echo: -1}))
	f.Add([]byte{0xFF, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, rest, err := wire.ParseHeader(raw)
		if err != nil {
			return
		}
		if !h.Type.Valid() {
			t.Fatalf("ParseHeader accepted invalid type %d", h.Type)
		}
		out := wire.AppendHeader(nil, h.Type, h.Src)
		out = append(out, rest...)
		if !bytes.Equal(out, raw) {
			t.Fatalf("header asymmetry:\n in:  %x\n out: %x", raw, out)
		}
	})
}

func FuzzProbeRoundTrip(f *testing.F) {
	f.Add(uint16(1), body(wire.AppendProbe(nil, 1, wire.Probe{Seq: 7, Echo: 123456789})))
	f.Add(uint16(9), []byte{})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseProbe, wire.AppendProbe)
	})
}

func FuzzProbeReplyRoundTrip(f *testing.F) {
	f.Add(uint16(2), body(wire.AppendProbeReply(nil, 2, wire.ProbeReply{Seq: 7, Echo: -42, RecvAt: 99})))
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseProbeReply, wire.AppendProbeReply)
	})
}

func FuzzLinkStateRoundTrip(f *testing.F) {
	f.Add(uint16(3), body(wire.AppendLinkState(nil, 3, wire.LinkState{
		ViewVersion: 2, Seq: 9,
		Entries: []wire.LinkEntry{{Latency: 30, Status: 0}, {Latency: 0, Status: wire.StatusDead}},
	})))
	f.Add(uint16(0), []byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseLinkState, wire.AppendLinkState)
	})
}

func FuzzLinkStateAsymRoundTrip(f *testing.F) {
	f.Add(uint16(5), body(wire.AppendLinkStateAsym(nil, 5, wire.LinkStateAsym{
		ViewVersion: 3, Seq: 1,
		Entries: []wire.AsymEntry{{Out: 20, In: 35, Status: 4}},
	})))
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseLinkStateAsym, wire.AppendLinkStateAsym)
	})
}

func FuzzLinkStateAckRoundTrip(f *testing.F) {
	f.Add(uint16(6), body(wire.AppendLinkStateAck(nil, 6, 77)))
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseLinkStateAck, wire.AppendLinkStateAck)
	})
}

// FuzzLinkStateDeltaDecode: a delta body LinkStateDeltaBody accepts — any
// bytes at all, hostile ones included — names exactly its changed count of
// members, strictly ascending and all below its member count, carries an
// entry for each, has a row before its seq, and re-encodes byte for byte.
// The seeds cover both forms of the marks: bitmap and index.
func FuzzLinkStateDeltaDecode(f *testing.F) {
	f.Add(uint16(4), body(wire.AppendLinkStateDelta(nil, 4, wire.LinkStateDelta{
		ViewVersion: 3, Seq: 9, Form: wire.TLinkState, Members: 12,
		Changed: []int{0, 5, 11}, Entries: []byte{0, 30, 0, 1, 2, 3, 0xFF, 0xFF, 0xFF},
	})))
	f.Add(uint16(5), body(wire.AppendLinkStateDelta(nil, 5, wire.LinkStateDelta{
		ViewVersion: 3, Seq: 2, Form: wire.TLinkStateAsym, Members: 8,
		Changed: []int{7}, Entries: []byte{0, 20, 0, 35, 4},
	})))
	f.Add(uint16(6), []byte{0, 0, 0, 1, 0, 0, 0, 2, 3, 0, 9, 0, 1, 0x80, 0x01, 0, 1, 2})
	// Index form: two of 40 members, one of 324, none of 17.
	f.Add(uint16(7), body(wire.AppendLinkStateDelta(nil, 7, wire.LinkStateDelta{
		ViewVersion: 3, Seq: 4, Form: wire.TLinkState, Members: 40,
		Changed: []int{3, 39}, Entries: []byte{0, 30, 0, 0xFF, 0xFF, 0xFF},
	})))
	f.Add(uint16(8), body(wire.AppendLinkStateDelta(nil, 8, wire.LinkStateDelta{
		ViewVersion: 3, Seq: 5, Form: wire.TLinkStateAsym, Members: 324,
		Changed: []int{300}, Entries: []byte{0, 20, 0, 35, 4},
	})))
	f.Add(uint16(9), []byte{0, 0, 0, 1, 0, 0, 0, 2, 3, 0, 17, 0, 0})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		if d, err := wire.LinkStateDeltaBody(b); err == nil {
			if d.Seq == 0 || len(d.Entries()) != d.Changed*d.EntryLen() {
				t.Fatalf("accepted %+v with %d entry bytes", d, len(d.Entries()))
			}
			for k, i := 0, -1; k < d.Changed; k++ {
				next := d.Member(k, i)
				if next <= i || next >= d.Members {
					t.Fatalf("accepted %+v: changed entry %d is member %d, after %d", d, k, next, i)
				}
				i = next
			}
		}
		roundTrip(t, src, b, wire.ParseLinkStateDelta, wire.AppendLinkStateDelta)
	})
}

// withRow returns msg, a whole recommendation, with a 3-entry row from the
// same sender riding behind it (wire.PutRide): a body no recommendation
// target accepts, and SplitRecommendation only behind a run form.
func withRow(msg []byte) []byte {
	h, b, _ := wire.ParseHeader(msg)
	row := wire.AppendLinkState(nil, h.Src, wire.LinkState{ViewVersion: binary.BigEndian.Uint32(b), Seq: 3, Entries: make([]wire.LinkEntry, 3)})
	out := make([]byte, len(msg)+wire.RideSize(row))
	copy(out, msg)
	wire.PutRide(out[len(msg):], row)
	return out
}

func FuzzRecommendationRoundTrip(f *testing.F) {
	msg := wire.AppendRecommendation(nil, 7, wire.Recommendation{
		ViewVersion: 4,
		Entries: []wire.RecEntry{
			{Dst: 2, Hop: 2, Cost: 30},
			{Dst: 5, Hop: wire.NilNode, Cost: wire.InfCost},
		},
	})
	f.Add(uint16(7), body(msg))
	f.Add(uint16(7), body(withRow(msg)))
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseRecommendation, wire.AppendRecommendation)
	})
}

// FuzzRecommendationRunRoundTrip: the run form, rebuilt from what
// RecommendationBody reads of it — its bitmap bit by bit, its entries one by
// one — is the body it read. The explicit form is the target above's.
func FuzzRecommendationRunRoundTrip(f *testing.F) {
	msg := wire.NewRecommendationRun(nil, 7, 4, 5, 10, 2, 1)
	wire.MarkRecRun(msg, 0)
	wire.MarkRecRun(msg, 9)
	wire.PutRecEntry(msg, 0, wire.RecEntry{Hop: 2, Cost: 30})
	wire.PutRecEntry(msg, 1, wire.RecEntry{Hop: wire.NilNode, Cost: wire.InfCost})
	wire.PutRecEntry(msg, 2, wire.RecEntry{Dst: 12, Hop: 3, Cost: 40})
	f.Add(uint16(7), body(msg))
	f.Add(uint16(7), body(withRow(msg)))
	parse := func(b []byte) (wire.RecBody, error) {
		r, err := wire.RecommendationBody(b)
		if err == nil && (!r.ByRun || r.Delta) {
			err = wire.ErrBadType
		}
		return r, err
	}
	rebuild := func(b []byte, src wire.NodeID, r wire.RecBody) []byte {
		msg := wire.NewRecommendationRun(nil, src, r.ViewVersion, r.Seq, r.Run, r.Named, r.Entries-r.Named)
		for p := r.NextRun(0); p < r.Run; p = r.NextRun(p + 1) {
			wire.MarkRecRun(msg, p)
		}
		for i := range r.Entries {
			wire.PutRecEntry(msg, i, r.Entry(i))
		}
		return append(b, msg...)
	}
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, parse, rebuild)
	})
}

// FuzzRecommendationDeltaRoundTrip: a delta-form body RecommendationBody
// accepts — any bytes at all, hostile ones included — marks exactly its
// changed count of run positions, strictly ascending and each named by its
// bitmap, has a message before its Seq, and is the body rebuilt from what was
// read of it: bitmap, marks and entries one by one. The seeds cover both
// forms of the marks.
func FuzzRecommendationDeltaRoundTrip(f *testing.F) {
	delta := func(src wire.NodeID, seq uint32, run int, named, changed []int, entries ...wire.RecEntry) []byte {
		msg := wire.NewRecommendationDelta(nil, src, 4, seq, run, len(changed), len(entries)-len(changed))
		for _, p := range named {
			wire.MarkRecRun(msg, p)
		}
		for k, p := range changed {
			wire.MarkRecChanged(msg, k, p)
		}
		for i, e := range entries {
			wire.PutRecEntry(msg, i, e)
		}
		return msg
	}
	explicit := wire.RecEntry{Dst: 12, Hop: 3, Cost: 40}
	f.Add(uint16(7), body(delta(7, 5, 10, []int{0, 9}, []int{0, 9}, wire.RecEntry{Hop: 2, Cost: 30}, wire.RecEntry{Hop: wire.NilNode, Cost: wire.InfCost}, explicit)))
	f.Add(uint16(7), body(delta(7, 5, 10, []int{0, 9}, nil, explicit)))
	f.Add(uint16(8), body(delta(8, 9, 40, []int{1, 17, 39}, []int{17, 39}, wire.RecEntry{Hop: 17, Cost: 1}, wire.RecEntry{Hop: 39, Cost: 2})))
	f.Add(uint16(7), body(withRow(delta(7, 5, 10, []int{0, 9}, nil, explicit))))
	parse := func(b []byte) (wire.RecBody, error) {
		r, err := wire.RecommendationBody(b)
		if err == nil && !r.Delta {
			err = wire.ErrBadType
		}
		return r, err
	}
	rebuild := func(b []byte, src wire.NodeID, r wire.RecBody) []byte {
		msg := wire.NewRecommendationDelta(nil, src, r.ViewVersion, r.Seq, r.Run, r.Carried, r.Entries-r.Carried)
		for p := r.NextRun(0); p < r.Run; p = r.NextRun(p + 1) {
			wire.MarkRecRun(msg, p)
		}
		for k, p := 0, -1; k < r.Carried; k++ {
			p = r.Position(k, p)
			wire.MarkRecChanged(msg, k, p)
		}
		for i := range r.Entries {
			wire.PutRecEntry(msg, i, r.Entry(i))
		}
		return append(b, msg...)
	}
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		if r, err := parse(b); err == nil {
			if r.Seq == 0 || r.Carried > r.Named {
				t.Fatalf("accepted %+v", r)
			}
			for k, p := 0, -1; k < r.Carried; k++ {
				next := r.Position(k, p)
				if next <= p || next >= r.Run || r.NextRun(next) != next {
					t.Fatalf("accepted %+v: changed entry %d at position %d, after %d", r, k, next, p)
				}
				p = next
			}
		}
		roundTrip(t, src, b, parse, rebuild)
	})
}

// FuzzSplitRecommendationRoundTrip: a body SplitRecommendation accepts, for
// either row form, is a recommendation RecommendationBody accepts and, after
// a run form, a row of that form or a delta of it, framed as LinkStateBody
// or LinkStateDeltaBody checks, at the recommendation's view version; and the
// recommendation with the row riding behind it (PutRide) is the body. The
// seeds put a row and a delta behind each of the three forms.
func FuzzSplitRecommendationRoundTrip(f *testing.F) {
	explicit := wire.AppendRecommendation(nil, 7, wire.Recommendation{ViewVersion: 4, Entries: []wire.RecEntry{{Dst: 2, Hop: 2, Cost: 30}}})
	run := wire.NewRecommendationRun(nil, 7, 4, 5, 10, 1, 0)
	wire.MarkRecRun(run, 3)
	wire.PutRecEntry(run, 0, wire.RecEntry{Hop: 2, Cost: 30})
	delta := wire.NewRecommendationDelta(nil, 7, 4, 5, 10, 1, 0)
	wire.MarkRecRun(delta, 3)
	wire.MarkRecChanged(delta, 0, 3)
	wire.PutRecEntry(delta, 0, wire.RecEntry{Hop: 2, Cost: 30})
	rowDelta := wire.NewLinkStateDelta(7, 4, 3, wire.TLinkState, 3, 1)
	wire.PutDeltaEntry(rowDelta, 1, 0, []byte{0, 9, 0})
	for _, msg := range [][]byte{explicit, run, delta} {
		f.Add(false, body(msg))
		f.Add(false, body(withRow(msg)))
		withDelta := make([]byte, len(msg)+wire.RideSize(rowDelta))
		copy(withDelta, msg)
		wire.PutRide(withDelta[len(msg):], rowDelta)
		f.Add(false, body(withDelta))
		f.Add(true, body(withDelta))
	}
	f.Fuzz(func(t *testing.T, asym bool, b []byte) {
		form := wire.TLinkState
		if asym {
			form = wire.TLinkStateAsym
		}
		rec, rowType, row, err := wire.SplitRecommendation(b, form)
		if err != nil {
			return
		}
		r, err := wire.RecommendationBody(rec)
		if err != nil {
			t.Fatalf("split off a recommendation RecommendationBody refuses: %v", err)
		}
		if row == nil {
			if !bytes.Equal(rec, b) {
				t.Fatalf("split off nothing, but the recommendation is %d of %d bytes", len(rec), len(b))
			}
			return
		}
		version := uint32(0)
		switch rowType {
		case form:
			version, _, _, err = wire.LinkStateBody(form, row)
		case wire.TLinkStateDelta:
			var d wire.DeltaBody
			d, err = wire.LinkStateDeltaBody(row)
			if err == nil && d.Form != form {
				t.Fatalf("a delta of form %v rode for a %v table", d.Form, form)
			}
			version = d.ViewVersion
		default:
			t.Fatalf("a %v rode behind a recommendation", rowType)
		}
		if err != nil || !r.ByRun || version != r.ViewVersion {
			t.Fatalf("a row (%v, version %d) rode behind %+v", err, version, r)
		}
		whole := append(wire.AppendHeader(nil, rowType, 7), row...)
		out := make([]byte, len(rec)+wire.RideSize(whole))
		copy(out, rec)
		wire.PutRide(out[len(rec):], whole)
		if !bytes.Equal(out, b) {
			t.Fatalf("split/ride asymmetry:\n in:  %x\n out: %x", b, out)
		}
	})
}

func FuzzJoinRoundTrip(f *testing.F) {
	f.Add(body(wire.AppendJoin(nil, wire.Join{Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 4400)})))
	// AppendJoin hardcodes NilNode as the source (the joiner has no ID yet),
	// so the comparison is body-level.
	f.Fuzz(func(t *testing.T, b []byte) {
		j, err := wire.ParseJoin(b)
		if err != nil {
			return
		}
		out := wire.AppendJoin(nil, j)
		if !bytes.Equal(body(out), b) {
			t.Fatalf("join asymmetry:\n in:  %x\n out: %x", b, body(out))
		}
	})
}

// FuzzJoinReplyRoundTrip keeps the name of the retired join reply's target:
// the join is now the whole exchange, so every 6-byte body (IPv4 address and
// port) is a join, and it re-encodes to itself.
func FuzzJoinReplyRoundTrip(f *testing.F) {
	f.Add(uint32(0x0A000001), uint16(4400))
	f.Fuzz(func(t *testing.T, ip uint32, port uint16) {
		b := binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(nil, ip), port)
		j, err := wire.ParseJoin(b)
		if err != nil {
			t.Fatalf("6-byte join %x refused: %v", b, err)
		}
		if out := body(wire.AppendJoin(nil, j)); !bytes.Equal(out, b) {
			t.Fatalf("join asymmetry:\n in:  %x\n out: %x", b, out)
		}
	})
}

func FuzzViewRoundTrip(f *testing.F) {
	f.Add(uint16(1), body(wire.AppendView(nil, 1, wire.View{
		Epoch: 1, Version: 3,
		Members: []wire.Member{
			{ID: 1, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 4400)},
			{ID: 2},
		},
	})))
	// Slot-addressed view: 4 slots, slot 1 a tombstone.
	f.Add(uint16(1), body(wire.AppendView(nil, 1, wire.View{
		Epoch: 2, Version: 9, Slots: 4,
		Members: []wire.Member{
			{ID: 5, Slot: 0, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 5}), 4400)},
			{ID: 7, Slot: 2},
			{ID: 8, Slot: 3},
		},
	})))
	f.Add(uint16(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseView, wire.AppendView)
	})
}

func FuzzViewChunkRoundTrip(f *testing.F) {
	// The last of three pieces of a 129-member snapshot carries the one
	// member left over from two full chunks.
	f.Add(uint16(1), body(wire.AppendViewChunk(nil, 1, wire.ViewChunk{
		Stamp:        wire.ViewStamp{Epoch: 2, Version: 40},
		TotalSlots:   130,
		TotalMembers: 129,
		Index:        2,
		Count:        3,
		Members: []wire.Member{
			{ID: 128, Slot: 129, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 64}), 4400)},
		},
	})))
	// An empty view is one chunk carrying no members.
	f.Add(uint16(1), body(wire.AppendViewChunk(nil, 1, wire.ViewChunk{
		Stamp: wire.ViewStamp{Epoch: 1, Version: 1}, TotalSlots: 3, Count: 1,
	})))
	// Rejected: an empty chunk claiming 65 535 pieces.
	f.Add(uint16(1), []byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseViewChunk, wire.AppendViewChunk)
	})
}

func FuzzViewDeltaRoundTrip(f *testing.F) {
	f.Add(uint16(1), body(wire.AppendViewDelta(nil, 1, wire.ViewDelta{
		Epoch: 1, BaseVersion: 3, Version: 4,
		Adds:    []wire.Member{{ID: 9, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 9000)}},
		Removes: []wire.NodeID{2, 5},
	})))
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseViewDelta, wire.AppendViewDelta)
	})
}

func FuzzCoordBeaconRoundTrip(f *testing.F) {
	f.Add(uint16(1), body(wire.AppendCoordBeacon(nil, 1, wire.CoordBeacon{
		Stamp: wire.ViewStamp{Epoch: 2, Version: 40}, NextID: 12, Primary: true,
	})))
	// The historical asymmetry: a flag byte of 2 decoded as Primary=true but
	// re-encoded as 1. The decoder now rejects it.
	f.Add(uint16(1), []byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 5, 2})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseCoordBeacon, wire.AppendCoordBeacon)
	})
}

func FuzzPreVoteReplyRoundTrip(f *testing.F) {
	f.Add(uint16(1), body(wire.AppendPreVoteReply(nil, 1, wire.PreVoteReply{
		Stamp: wire.ViewStamp{Epoch: 3, Version: 21}, PrimaryAlive: true,
	})))
	// Same flag-byte class as the CoordBeacon asymmetry: 2 must be rejected,
	// not decoded as true.
	f.Add(uint16(1), []byte{0, 0, 0, 3, 0, 0, 0, 21, 2})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParsePreVoteReply, wire.AppendPreVoteReply)
	})
}

func FuzzGossipDeltaRoundTrip(f *testing.F) {
	f.Add(uint16(5), body(wire.AppendGossipDelta(nil, 5, wire.GossipDelta{
		Hops: 2,
		Delta: wire.ViewDelta{
			Epoch: 1, BaseVersion: 3, Version: 4,
			Adds:    []wire.Member{{ID: 9, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 9000)}},
			Removes: []wire.NodeID{2},
		},
	})))
	f.Add(uint16(0), []byte{0})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseGossipDelta, wire.AppendGossipDelta)
	})
}

// fuzzStamped fuzzes one of the three stamp-only types. They share one body
// codec, so each target takes whole messages, header included, and
// re-encodes with the input header's type; a message of another type is
// skipped.
func fuzzStamped(f *testing.F, mt wire.MsgType, seed []byte) {
	f.Add(seed)
	f.Fuzz(func(t *testing.T, msg []byte) {
		h, b, err := wire.ParseHeader(msg)
		if err != nil || h.Type != mt {
			return
		}
		s, err := wire.ParseStamped(b)
		if err != nil {
			return
		}
		if out := wire.AppendStamped(nil, h.Type, h.Src, s); !bytes.Equal(out, msg) {
			t.Fatalf("decode/encode asymmetry:\n in:  %x\n out: %x", msg, out)
		}
	})
}

func FuzzHeartbeatAckRoundTrip(f *testing.F) {
	fuzzStamped(f, wire.THeartbeatAck, wire.AppendStamped(nil, wire.THeartbeatAck, 4, wire.ViewStamp{Epoch: 1, Version: 8}))
}

func FuzzPreVoteRoundTrip(f *testing.F) {
	fuzzStamped(f, wire.TPreVote, wire.AppendStamped(nil, wire.TPreVote, 2, wire.ViewStamp{Epoch: 3, Version: 21}))
}

func FuzzViewPullRoundTrip(f *testing.F) {
	fuzzStamped(f, wire.TViewPull, wire.AppendStamped(nil, wire.TViewPull, 3, wire.ViewStamp{Epoch: 2, Version: 17}))
}

func FuzzViewPullReplyRoundTrip(f *testing.F) {
	f.Add(uint16(4), body(wire.AppendViewPullReply(nil, 4, wire.ViewPullReply{
		Stamp: wire.ViewStamp{Epoch: 2, Version: 19},
		Deltas: []wire.ViewDelta{
			{Epoch: 2, BaseVersion: 17, Version: 18,
				Adds: []wire.Member{{ID: 6, Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 6}), 4406)}}},
			{Epoch: 2, BaseVersion: 18, Version: 19, Removes: []wire.NodeID{1}},
		},
	})))
	// Empty reply (responder can't bridge) plus a malformed length prefix.
	f.Add(uint16(4), body(wire.AppendViewPullReply(nil, 4, wire.ViewPullReply{
		Stamp: wire.ViewStamp{Epoch: 1, Version: 2},
	})))
	f.Add(uint16(0), []byte{0, 0, 0, 1, 0, 0, 0, 2, 1, 0, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseViewPullReply, wire.AppendViewPullReply)
	})
}

func FuzzDataRoundTrip(f *testing.F) {
	f.Add(uint16(2), body(wire.AppendData(nil, 2, wire.Data{
		Origin: 1, Dst: 6, TTL: wire.DefaultDataTTL, Payload: []byte("ping"),
	})))
	f.Add(uint16(0), []byte{0, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, src uint16, b []byte) {
		roundTrip(t, src, b, wire.ParseData, wire.AppendData)
	})
}
