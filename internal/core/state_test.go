package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// pointerFree reports whether a value of type t holds nothing the collector
// must follow: numbers and bools, in arrays and structs.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return t.Kind() >= reflect.Bool && t.Kind() <= reflect.Complex128 && t.Kind() != reflect.Uintptr
	}
}

// TestRouteRecordIsSmallAndPointerFree pins what a route table costs: n
// records of 16 bytes a node, none of which the collector scans. RouteEntry,
// with its time.Time, is 56 bytes and fails both. A field added later fails
// here before it grows every fleet's heap.
func TestRouteRecordIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(route{}); size != 16 {
		t.Errorf("route is %d bytes, want 16", size)
	}
	if !pointerFree(reflect.TypeOf(route{})) {
		t.Error("route holds a pointer, slice, map, string or interface")
	}
	if pointerFree(reflect.TypeOf(RouteEntry{})) {
		t.Error("the walk calls RouteEntry pointer-free: it checks nothing")
	}
}

// TestRouteEntryRoundTrip: every field of a learned route survives the stored
// form, an empty record is the zero RouteEntry, and a route learned at virtual
// time 0 — Unix 0, which a record's clock cannot tell from "never" — is still
// a learned route.
func TestRouteEntryRoundTrip(t *testing.T) {
	if e := (route{}).entry(); e != (RouteEntry{}) || !e.When.IsZero() {
		t.Errorf("empty record reads %+v", e)
	}
	// A retired record keeps no clock either, whatever it was.
	routes := []route{{when: 5, hop: 1, from: 1, cost: 9, source: SourceSelf}}
	retireRoutes(routes, []int{0})
	if e := routes[0].entry(); !e.When.IsZero() || e.Source != SourceNone {
		t.Errorf("retired record reads %+v", e)
	}

	env, nw := soloEnv()
	q, err := NewQuorum(env, QuorumConfig{}, slotView(t, 1, 0, 1, 2, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	q.LinkAlive = func(int) bool { return true }
	for _, at := range []time.Duration{0, 90 * time.Second} {
		nw.RunFor(at - nw.Elapsed())
		want := RouteEntry{Hop: 3, Cost: 512, When: env.Now(), From: 1, Source: SourceRendezvous}
		q.install(2, route{when: env.Now().UnixNano(), hop: 3, from: 1, cost: 512, source: SourceRendezvous})
		if got := q.Routes()[2]; got != want || got.When.IsZero() {
			t.Errorf("installed at %v: Routes reads %+v, want %+v", at, got, want)
		}
		if got, ok := q.BestHop(2); !ok || got != want {
			t.Errorf("installed at %v: BestHop reads %+v (%v), want %+v", at, got, ok, want)
		}
	}
	for _, e := range []RouteEntry{
		{Hop: -1, Cost: wire.InfCost, From: 7, Source: SourceRendezvous},
		{Hop: wire.MaxSlots - 1, Cost: 1, From: -1, Source: SourceSelf},
	} {
		e.When = env.Now()
		r := route{when: e.When.UnixNano(), hop: uint16(e.Hop), from: uint16(e.From), cost: e.Cost, source: e.Source}
		if got := r.entry(); got != e {
			t.Errorf("round trip of %+v reads %+v", e, got)
		}
	}
}

// capturingEnv keeps what its router sends, per destination.
type capturingEnv struct {
	*transport.SimEnv
	sent map[wire.NodeID][]byte
}

func (e *capturingEnv) Send(to wire.NodeID, payload []byte) { e.sent[to] = payload }

// TestRecommendationsWrittenInPlaceMatchStagedEncoding: round 2 writes each
// entry straight into its client's datagram. The bytes must be what staging
// every client's entries and encoding them gives — entries here from the
// scalar kernel, one pair at a time; a failover client's message by
// AppendRecommendation, a default client's run form by stagedRunForm — for
// any number of clients, on a symmetric and on a directional table.
func TestRecommendationsWrittenInPlaceMatchStagedEncoding(t *testing.T) {
	const n = 144
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(1000 + i) // IDs are not slots
	}
	view := membership.NewStaticView(ids)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		k := 1 + rng.Intn(120)
		if trial == 0 {
			k = 1 // the only entry is the rendezvous itself
		}
		rows := make([][]wire.AsymEntry, n)
		for s := range rows {
			rows[s] = make([]wire.AsymEntry, n)
			for j := range rows[s] {
				st := wire.MakeStatus(true, 0)
				if rng.Intn(6) == 0 {
					st = wire.StatusDead
				}
				rows[s][j] = wire.AsymEntry{Out: uint16(5 + rng.Intn(400)), In: uint16(5 + rng.Intn(400)), Status: st}
			}
			rows[s][s] = wire.AsymEntry{Status: wire.MakeStatus(true, 0)}
		}
		symmetric := func(s int) []wire.LinkEntry {
			row := make([]wire.LinkEntry, n)
			for j, e := range rows[s] {
				row[j] = wire.LinkEntry{Latency: e.Out, Status: e.Status}
			}
			return row
		}
		clients := rng.Perm(n - 1)[:k] // any member may send a row: failover clients do
		for i := range clients {
			clients[i]++
		}
		for _, directional := range []bool{false, true} {
			env := &capturingEnv{SimEnv: transport.NewSimEnv(simnet.New(1, 1), transport.NewRegistry(), 0, 1), sent: map[wire.NodeID][]byte{}}
			env.SetLocalID(ids[0])
			q, err := NewQuorum(env, QuorumConfig{Asymmetric: directional}, view, 0)
			if err != nil {
				t.Fatal(err)
			}
			q.SelfRow = func() []wire.LinkEntry { return symmetric(0) }
			q.SelfAsymRow = func() []wire.AsymEntry { return rows[0] }
			q.LinkAlive = func(int) bool { return true }
			for _, c := range clients {
				if directional {
					putAsym(t, q.table, c, env.Now(), rows[c])
				} else {
					q.table.Put(c, lsdb.Row{Seq: 1, When: env.Now(), Entries: symmetric(c)})
				}
			}
			q.sendRounds(nil)

			fresh := q.table.FreshSlots(nil, env.Now(), q.cfg.Staleness) // client order: ascending slots
			selfOut, selfIn := q.selfCosts()
			out := func(s int) []wire.Cost {
				if s == 0 {
					return selfOut
				}
				return q.table.OutRow(s)
			}
			in := func(s int) []wire.Cost {
				if s == 0 {
					return selfIn
				}
				return q.table.InRow(s)
			}
			// best is the entry for b in a's message: the route a→b. Slot 0
			// is the rendezvous, whose row is live, not stored.
			best := func(a, b int) wire.RecEntry {
				var hc lsdb.HopCost
				if directional || a < b {
					hc.Hop, hc.Cost = lsdb.BestOneHopRows(a, out(a), in(b))
				} else { // a symmetric pair is evaluated once, from its lower end
					hc.Hop, hc.Cost = lsdb.BestOneHopRows(b, out(b), in(a))
					hc = turned(hc, b, a)
				}
				return wire.RecEntry{Dst: view.IDAt(b), Hop: q.hopID(hc.Hop), Cost: hc.Cost}
			}
			// Slot 0 heads the common order: this node and its default clients
			// ascending, then the failover clients.
			defaults, failovers := []int{0}, []int(nil)
			for _, c := range fresh {
				if slices.Contains(q.servers, c) {
					defaults = append(defaults, c)
				} else {
					failovers = append(failovers, c)
				}
			}
			for _, a := range fresh {
				without := func(s []int) []int { return slices.DeleteFunc(slices.Clone(s), func(b int) bool { return b == a }) }
				var want []byte
				if slices.Contains(q.servers, a) {
					run := without(append([]int{0}, q.servers...))
					var named, extra []wire.RecEntry
					var at []int
					for _, b := range without(defaults) {
						named = append(named, best(a, b))
						at = append(at, slices.Index(run, b))
					}
					for _, b := range failovers {
						extra = append(extra, best(a, b))
					}
					want = stagedRunForm(ids[0], view.VersionNum(), q.seq, len(run), at, named, extra)
				} else {
					staged := wire.Recommendation{ViewVersion: view.VersionNum()}
					for _, b := range without(append(slices.Clone(defaults), failovers...)) {
						staged.Entries = append(staged.Entries, best(a, b))
					}
					want = wire.AppendRecommendation(nil, ids[0], staged)
				}
				if got := env.sent[view.IDAt(a)]; !bytes.Equal(got, want) {
					t.Fatalf("k=%d directional=%v: message to slot %d differs from the staged encoding\n got %x\nwant %x",
						k, directional, a, got, want)
				}
			}
			if len(env.sent) != k {
				t.Fatalf("k=%d: %d messages sent", k, len(env.sent))
			}
		}
	}
}

// stagedRunForm encodes a run-form recommendation from its parts, field by
// field as the wire package documents it: named[i] at run position at[i],
// then the explicit extra entries.
func stagedRunForm(src wire.NodeID, version, seq uint32, run int, at []int, named, extra []wire.RecEntry) []byte {
	b := wire.AppendHeader(nil, wire.TRecommendation, src)
	b = binary.BigEndian.AppendUint32(b, version)
	b = binary.BigEndian.AppendUint16(b, 0x8000|uint16(run))
	b = binary.BigEndian.AppendUint32(b, seq)
	b = binary.BigEndian.AppendUint16(b, uint16(len(extra)))
	bitmap := make([]byte, (run+7)/8)
	for _, p := range at {
		bitmap[p/8] |= 1 << (p % 8)
	}
	b = append(b, bitmap...)
	for _, e := range named {
		b = binary.BigEndian.AppendUint16(b, uint16(e.Hop))
		b = binary.BigEndian.AppendUint16(b, uint16(e.Cost))
	}
	for _, e := range extra {
		b = binary.BigEndian.AppendUint16(b, uint16(e.Dst))
		b = binary.BigEndian.AppendUint16(b, uint16(e.Hop))
		b = binary.BigEndian.AppendUint16(b, uint16(e.Cost))
	}
	return b
}

// putAsym stores a directional row with sequence number 1 in table through
// the ingest path a received TLinkStateAsym takes.
func putAsym(tb testing.TB, table *lsdb.Table, slot int, when time.Time, row []wire.AsymEntry) {
	tb.Helper()
	msg := wire.AppendLinkStateAsym(nil, 0, wire.LinkStateAsym{Seq: 1, Entries: row})
	_, seq, entries, err := wire.LinkStateBody(wire.TLinkStateAsym, msg[wire.HeaderLen:])
	if err != nil || !table.PutWire(slot, seq, when, entries) {
		tb.Fatalf("slot %d's directional row refused: %v", slot, err)
	}
}
