package main

import (
	"net/netip"
	"runtime"
	"time"

	"allpairs/internal/bwmodel"
	"allpairs/internal/core"
	"allpairs/internal/grid"
	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/probe"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// Part two of a traced run: the layers' public functions timed directly on
// the shapes the workload just produced — its slot count and tombstones, its
// mean event-queue depth, its latencies, and the first payload of each
// message type it sent (a synthetic one of the same shape where the workload
// never sends the type, so every row exists on every workload).

// directReps is the repetitions each row's median is taken over.
const directReps = 11

// timeCalls times fn in directReps batches and returns the median batch's
// wall time per call in ns and the allocations per call over all batches.
// The batch size is picked so one batch lasts about half a millisecond.
func timeCalls(fn func()) (ns, allocs float64) {
	fn() // warm caches and lazily sized buffers
	t0 := time.Now()
	fn()
	iters := int(min(max(500*time.Microsecond/max(time.Since(t0), 1), 1), 1<<16))
	samples := make([]float64, directReps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := range samples {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		samples[r] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	runtime.ReadMemStats(&after)
	return median(samples), float64(after.Mallocs-before.Mallocs) / float64(directReps*iters)
}

// timeFresh times a call that consumes its state: prepare builds the state
// untimed and returns the call, which is timed once per repetition.
func timeFresh(prepare func() func()) (ns float64) {
	samples := make([]float64, directReps)
	for r := range samples {
		fn := prepare()
		t0 := time.Now()
		fn()
		samples[r] = float64(time.Since(t0).Nanoseconds())
	}
	return median(samples)
}

// shape is what the direct calls take from the traced run.
type shape struct {
	slots, tombstones int
	pending           int
	rttMS             func(a, b int) float64
	captured          *[256][]byte
}

func shapeOf(m *measurement) shape {
	w := m.w
	view := w.node(w.settled()[0]).View()
	return shape{
		slots:      view.Slots(),
		tombstones: view.Slots() - view.N(),
		pending:    int(ratio(float64(m.pendingSum), float64(m.pendingSamples))),
		rttMS:      func(a, b int) float64 { return w.env.LatencyMS[a%w.env.N][b%w.env.N] },
		captured:   &m.tr.captured,
	}
}

// dead reports whether slot is one of the shape's tombstones, spread evenly
// over the slot space and never slot 0 or 1 (the timed node and its peer).
func (s shape) dead(slot int) bool {
	if s.tombstones == 0 || slot < 2 {
		return false
	}
	stride := s.slots / s.tombstones
	return slot%stride == stride-1 && slot/stride < s.tombstones
}

// view builds the shape's membership view: member IDs equal their slots.
// skip tombstones one more slot (-1 for none), for the view-change rows.
func (s shape) view(version uint32, skip int) *membership.ViewInfo {
	v := wire.View{Epoch: 1, Version: version, Slots: uint16(s.slots)}
	for slot := 0; slot < s.slots; slot++ {
		if !s.dead(slot) && slot != skip {
			v.Members = append(v.Members, wire.Member{
				ID: wire.NodeID(slot), Slot: uint16(slot),
				Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(slot >> 8), byte(slot)}), 4000),
			})
		}
	}
	vi, err := membership.NewViewInfo(v)
	if err != nil {
		panic(err) // the shape's slots and IDs are distinct by construction
	}
	return vi
}

// row is slot's link-state row under the workload's latencies; salt perturbs
// every latency to dirty a row between calls.
func (s shape) row(slot, salt int) []wire.LinkEntry {
	row := make([]wire.LinkEntry, s.slots)
	for j := range row {
		row[j] = wire.LinkEntry{Latency: uint16(s.rttMS(slot, j)) + uint16(salt), Status: wire.MakeStatus(true, 0)}
		if s.dead(j) {
			row[j] = wire.LinkEntry{Status: wire.StatusDead}
		}
	}
	lsdb.SelfRow(slot, row)
	return row
}

// payload returns the workload's first message of type t, or build's
// synthetic stand-in.
func (s shape) payload(t wire.MsgType, build func() []byte) []byte {
	if p := s.captured[t]; p != nil {
		return p
	}
	return build()
}

// standalone returns a one-endpoint simulated transport for node 0: sends
// to the unregistered rest of the view are dropped at lookup, so a router or
// prober can be driven directly with the network's own cost left out.
func standalone() *transport.SimEnv {
	env := transport.NewSimEnv(simnet.New(1, 1), transport.NewRegistry(), 0, 1)
	env.SetLocalID(0)
	return env
}

func (s shape) quorum(view *membership.ViewInfo) (*core.Quorum, []int) {
	q, err := core.NewQuorum(standalone(), quorumCfg, view, 0)
	if err != nil {
		panic(err)
	}
	self := s.row(0, 0)
	q.SelfRow = func() []wire.LinkEntry { return self }
	q.LinkAlive = func(int) bool { return true }
	clients := q.Grid().Clients(0)
	for _, c := range clients {
		q.Table().Put(c, lsdb.Row{Seq: 1, When: time.Unix(0, 0), Entries: s.row(c, 0)})
	}
	return q, clients
}

func (s shape) fullMesh(view *membership.ViewInfo, cfg core.FullMeshConfig) *core.FullMesh {
	f := core.NewFullMesh(standalone(), cfg, view, 0)
	self := s.row(0, 0)
	f.SelfRow = func() []wire.LinkEntry { return self }
	for slot := 1; slot < s.slots; slot++ {
		if view.Occupied(slot) {
			f.Table().Put(slot, lsdb.Row{Seq: 1, When: time.Unix(0, 0), Entries: s.row(slot, 0)})
		}
	}
	return f
}

// directCalls fills in the direct-call rows.
func directCalls(s shape, out map[string]float64) {
	s.wireRows(out)
	s.simnetRows(out)
	s.probeRow(out)
	s.lsdbRows(out)
	s.gridRows(out)
	s.coreRows(out)
}

func (s shape) wireRows(out map[string]float64) {
	var buf []byte
	var allocs, rows float64
	row := func(name string, fn func()) {
		ns, a := timeCalls(fn)
		out[name] = ns
		allocs += a
		rows++
	}

	lsMsg := s.payload(wire.TLinkState, func() []byte {
		return wire.AppendLinkState(nil, 1, wire.LinkState{ViewVersion: 1, Seq: 1, Entries: s.row(1, 0)})
	})
	ls, _ := wire.ParseLinkState(lsMsg[wire.HeaderLen:])
	row("wire.linkstate.enc_ns", func() { buf = wire.AppendLinkState(buf[:0], 1, ls) })
	row("wire.linkstate.dec_ns", func() { ls, _ = wire.ParseLinkState(lsMsg[wire.HeaderLen:]) })

	recMsg := s.payload(wire.TRecommendation, func() []byte { return s.recommendation(1, bwmodel.QuorumDegree(s.slots)) })
	rec, _ := wire.ParseRecommendation(recMsg[wire.HeaderLen:])
	row("wire.recommendation.enc_ns", func() { buf = wire.AppendRecommendation(buf[:0], 1, rec) })
	row("wire.recommendation.dec_ns", func() { rec, _ = wire.ParseRecommendation(recMsg[wire.HeaderLen:]) })

	var reply wire.ProbeReply // read back into the next probe so no call is dead code
	row("wire.probe.roundtrip_ns", func() {
		buf = wire.AppendProbe(buf[:0], 0, wire.Probe{Seq: reply.Seq + 1, Echo: reply.RecvAt})
		p, _ := wire.ParseProbe(buf[wire.HeaderLen:])
		buf = wire.AppendProbeReply(buf[:0], 1, wire.ProbeReply{Seq: p.Seq, Echo: p.Echo, RecvAt: p.Echo + 1})
		reply, _ = wire.ParseProbeReply(buf[wire.HeaderLen:])
	})

	viewMsg := s.payload(wire.TView, func() []byte {
		v := s.view(1, -1)
		return wire.AppendView(nil, 0, wire.View{Epoch: 1, Version: 1, Slots: uint16(s.slots), Members: v.Members()})
	})
	row("wire.view.dec_ns", func() { _, _ = wire.ParseView(viewMsg[wire.HeaderLen:]) })

	deltaMsg := s.payload(wire.TViewDelta, func() []byte {
		return wire.AppendViewDelta(nil, 0, wire.ViewDelta{
			Epoch: 1, BaseVersion: 1, Version: 2,
			Adds:    []wire.Member{{ID: wire.NodeID(s.slots), Slot: uint16(s.slots)}},
			Removes: []wire.NodeID{1},
		})
	})
	row("wire.viewdelta.dec_ns", func() { _, _ = wire.ParseViewDelta(deltaMsg[wire.HeaderLen:]) })

	dataMsg := s.payload(wire.TData, func() []byte {
		return wire.AppendData(nil, 0, wire.Data{Origin: 0, Dst: 1, TTL: wire.DefaultDataTTL, Payload: make([]byte, streamPayload)})
	})
	data, _ := wire.ParseData(dataMsg[wire.HeaderLen:])
	row("wire.data.enc_ns", func() { buf = wire.AppendData(buf[:0], 0, data) })
	row("wire.data.dec_ns", func() { data, _ = wire.ParseData(dataMsg[wire.HeaderLen:]) })
	out["wire.allocs_per_msg"] = allocs / rows
}

// recommendation encodes a k-entry round-2 message from slot from.
func (s shape) recommendation(from, k int) []byte {
	rec := wire.Recommendation{ViewVersion: 1}
	for dst := 2; dst < s.slots && len(rec.Entries) < k; dst++ {
		if !s.dead(dst) {
			rec.Entries = append(rec.Entries, wire.RecEntry{Dst: wire.NodeID(dst), Hop: wire.NodeID(from), Cost: 100})
		}
	}
	return wire.AppendRecommendation(nil, wire.NodeID(from), rec)
}

func (s shape) simnetRows(out map[string]float64) {
	// One event through the queue at the workload's mean depth.
	nw := simnet.New(2, 1)
	for i := 0; i < s.pending; i++ {
		nw.After(time.Hour+time.Duration(i), func() {})
	}
	out["simnet.event_ns"], _ = timeCalls(func() {
		nw.After(0, func() {})
		nw.Step()
	})

	// One Send (loss roll, latency lookup, delivery scheduling); deliveries
	// are drained between measurements so the queue stays at its depth.
	nw.SetLatency(0, 1, 20*time.Millisecond)
	nw.SetLoss(0, 1, 0.002)
	msg := make([]byte, wire.DataSize(streamPayload))
	var sent int
	send := func() {
		nw.Send(0, 1, msg)
		if sent++; sent == 1024 {
			nw.RunFor(time.Second)
			sent = 0
		}
	}
	out["simnet.send_ns"], out["simnet.send_allocs"] = timeCalls(send)
}

// probeRow times one full probe exchange — timer, probe, reply, fold-in —
// between two probers that hold the workload's slot count but only see each
// other.
func (s shape) probeRow(out map[string]float64) {
	nw := simnet.New(2, 1)
	nw.SetLatency(0, 1, 20*time.Millisecond)
	reg := transport.NewRegistry()
	v := wire.View{Epoch: 1, Version: 1, Slots: uint16(s.slots), Members: []wire.Member{{ID: 0, Slot: 0}, {ID: 1, Slot: 1}}}
	view, err := membership.NewViewInfo(v)
	if err != nil {
		panic(err)
	}
	exchanges := 0
	for ep := 0; ep < 2; ep++ {
		env := transport.NewSimEnv(nw, reg, ep, int64(ep)+1)
		env.SetLocalID(wire.NodeID(ep))
		p := probe.New(env, probe.Config{}, view, ep)
		p.OnMeasure = func(int, time.Duration) { exchanges++ }
		env.Bind(func(_ wire.NodeID, payload []byte) {
			switch h, body, _ := wire.ParseHeader(payload); h.Type {
			case wire.TProbe:
				p.HandleProbe(h, body)
			case wire.TProbeReply:
				p.HandleReply(h, body)
			}
		})
		p.Start()
	}
	nw.RunFor(time.Minute) // first exchanges done, timers in steady state
	samples := make([]float64, directReps)
	for r := range samples {
		exchanges = 0
		t0 := time.Now()
		nw.RunFor(100 * 30 * time.Second)
		samples[r] = float64(time.Since(t0).Nanoseconds()) / float64(max(exchanges, 1))
	}
	out["probe.exchange_ns"] = median(samples)
}

func (s shape) lsdbRows(out map[string]float64) {
	view := s.view(1, -1)
	table := lsdb.NewTable(s.slots)
	for slot := 0; slot < s.slots; slot++ {
		if view.Occupied(slot) {
			table.Put(slot, lsdb.Row{Seq: 1, When: time.Unix(0, 0), Entries: s.row(slot, 0)})
		}
	}

	// A refresh whose contents changed: the generation advances.
	rows := [2][]wire.LinkEntry{s.row(1, 0), s.row(1, 1)}
	seq := uint32(1)
	out["lsdb.put_ns"], _ = timeCalls(func() {
		seq++
		table.Put(1, lsdb.Row{Seq: seq, When: time.Unix(0, 0), Entries: rows[seq&1]})
	})

	// Round 2's kernel: every pair among one rendezvous' clients.
	g, err := grid.NewMasked(s.slots, view.OccupiedMask())
	if err != nil {
		panic(err)
	}
	clients := g.Clients(0)
	var pairs [][2]int
	for i, a := range clients {
		for _, b := range clients[i+1:] {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	hops := make([]lsdb.HopCost, max(len(pairs), s.slots))
	ns, _ := timeCalls(func() { table.Matrix().BestOneHopPairs(pairs, hops[:len(pairs)]) })
	out["lsdb.kernel_pairs_ns_per_pair"] = ratio(ns, float64(len(pairs)))

	// The full-mesh kernel: every destination through every fresh row.
	self := lsdb.UnpackCosts(nil, s.row(0, 0))
	ns, _ = timeCalls(func() { table.BestOneHopViaAll(self, time.Unix(0, 0), time.Minute, hops[:s.slots]) })
	out["lsdb.kernel_all_ns_per_pair"] = ratio(ns, float64(s.slots))

	// One join past the end plus one departure, on a fully populated table.
	out["lsdb.grow_retire_ns"] = timeFresh(func() func() {
		t := lsdb.NewTable(s.slots)
		for slot := 0; slot < s.slots; slot++ {
			if view.Occupied(slot) {
				t.Put(slot, lsdb.Row{Seq: 1, When: time.Unix(0, 0), Entries: s.row(slot, 0)})
			}
		}
		return func() {
			t.Grow(s.slots + 1)
			t.RetireSlot(1)
		}
	})
}

func (s shape) gridRows(out map[string]float64) {
	ns, _ := timeCalls(func() { _, _ = grid.New(s.slots) })
	out["grid.new_us"] = ns / 1e3
	dense, err := grid.New(s.slots)
	if err != nil {
		panic(err)
	}
	// At least one tombstone, or Remask has nothing to do.
	mask := s.view(1, 1).OccupiedMask()
	ns, _ = timeCalls(func() { _, _ = dense.Remask(mask) })
	out["grid.remask_us"] = ns / 1e3
}

func (s shape) coreRows(out map[string]float64) {
	view := s.view(1, -1)
	// A stable extension and its reverse: slot 1's member leaves, then a
	// joiner fills the tombstone.
	without := s.view(2, 1)

	out["core.quorum.tick_cold_ms"] = timeFresh(func() func() {
		q, _ := s.quorum(view)
		return q.Tick
	}) / 1e6
	q, clients := s.quorum(view)
	q.Tick()
	ns, _ := timeCalls(q.Tick)
	out["core.quorum.tick_steady_ms"] = ns / 1e6
	client := clients[0]
	lsMsg := wire.AppendLinkState(nil, wire.NodeID(client), wire.LinkState{ViewVersion: 1, Seq: 2, Entries: s.row(client, 0)})
	lsHdr, lsBody, _ := wire.ParseHeader(lsMsg)
	out["core.quorum.linkstate_ns"], _ = timeCalls(func() { q.HandleLinkState(lsHdr, lsBody) })
	recHdr, recBody, _ := wire.ParseHeader(s.recommendation(client, len(clients)))
	out["core.quorum.recommend_ns"], _ = timeCalls(func() { q.HandleRecommendation(recHdr, recBody) })
	ns, _ = timeCalls(func() {
		_ = q.SetView(without, 0)
		_ = q.SetView(view, 0)
	})
	out["core.quorum.setview_ms"] = ns / 2 / 1e6

	full := fullMeshCfg
	full.DisableIncremental = true
	ns, _ = timeCalls(s.fullMesh(view, full).Tick)
	out["core.fullmesh.tick_full_ms"] = ns / 1e6
	f := s.fullMesh(view, fullMeshCfg)
	f.Tick() // the first pass is full and takes the snapshot
	// An incremental pass over a bounded dirty set, as a few changed rows
	// per interval produce.
	seq, dirty := uint32(1), [2][]wire.LinkEntry{s.row(1, 1), s.row(1, 2)}
	ns, _ = timeCalls(func() {
		seq++
		f.Table().Put(1, lsdb.Row{Seq: seq, When: time.Unix(0, 0), Entries: dirty[seq&1]})
		f.Tick()
	})
	out["core.fullmesh.tick_incr_ms"] = ns / 1e6
	seq++
	fmMsg := wire.AppendLinkState(nil, 1, wire.LinkState{ViewVersion: 1, Seq: seq, Entries: s.row(1, 0)})
	fmHdr, fmBody, _ := wire.ParseHeader(fmMsg)
	out["core.fullmesh.linkstate_ns"], _ = timeCalls(func() { f.HandleLinkState(fmHdr, fmBody) })
	ns, _ = timeCalls(func() {
		f.SetView(without, 0)
		f.SetView(view, 0)
	})
	out["core.fullmesh.setview_ms"] = ns / 2 / 1e6

	// A member's view install: a full view digested, and one delta applied.
	wv := wire.View{Epoch: 1, Version: 1, Slots: uint16(s.slots), Members: view.Members()}
	delta := wire.ViewDelta{Epoch: 1, BaseVersion: 1, Version: 2, Removes: []wire.NodeID{1}}
	ns, _ = timeCalls(func() {
		vi, _ := membership.NewViewInfo(wv)
		_, _ = vi.ApplyDelta(delta)
	})
	out["membership.view.install_ns"] = ns
}
