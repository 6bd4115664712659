package emul

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/overlay"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// TestHeldRowsAreAnnouncedRows runs static fleets of both routers on links
// that drop 10 % of datagrams, duplicate 2 % and jitter them by up to 20 ms,
// and records each node's announced rows by (node, seq): a full row as it
// goes on the wire, a delta's row through the SelfRow (SelfAsymRow) call that
// announced it, and a refusal's answer sent as a delta as the row it names as
// its base with the delta's entries written over it. A sequence number names
// one row — a full row or an answer sent again at a seq, or a failover push,
// is the row first announced there — and every few seconds throughout the
// run every row any node holds has exactly the costs of the row its sender
// announced at the held seq. An answer delivered to a node holding its seq
// or a newer row (delayed or duplicated) is stale, and moves neither the
// held seq nor its receive time. The quorum runs with directional rows and
// with reliable delivery on and off.
//
// The quorum's recommendations are held to the same rule (recLedger): every
// entry a node holds of its rendezvous's message at a seq is the one that
// rendezvous computed at that seq, delta or not.
func TestHeldRowsAreAnnouncedRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		algo overlay.Algorithm
		cfg  core.QuorumConfig
	}{
		{"quorum", overlay.AlgQuorum, core.QuorumConfig{}},
		{"quorum-reliable", overlay.AlgQuorum, core.QuorumConfig{ReliableLinkState: true}},
		{"quorum-directional", overlay.AlgQuorum, core.QuorumConfig{Asymmetric: true}},
		{"quorum-directional-reliable", overlay.AlgQuorum, core.QuorumConfig{Asymmetric: true, ReliableLinkState: true}},
		{"fullmesh", overlay.AlgFullMesh, core.QuorumConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := heldRows(t, tc.algo, tc.cfg, 0.1, 48)
			if c.checks == 0 || (tc.algo == overlay.AlgQuorum && (c.deltas == 0 || c.refused == 0 || c.answers == 0)) {
				t.Errorf("%+v: the run exercised too little", c)
			}
		})
	}
}

// TestHeldRowsAreAnnouncedRowsUnderLoss is TestHeldRowsAreAnnouncedRows for
// the quorum, on both table forms, on the partition-heal workload's loss
// plane: links that drop 5 % of datagrams, duplicate 2 % and jitter them by
// up to 20 ms. Most refusals there name the row before the lost delta, and
// are answered by a delta from it: the run must send such answers, and
// deliver some of them stale, to a node already holding their seq.
func TestHeldRowsAreAnnouncedRowsUnderLoss(t *testing.T) {
	for _, asym := range []bool{false, true} {
		t.Run(map[bool]string{false: "symmetric", true: "directional"}[asym], func(t *testing.T) {
			c := heldRows(t, overlay.AlgQuorum, core.QuorumConfig{Asymmetric: asym}, 0.05, 96)
			if c.checks == 0 || c.refused == 0 || c.based == 0 || c.stale == 0 {
				t.Errorf("%+v: the run exercised too little", c)
			}
		})
	}
}

// heldCounts is what a heldRows run counted.
type heldCounts struct {
	// checks counts the held rows checked; deltas the deltas sent, based
	// those that name their base (answers), refused the refusals, answers the
	// based deltas and the full rows sent at a seq sent as a delta (answers
	// and failover pushes), and stale the answers delivered stale.
	checks, deltas, based, refused, answers, stale int
}

// heldRows runs a static 25-node fleet of algo for rounds of 5 s on links
// that drop loss of the datagrams, duplicate 2 % and jitter them by up to
// 20 ms, and holds its rows to TestHeldRowsAreAnnouncedRows' rules.
func heldRows(t *testing.T, algo overlay.Algorithm, cfg core.QuorumConfig, loss float64, rounds int) heldCounts {
	const n = 25
	f := NewFleet(FleetOptions{N: n, Algorithm: algo, Seed: 3, Env: traces.Generate(n, 3, traces.Config{}),
		Quorum: cfg})
	for a := range n {
		for b := range n {
			if a != b {
				f.Net.SetLoss(a, b, loss)
				f.Net.SetDuplication(a, b, 0.02)
				f.Net.SetJitter(a, b, 20*time.Millisecond)
			}
		}
	}
	view := f.Nodes[0].View()
	announced := map[[2]int]costs{}
	latest := make([]costs, n) // the costs of each node's last SelfRow call
	routers := make([]interface{ Table() *lsdb.Table }, n)
	for i, node := range f.Nodes {
		switch r := node.Router().(type) {
		case *core.Quorum:
			row, asymRow := r.SelfRow, r.SelfAsymRow
			r.SelfRow = func() []wire.LinkEntry {
				e := row()
				latest[i] = costs{lsdb.UnpackCosts(nil, e), lsdb.UnpackCosts(nil, e)}
				return e
			}
			r.SelfAsymRow = func() []wire.AsymEntry {
				e := asymRow()
				latest[i] = costs{lsdb.UnpackOutCosts(nil, e), lsdb.UnpackInCosts(nil, e)}
				return e
			}
			routers[i] = r
		case *core.FullMesh:
			row := r.SelfRow
			r.SelfRow = func() []wire.LinkEntry {
				e := row()
				latest[i] = costs{lsdb.UnpackCosts(nil, e), lsdb.UnpackCosts(nil, e)}
				return e
			}
			routers[i] = r
		}
	}
	recs := newRecLedger(t)
	account := f.Net.OnSend
	mismatched := 0
	var c heldCounts
	sentDelta := map[[2]int]bool{}
	sent := func(from, to int, h wire.Header, body []byte) {
		var seq uint32
		var got costs
		based := false
		switch h.Type {
		case wire.TRecommendation:
			recs.sent(f.Nodes[from], f.Nodes[to].Env().LocalID(), body)
			return
		case wire.TLinkStateAck:
			if _, refusal, err := wire.ParseLinkStateAck(body); err == nil && refusal {
				c.refused++
			}
			return
		case wire.TLinkStateDelta:
			d, err := wire.LinkStateDeltaBody(body)
			if err != nil {
				t.Fatalf("node %d sent a malformed delta: %v", from, err)
			}
			seq, got = d.Seq, latest[from]
			c.deltas++
			if based = d.Base != d.Seq-1; based {
				base, ok := announced[[2]int{from, int(d.Base)}]
				if !ok {
					t.Fatalf("node %d answered from row %d, which it never announced", from, d.Base)
				}
				row := patched(slotRow{view, base.out, base.in}, view, &d)
				got = costs{row.out, row.in}
				c.based++
				c.answers++
			} else {
				sentDelta[[2]int{from, int(seq)}] = true
			}
		case wire.TLinkState, wire.TLinkStateAsym:
			_, rowSeq, entries, err := wire.LinkStateBody(h.Type, body)
			seq = rowSeq
			if err != nil {
				t.Fatalf("node %d sent a malformed row: %v", from, err)
			}
			got = wireCosts(h.Type, entries)
			if sentDelta[[2]int{from, int(seq)}] {
				c.answers++
			}
		default:
			return
		}
		key := [2]int{from, int(seq)}
		if was, ok := announced[key]; !ok {
			announced[key] = costs{slices.Clone(got.out), slices.Clone(got.in)}
		} else if (h.Type != wire.TLinkStateDelta || based) && (!slices.Equal(was.out, got.out) || !slices.Equal(was.in, got.in)) {
			if mismatched++; mismatched == 1 {
				t.Errorf("node %d sent two rows at seq %d", from, seq)
			}
		}
	}
	f.Net.OnSend = func(from, to int, p []byte) {
		account(from, to, p)
		for _, m := range messages(p, func() wire.RowShape { return f.Nodes[from].Router().Shape() }) {
			sent(from, to, m.h, m.body)
		}
	}
	// A stale answer is checked at the next delivery, before its handler
	// runs: nothing but that answer's handler ran since.
	type held struct {
		to, from int
		seq      uint32
		when     time.Time
	}
	var stale []held
	deliver := f.Net.OnDeliver
	f.Net.OnDeliver = func(from, to int, p []byte) {
		for _, s := range stale {
			if table := routers[s.to].Table(); table.Seq(s.from) != s.seq || !table.When(s.from).Equal(s.when) {
				t.Fatalf("node %d took a stale answer from node %d: it held row %d from %v, now row %d from %v",
					s.to, s.from, s.seq, s.when, table.Seq(s.from), table.When(s.from))
			}
		}
		stale = stale[:0]
		if h, body, err := wire.ParseHeader(p); err == nil && h.Type == wire.TLinkStateDelta && to < n {
			if d, err := wire.LinkStateDeltaBody(body); err == nil && d.Base != d.Seq-1 {
				if table := routers[to].Table(); table.Have(from) && table.Seq(from) >= d.Seq {
					stale = append(stale, held{to, from, table.Seq(from), table.When(from)})
					c.stale++
				}
			}
		}
		if deliver != nil {
			deliver(from, to, p)
		}
	}
	for range rounds {
		f.Run(5 * time.Second)
		for i, r := range routers {
			table := r.Table()
			for s := range n {
				out := table.OutRow(s)
				if s == i || !table.Have(s) || out[s] != 0 { // out[s], the sender's own entry, is 0 in every row held
					continue
				}
				want, ok := announced[[2]int{s, int(table.Seq(s))}]
				if !ok || !slices.Equal(out, want.out) || !slices.Equal(table.InRow(s), want.in) {
					t.Fatalf("at %v node %d holds node %d's row %d, which is not the row announced at it:\n got %v\nwant %v",
						f.Elapsed(), i, s, table.Seq(s), out, want.out)
				}
				c.checks++
			}
			if algo == overlay.AlgQuorum {
				recs.check(f.Nodes[i])
			}
		}
	}
	t.Logf("%d held rows checked; %d deltas sent, %d of them answers, %d refused, %d answers in all, %d answers delivered stale",
		c.checks, c.deltas, c.based, c.refused, c.answers, c.stale)
	if algo == overlay.AlgQuorum {
		recs.done()
	}
	return c
}

// patched returns base, a row by slot of the view it was built on, with
// delta d's changed entries, a delta of view's members, written over it: the
// row d.Seq by slot of view. A slot that base's view does not list with the
// same member reads InfCost, as the delta's sender reads a started member
// dead.
func patched(base slotRow, view *membership.ViewInfo, d *wire.DeltaBody) slotRow {
	row := slotRow{view, make([]wire.Cost, view.Slots()), make([]wire.Cost, view.Slots())}
	for s := range view.Slots() {
		row.out[s], row.in[s] = wire.InfCost, wire.InfCost
		if s < base.view.Slots() && base.view.Occupied(s) && base.view.IDAt(s) == view.IDAt(s) {
			row.out[s], row.in[s] = base.out[s], base.in[s]
		}
	}
	slots := make([]int, 0, view.N()) // by member index
	for s := range view.Slots() {
		if view.Occupied(s) {
			slots = append(slots, s)
		}
	}
	for k, i := 0, -1; k < d.Changed; k++ {
		i = d.Member(k, i)
		s := slots[i]
		if d.Form == wire.TLinkStateAsym {
			e := wire.AsymEntryAt(d.Entries(), k)
			row.out[s], row.in[s] = e.OutCost(), e.InCost()
		} else {
			row.out[s] = wire.LinkEntryAt(d.Entries(), k).Cost()
			row.in[s] = row.out[s]
		}
	}
	return row
}

// message is one message of a datagram.
type message struct {
	h    wire.Header
	body []byte
}

// messages splits datagram p into its messages as the overlay node
// dispatches them: the row riding behind a recommendation, read against
// shape(), the sender's table, and rebuilt as it would go alone (loneRow),
// then the recommendation. Any other datagram is one message.
func messages(p []byte, shape func() wire.RowShape) []message {
	h, body, err := wire.ParseHeader(p)
	if err != nil {
		return nil
	}
	if h.Type == wire.TRecommendation {
		if _, ride, err := wire.SplitRecommendation(body, shape()); err == nil && ride.Type != 0 {
			row := loneRow(h.Src, ride)
			return []message{{wire.Header{Type: ride.Type, Src: h.Src}, row[wire.HeaderLen:]}, {h, body[:len(body)-wire.RideSize(row)]}}
		}
	}
	return []message{{h, body}}
}

// loneRow rebuilds, as a whole lone message from src, the row ride carries.
func loneRow(src wire.NodeID, ride wire.Ride) []byte {
	d := &ride.Row
	if ride.Type == wire.TLinkStateDelta {
		msg := wire.NewLinkStateDelta(src, d.ViewVersion, d.Seq, d.Base, d.Form, d.Members, d.Changed)
		for k, i := 0, -1; k < d.Changed; k++ {
			i = d.Member(k, i)
			wire.PutDeltaEntry(msg, i, k, d.Entries()[k*d.EntryLen():][:d.EntryLen()])
		}
		return msg
	}
	msg := binary.BigEndian.AppendUint32(wire.AppendHeader(nil, ride.Type, src), d.ViewVersion)
	msg = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(msg, d.Seq), uint16(d.Members))
	return append(msg, d.Entries()...)
}

// costs is a row's out- and in-costs, one slice when rows carry one cost.
type costs struct{ out, in []wire.Cost }

// wireCosts decodes a static view's full row entries of row type t.
func wireCosts(t wire.MsgType, entries []byte) costs {
	if t == wire.TLinkStateAsym {
		row := make([]wire.AsymEntry, len(entries)/wire.AsymEntryLen)
		for i := range row {
			row[i] = wire.AsymEntryAt(entries, i)
		}
		return costs{lsdb.UnpackOutCosts(nil, row), lsdb.UnpackInCosts(nil, row)}
	}
	row := make([]wire.LinkEntry, len(entries)/wire.LinkEntryLen)
	for i := range row {
		row[i] = wire.LinkEntryAt(entries, i)
	}
	return costs{lsdb.UnpackCosts(nil, row), lsdb.UnpackCosts(nil, row)}
}

// TestLossyLinksTakeFullRows runs 25-node quorum fleets for ten minutes on
// links that drop a given share of datagrams, as BenchmarkAblationStaleness
// does, and counts the row encodings sent in the last five. A delta is
// refused whenever the row before it was lost, and its refusal and answer
// are lost as often, so on links as lossy as the ablations' (25 and 30 %)
// the senders' measured loss must turn nearly every row into a full one; on
// nearly clean links most rows go as deltas.
func TestLossyLinksTakeFullRows(t *testing.T) {
	for _, tc := range []struct {
		loss     float64
		min, max float64 // bounds on the share of rows sent as deltas
	}{
		{0.01, 0.9, 1},
		{0.25, 0, 0.01},
		{0.30, 0, 0.01},
	} {
		const n = 25
		env := traces.Generate(n, 6, traces.Config{BadNodeFrac: 0.0001})
		for a := range n {
			for b := range n {
				if a != b {
					env.Loss[a][b] = tc.loss
				}
				env.DownFrac[a][b] = 0
			}
		}
		f := NewFleet(FleetOptions{N: n, Algorithm: overlay.AlgQuorum, Seed: 6, Env: env, Quorum: core.QuorumConfig{Interval: 15 * time.Second}})
		f.Run(5 * time.Minute)
		rows := map[wire.MsgType]int{}
		account := f.Net.OnSend
		f.Net.OnSend = func(from, to int, p []byte) {
			account(from, to, p)
			for _, m := range messages(p, func() wire.RowShape { return f.Nodes[from].Router().Shape() }) {
				rows[m.h.Type]++
			}
		}
		f.Run(5 * time.Minute)
		share := float64(rows[wire.TLinkStateDelta]) / float64(rows[wire.TLinkStateDelta]+rows[wire.TLinkState])
		t.Logf("loss %.2f: %d deltas, %d full rows, %d acks", tc.loss, rows[wire.TLinkStateDelta], rows[wire.TLinkState], rows[wire.TLinkStateAck])
		if share < tc.min || share > tc.max {
			t.Errorf("links at %.0f %% loss: %.3f of the rows went as deltas, want %.2f–%.2f", 100*tc.loss, share, tc.min, tc.max)
		}
	}
}

// TestHeldRowsAreAnnouncedRowsUnderChurn is TestHeldRowsAreAnnouncedRows on
// a dynamic quorum fleet whose members join, leave and crash, so that views
// change every few seconds by stable extensions that append slots, retire
// them and reuse them, on links that drop 5 % of datagrams, duplicate 2 % and
// jitter them by up to 20 ms. A row's costs are read by slot of the view it
// was built on, for the packing changes across views: every row any node
// holds has, toward each member its sender's view listed at the same slot,
// the cost its sender announced at the held seq, and InfCost toward every
// other slot. And a stable install keeps the delta's base: most first rows
// after one go as deltas to the servers that held the row before it, and
// most rendezvous send deltas in their first round 2 after one.
func TestHeldRowsAreAnnouncedRowsUnderChurn(t *testing.T) {
	for _, asym := range []bool{false, true} {
		t.Run(map[bool]string{false: "symmetric", true: "directional"}[asym], func(t *testing.T) {
			testHeldRowsUnderChurn(t, asym)
		})
	}
}

// slotRow is an announced row by slot of the view it was built on.
type slotRow struct {
	view    *membership.ViewInfo
	out, in []wire.Cost
}

func testHeldRowsUnderChurn(t *testing.T, asym bool) {
	const n = 24
	f := NewDynamicFleet(n, DynamicFleetOptions{MaxN: 48, Seed: 11, Algorithm: overlay.AlgQuorum,
		Loss: 0.05, Dup: 0.02, Jitter: 20 * time.Millisecond,
		Quorum: core.QuorumConfig{Asymmetric: asym}})
	quorum := func(ep int) *core.Quorum {
		if node := f.Node(ep); node != nil && node.Ready() {
			return node.Router().(*core.Quorum)
		}
		return nil
	}
	type key struct {
		id  wire.NodeID
		seq uint32
	}
	announced := map[key]slotRow{}
	// Per sender, the install counts at its last row; per row announced
	// after a stable install, whether it went as a delta to any server.
	installs := map[wire.NodeID][2]uint64{}
	afterStable := map[key]bool{}
	// Per rendezvous, the seq of its last run-form recommendation and its
	// install counts then; per seq a stable install came before, whether a
	// run-form message at it went as a delta.
	type recSender struct {
		seq      uint32
		installs [2]uint64
	}
	recSenders := map[wire.NodeID]recSender{}
	recAfterStable := map[key]bool{}
	deltas, refused, answers := 0, 0, 0
	recs := newRecLedger(t)
	account := f.Net.OnSend
	sent := func(from, to int, h wire.Header, body []byte) {
		node := f.Node(from)
		var version, seq uint32
		var row slotRow
		switch h.Type {
		case wire.TRecommendation:
			if to >= f.Opt.MaxN || f.Node(to) == nil {
				return
			}
			recs.sent(node, f.Node(to).Env().LocalID(), body)
			if rec, err := wire.RecommendationBody(body); err == nil && rec.ByRun {
				st := quorum(from).Stats()
				now := [2]uint64{st.ViewExtends, st.ViewRemaps}
				k := key{h.Src, rec.Seq}
				if was, ok := recSenders[h.Src]; !ok || rec.Seq > was.seq {
					if ok && now[0] != was.installs[0] && now[1] == was.installs[1] {
						recAfterStable[k] = false
					}
					recSenders[h.Src] = recSender{rec.Seq, now}
				}
				if _, ok := recAfterStable[k]; ok && rec.Delta {
					recAfterStable[k] = true
				}
			}
			return
		case wire.TLinkStateAck:
			if _, refusal, err := wire.ParseLinkStateAck(body); err == nil && refusal {
				refused++
			}
			return
		case wire.TLinkStateDelta:
			d, err := wire.LinkStateDeltaBody(body)
			if err != nil {
				t.Fatalf("node %d sent a malformed delta: %v", h.Src, err)
			}
			version, seq = d.ViewVersion, d.Seq
			deltas++
			if d.Base != d.Seq-1 { // an answer: its base row with its entries written over it
				base, ok := announced[key{h.Src, d.Base}]
				if !ok {
					t.Fatalf("node %d answered from row %d, which it never announced", h.Src, d.Base)
				}
				row = patched(base, node.View(), &d)
				answers++
				break
			}
			// A delta goes in the tick that announced its row, and the
			// prober's row does not move within an instant.
			if asym {
				e := node.Prober().AsymRow()
				row = slotRow{node.View(), lsdb.UnpackOutCosts(nil, e), lsdb.UnpackInCosts(nil, e)}
			} else {
				e := lsdb.UnpackCosts(nil, node.Prober().Row())
				row = slotRow{node.View(), e, e}
			}
			for _, s := range row.view.Tombstones() { // no row carries them
				row.out[s], row.in[s] = wire.InfCost, wire.InfCost
			}
		case wire.TLinkState, wire.TLinkStateAsym:
			var entries []byte
			var err error
			version, seq, entries, err = wire.LinkStateBody(h.Type, body)
			if err != nil {
				t.Fatalf("node %d sent a malformed row: %v", h.Src, err)
			}
			row = slotRow{node.View(), nil, nil}
			packed := wireCosts(h.Type, entries)
			for s, i := 0, 0; s < row.view.Slots(); s++ {
				out, in := wire.InfCost, wire.InfCost
				if row.view.Occupied(s) && i < len(packed.out) {
					out, in = packed.out[i], packed.in[i]
					i++
				}
				row.out, row.in = append(row.out, out), append(row.in, in)
			}
		default:
			return
		}
		if version != node.View().VersionNum() {
			t.Fatalf("node %d sent a row of view %d while it holds view %d", h.Src, version, node.View().VersionNum())
		}
		k := key{h.Src, seq}
		// A seq names one row: a full row sent at a seq already announced, an
		// answer, is that row.
		was, ok := announced[k]
		if ok && (!slices.Equal(was.out, row.out) || !slices.Equal(was.in, row.in)) {
			t.Fatalf("node %d sent two rows at seq %d", h.Src, seq)
		}
		if !ok {
			announced[k] = row
			st := quorum(from).Stats()
			now := [2]uint64{st.ViewExtends, st.ViewRemaps}
			if was, ok := installs[h.Src]; ok && now[0] != was[0] && now[1] == was[1] {
				afterStable[k] = false
			}
			installs[h.Src] = now
		}
		if h.Type == wire.TLinkStateDelta && !ok {
			if _, ok := afterStable[k]; ok {
				afterStable[k] = true
			}
		}
	}
	f.Net.OnSend = func(from, to int, p []byte) {
		account(from, to, p)
		if from >= f.Opt.MaxN { // a coordinator's
			return
		}
		for _, m := range messages(p, func() wire.RowShape { return f.Node(from).Router().Shape() }) {
			sent(from, to, m.h, m.body)
		}
	}
	occupants := map[int]map[wire.NodeID]bool{} // per slot, the members seen in it
	checks, across := 0, 0
	check := func() {
		for _, ep := range f.ActiveEndpoints() {
			q := quorum(ep)
			if q == nil {
				continue
			}
			view, self, table := f.Node(ep).View(), f.Node(ep).Slot(), q.Table()
			for s := range view.Slots() {
				if id := view.IDAt(s); id != wire.NilNode {
					if occupants[s] == nil {
						occupants[s] = map[wire.NodeID]bool{}
					}
					occupants[s][id] = true
				}
				out := table.OutRow(s)
				if s == self || !view.Occupied(s) || !table.Have(s) || out[s] != 0 {
					continue
				}
				seq := table.Seq(s)
				want, ok := announced[key{view.IDAt(s), seq}]
				if !ok {
					t.Fatalf("at %v node %d holds node %d's row %d, which was never announced", f.Elapsed(), f.Node(ep).Env().LocalID(), view.IDAt(s), seq)
				}
				for j := range view.Slots() {
					wantOut, wantIn := wire.InfCost, wire.InfCost
					if j < want.view.Slots() && want.view.Occupied(j) && want.view.IDAt(j) == view.IDAt(j) {
						wantOut, wantIn = want.out[j], want.in[j]
					}
					if out[j] != wantOut || table.InRow(s)[j] != wantIn {
						t.Fatalf("at %v node %d holds node %d's row %d, built on view %d, with costs %d/%d toward slot %d of view %d; the row announced there reads %d/%d",
							f.Elapsed(), f.Node(ep).Env().LocalID(), view.IDAt(s), seq, want.view.VersionNum(), out[j], table.InRow(s)[j], j, view.VersionNum(), wantOut, wantIn)
					}
				}
				checks++
				if want.view.VersionNum() != view.VersionNum() {
					across++
				}
			}
			recs.check(f.Node(ep))
		}
	}
	rng := rand.New(rand.NewSource(11))
	f.Run(90 * time.Second)
	for step := range 48 {
		switch eps := f.ActiveEndpoints(); step % 4 {
		case 0:
			f.Spawn()
		case 1:
			f.Depart(eps[rng.Intn(len(eps))], true)
		case 2:
			f.Spawn()
		case 3:
			f.Depart(eps[rng.Intn(len(eps))], false)
		}
		f.Run(5 * time.Second)
		check()
	}
	reused := 0
	for _, ids := range occupants {
		if len(ids) > 1 {
			reused++
		}
	}
	kept, recKept := 0, 0
	for _, delta := range afterStable {
		if delta {
			kept++
		}
	}
	for _, delta := range recAfterStable {
		if delta {
			recKept++
		}
	}
	t.Logf("%d held rows checked, %d built on an earlier view; %d deltas sent, %d of them answers, %d refused; %d slots reused; %d of %d rows and %d of %d rounds 2 after a stable install sent deltas",
		checks, across, deltas, answers, refused, reused, kept, len(afterStable), recKept, len(recAfterStable))
	if checks == 0 || across == 0 || deltas == 0 || refused == 0 || reused == 0 || len(afterStable) == 0 || len(recAfterStable) == 0 {
		t.Errorf("the run exercised too little")
	}
	recs.done()
	// The rest go in full by the row rules: a delta as large as the row, or
	// recipients whose links read lossy, dead or not yet probed.
	if 2*kept < len(afterStable) {
		t.Errorf("%d of %d rows after a stable install went as deltas: the install dropped the delta's base", kept, len(afterStable))
	}
	// Likewise a recommendation's.
	if 2*recKept < len(recAfterStable) {
		t.Errorf("%d of %d rounds 2 after a stable install sent deltas: the install dropped the delta's base", recKept, len(recAfterStable))
	}
}

// recLedger holds a fleet's recommendations to what their rendezvous
// computed. Every run-form message sent, in full or as a delta, is checked
// entry by entry against a scalar oracle over its sender's table and self
// row at the send (oracleEntry), which is recorded by (rendezvous, client,
// seq) for each run position the message names; a message sent again at a
// seq, an answer to a refusal, names as many positions with the same
// entries. And every entry a node holds of a rendezvous's message
// (core.Quorum.HeldRecommendation) is the one recorded at the held seq.
type recLedger struct {
	t        *testing.T
	computed map[recKey]map[wire.NodeID]wire.RecEntry // per destination
	checks   int
	// deltas, refusals and answers count the deltas sent, the refusals and
	// the run-form messages sent at a seq already sent.
	deltas, refusals, answers int
}

type recKey struct {
	from, to wire.NodeID
	seq      uint32
}

func newRecLedger(t *testing.T) *recLedger {
	return &recLedger{t: t, computed: map[recKey]map[wire.NodeID]wire.RecEntry{}}
}

// sent checks the recommendation body node sends the member to.
func (l *recLedger) sent(node *overlay.Node, to wire.NodeID, body []byte) {
	rec, err := wire.RecommendationBody(body)
	if err != nil {
		l.t.Fatalf("node %d sent a malformed recommendation: %v", node.Env().LocalID(), err)
	}
	if !rec.ByRun {
		if rec.Entries == 0 {
			l.refusals++
		}
		return
	}
	view, self := node.View(), node.Slot()
	client, _ := view.SlotOf(to)
	q := node.Router().(*core.Quorum)
	run := slices.DeleteFunc(append(q.Grid().Clients(self), self), func(s int) bool { return s == client })
	slices.Sort(run)
	key := recKey{view.IDAt(self), to, rec.Seq}
	want, again := l.computed[key]
	if !again {
		want = map[wire.NodeID]wire.RecEntry{}
		for p := rec.NextRun(0); p < rec.Run; p = rec.NextRun(p + 1) {
			want[view.IDAt(run[p])] = oracleEntry(q, view, self, client, run[p])
		}
		l.computed[key] = want
	} else if l.answers++; rec.Named != len(want) {
		l.t.Fatalf("node %d sent %d a message at seq %d again, naming %d destinations, not %d", key.from, to, rec.Seq, rec.Named, len(want))
	}
	if rec.Delta {
		l.deltas++
	}
	for e, p := 0, -1; e < rec.Carried; e++ {
		p = rec.Position(e, p)
		got, w := rec.Entry(e), want[view.IDAt(run[p])]
		if got.Hop != w.Hop || got.Cost != w.Cost {
			l.t.Fatalf("node %d sent %d, at seq %d, hop %d cost %d toward %d; it computed hop %d cost %d",
				key.from, to, rec.Seq, got.Hop, got.Cost, view.IDAt(run[p]), w.Hop, w.Cost)
		}
	}
}

// check holds what node holds of each of its rendezvous's messages to the
// entries recorded at the held seq.
func (l *recLedger) check(node *overlay.Node) {
	q, ok := node.Router().(*core.Quorum)
	if !ok {
		return
	}
	view, self := node.View(), node.Slot()
	for _, k := range q.Grid().Servers(self) {
		seq, dsts, said := q.HeldRecommendation(k)
		if seq == 0 {
			continue
		}
		want, ok := l.computed[recKey{view.IDAt(k), view.IDAt(self), seq}]
		if !ok {
			l.t.Fatalf("node %d holds node %d's recommendation %d, which was never sent", view.IDAt(self), view.IDAt(k), seq)
		}
		for i, d := range dsts {
			if w, ok := want[view.IDAt(int(d))]; ok {
				if said[i].Hop != w.Hop || said[i].Cost != w.Cost {
					l.t.Fatalf("node %d holds node %d's recommendation %d with hop %d cost %d toward %d; %d computed hop %d cost %d",
						view.IDAt(self), view.IDAt(k), seq, said[i].Hop, said[i].Cost, view.IDAt(int(d)), view.IDAt(k), w.Hop, w.Cost)
				}
				l.checks++
			}
		}
	}
}

// done requires the run to have exercised deltas, refusals and answers.
func (l *recLedger) done() {
	l.t.Logf("%d held recommendation entries checked; %d deltas sent, %d refused, %d sent again at a seq", l.checks, l.deltas, l.refusals, l.answers)
	if l.checks == 0 || l.deltas == 0 || l.refusals == 0 || l.answers == 0 {
		l.t.Errorf("the run exercised too little of the recommendation deltas")
	}
}

// oracleEntry is the entry rendezvous q, at slot self of view, computes for
// client a about destination b, by the scalar kernel over its table and its
// live self row: a pair is computed from this node, when it is an end, else
// from its lower slot on a symmetric table, and read from the other end
// turned; a directional table computes each direction from its source.
func oracleEntry(q *core.Quorum, view *membership.ViewInfo, self, a, b int) wire.RecEntry {
	table := q.Table()
	var selfOut, selfIn []wire.Cost
	if table.Directional() {
		e := q.SelfAsymRow()
		selfOut, selfIn = lsdb.UnpackOutCosts(nil, e), lsdb.UnpackInCosts(nil, e)
	} else {
		selfOut = lsdb.UnpackCosts(nil, q.SelfRow())
		selfIn = selfOut
	}
	out := func(s int) []wire.Cost {
		if s == self {
			return selfOut
		}
		return table.OutRow(s)
	}
	in := func(s int) []wire.Cost {
		if s == self {
			return selfIn
		}
		return table.InRow(s)
	}
	x, y := a, b
	if !table.Directional() && (b == self || (a != self && b < a)) {
		x, y = b, a
	}
	hop, cost := lsdb.BestOneHopRows(x, out(x), in(y))
	if x != a && hop == y {
		hop = x
	}
	e := wire.RecEntry{Hop: wire.NilNode, Cost: cost}
	if hop >= 0 {
		e.Hop = view.IDAt(hop)
	}
	return e
}
