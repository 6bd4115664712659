package emul

import (
	"slices"
	"testing"
	"time"

	"allpairs/internal/core"
	"allpairs/internal/lsdb"
	"allpairs/internal/overlay"
	"allpairs/internal/probe"
	"allpairs/internal/traces"
	"allpairs/internal/wire"
)

// TestHeldRowsAreAnnouncedRows runs static fleets of both routers on links
// that drop 10 % of datagrams, duplicate 2 % and jitter them by up to 20 ms,
// and records each node's announced rows by (node, seq): a full row as it
// goes on the wire, a delta's row through the SelfRow (SelfAsymRow) call that
// announced it. A sequence number names one row — a full row sent again at a
// seq, as a refusal's answer or a failover push, is the row first announced
// there — and every few seconds throughout the run every row any node holds
// has exactly the costs of the row its sender announced at the held seq. The
// quorum runs with directional rows and with reliable delivery on and off.
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
			const n = 25
			f := NewFleet(FleetOptions{N: n, Algorithm: tc.algo, Seed: 3, Env: traces.Generate(n, 3, traces.Config{}),
				Probe: probe.Config{Asymmetric: tc.cfg.Asymmetric}, Quorum: tc.cfg})
			for a := range n {
				for b := range n {
					if a != b {
						f.Net.SetLoss(a, b, 0.1)
						f.Net.SetDuplication(a, b, 0.02)
						f.Net.SetJitter(a, b, 20*time.Millisecond)
					}
				}
			}
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
			account := f.Net.OnSend
			mismatched := 0
			// deltas, refused and answers count the deltas sent, the refusals
			// (link-state acks of seq 0) and the full rows sent at a seq sent
			// as a delta: refusals answered, and failover pushes.
			deltas, refused, answers := 0, 0, 0
			sentDelta := map[[2]int]bool{}
			f.Net.OnSend = func(from, to int, p []byte) {
				account(from, to, p)
				h, body, err := wire.ParseHeader(p)
				if err != nil {
					return
				}
				var seq uint32
				var got costs
				switch h.Type {
				case wire.TLinkStateAck:
					if seq, err := wire.ParseLinkStateAck(body); err == nil && seq == 0 {
						refused++
					}
					return
				case wire.TLinkStateDelta:
					d, err := wire.LinkStateDeltaBody(body)
					if err != nil {
						t.Fatalf("node %d sent a malformed delta: %v", from, err)
					}
					seq, got = d.Seq, latest[from]
					deltas++
					sentDelta[[2]int{from, int(seq)}] = true
				case wire.TLinkState, wire.TLinkStateAsym:
					var entries []byte
					_, seq, entries, err = wire.LinkStateBody(h.Type, body)
					if err != nil {
						t.Fatalf("node %d sent a malformed row: %v", from, err)
					}
					got = wireCosts(h.Type, entries)
					if sentDelta[[2]int{from, int(seq)}] {
						answers++
					}
				default:
					return
				}
				key := [2]int{from, int(seq)}
				if was, ok := announced[key]; !ok {
					announced[key] = costs{slices.Clone(got.out), slices.Clone(got.in)}
				} else if (h.Type != wire.TLinkStateDelta) && (!slices.Equal(was.out, got.out) || !slices.Equal(was.in, got.in)) {
					if mismatched++; mismatched == 1 {
						t.Errorf("node %d sent two rows at seq %d", from, seq)
					}
				}
			}
			checks := 0
			for range 48 {
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
						checks++
					}
				}
			}
			t.Logf("%d held rows checked; %d deltas sent, %d refused, %d full rows sent at a delta's seq", checks, deltas, refused, answers)
			if checks == 0 || (tc.algo == overlay.AlgQuorum && (deltas == 0 || refused == 0 || answers == 0)) {
				t.Errorf("%d rows checked, %d deltas, %d refusals, %d answers: the run exercised too little", checks, deltas, refused, answers)
			}
		})
	}
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
			rows[wire.PeekType(p)]++
		}
		f.Run(5 * time.Minute)
		share := float64(rows[wire.TLinkStateDelta]) / float64(rows[wire.TLinkStateDelta]+rows[wire.TLinkState])
		t.Logf("loss %.2f: %d deltas, %d full rows, %d acks", tc.loss, rows[wire.TLinkStateDelta], rows[wire.TLinkState], rows[wire.TLinkStateAck])
		if share < tc.min || share > tc.max {
			t.Errorf("links at %.0f %% loss: %.3f of the rows went as deltas, want %.2f–%.2f", 100*tc.loss, share, tc.min, tc.max)
		}
	}
}
