package probe

import (
	"reflect"
	"testing"
	"time"

	"allpairs/internal/membership"
	"allpairs/internal/simnet"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// probePair wires two (or more) probers over a simulated network with the
// usual overlay dispatch.
type fixture struct {
	nw      *simnet.Network
	probers []*Prober
	envs    []*transport.SimEnv
}

func newFixture(t *testing.T, n int, cfg Config, latency time.Duration) *fixture {
	t.Helper()
	nw := simnet.New(n, 11)
	reg := transport.NewRegistry()
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	view := membership.NewStaticView(ids)
	f := &fixture{nw: nw}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				nw.SetLatency(a, b, latency)
			}
		}
	}
	for i := 0; i < n; i++ {
		i := i
		env := transport.NewSimEnv(nw, reg, i, int64(100+i))
		env.SetLocalID(wire.NodeID(i))
		pr := New(env, cfg, view, i)
		env.Bind(func(from wire.NodeID, payload []byte) {
			h, body, err := wire.ParseHeader(payload)
			if err != nil {
				return
			}
			switch h.Type {
			case wire.TProbe:
				pr.HandleProbe(h, body)
			case wire.TProbeReply:
				pr.HandleReply(h, body)
			}
		})
		f.probers = append(f.probers, pr)
		f.envs = append(f.envs, env)
	}
	return f
}

func (f *fixture) startAll() {
	for _, p := range f.probers {
		p.Start()
	}
}

func TestMeasuresLatency(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 2, cfg, 25*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)

	p := f.probers[0]
	if !p.Alive(1) {
		t.Fatal("link 0->1 not alive")
	}
	ms, ok := p.Latency(1)
	if !ok {
		t.Fatal("no latency estimate")
	}
	if ms < 45 || ms > 55 { // RTT = 2×25ms
		t.Errorf("latency = %.1f ms, want ≈50", ms)
	}
	row := p.Row()
	if row[1].Latency < 45 || row[1].Latency > 55 || !wire.StatusAlive(row[1].Status) {
		t.Errorf("row[1] = %+v", row[1])
	}
	if row[0].Latency != 0 || !wire.StatusAlive(row[0].Status) {
		t.Errorf("self entry = %+v", row[0])
	}
}

func TestSelfAlwaysAlive(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second}
	f := newFixture(t, 2, cfg, time.Millisecond)
	if !f.probers[0].Alive(0) {
		t.Error("self not alive")
	}
	if f.probers[0].Alive(-1) || f.probers[0].Alive(9) {
		t.Error("out-of-range slots alive")
	}
	if _, ok := f.probers[0].Latency(1); ok {
		t.Error("latency before any measurement")
	}
}

// TestResolvedWithinFirstProbe: a link reads unresolved until its first probe
// is answered or lost, which takes at most Interval + ReplyTimeout after
// Start — for a link dead from the start as for a live one.
func TestResolvedWithinFirstProbe(t *testing.T) {
	cfg := Config{Interval: 30 * time.Second, ReplyTimeout: 3 * time.Second}
	f := newFixture(t, 3, cfg, 10*time.Millisecond)
	f.nw.SetLinkDown(0, 2, true)
	p := f.probers[0]
	if !p.Resolved(0) || p.Resolved(1) || p.Resolved(2) {
		t.Fatalf("before any probe: resolved = %v %v %v, want true false false", p.Resolved(0), p.Resolved(1), p.Resolved(2))
	}
	f.startAll()
	f.nw.RunFor(cfg.Interval + cfg.ReplyTimeout)
	if !p.Resolved(1) || !p.Alive(1) || !p.Resolved(2) || p.Alive(2) {
		t.Errorf("after one probe each: link 1 resolved=%v alive=%v, link 2 resolved=%v alive=%v; want alive and dead, both resolved",
			p.Resolved(1), p.Alive(1), p.Resolved(2), p.Alive(2))
	}
}

func TestDetectsFailureWithinOnePeriod(t *testing.T) {
	// Paper: rapid probing after a first loss detects failure within ~1
	// probing interval of the first lost probe.
	cfg := Config{Interval: 30 * time.Second, ReplyTimeout: 3 * time.Second, FailThreshold: 5}
	f := newFixture(t, 2, cfg, 10*time.Millisecond)
	f.startAll()
	f.nw.RunFor(2 * time.Minute) // settle: both links alive
	if !f.probers[0].Alive(1) {
		t.Fatal("link not alive after settling")
	}

	f.nw.SetLinkDown(0, 1, true)
	failedAt := f.nw.Elapsed()
	// Scan forward until the prober notices; it must take less than
	// interval (until next probe) + interval (rapid detection window).
	deadline := failedAt + 2*cfg.Interval + 5*time.Second
	detected := time.Duration(0)
	for f.nw.Elapsed() < deadline {
		f.nw.RunFor(time.Second)
		if !f.probers[0].Alive(1) {
			detected = f.nw.Elapsed()
			break
		}
	}
	if detected == 0 {
		t.Fatal("failure never detected")
	}
	took := detected - failedAt
	if took > 2*cfg.Interval {
		t.Errorf("detection took %v, want ≤ 2 intervals (probe gap + rapid window)", took)
	}
	if f.probers[0].ConcurrentFailures() != 1 {
		t.Errorf("concurrent failures = %d", f.probers[0].ConcurrentFailures())
	}
	if f.probers[0].Row()[1].Status != wire.StatusDead {
		t.Error("row entry not marked dead")
	}
}

func TestRecoveryDetected(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second, FailThreshold: 3}
	f := newFixture(t, 2, cfg, 5*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)
	f.nw.SetLinkDown(0, 1, true)
	f.nw.RunFor(time.Minute)
	if f.probers[0].Alive(1) {
		t.Fatal("failure not detected")
	}
	f.nw.SetLinkDown(0, 1, false)
	f.nw.RunFor(time.Minute)
	if !f.probers[0].Alive(1) {
		t.Error("recovery not detected")
	}
	if f.probers[0].ConcurrentFailures() != 0 {
		t.Errorf("concurrent failures = %d after recovery", f.probers[0].ConcurrentFailures())
	}
}

func TestLossyLinkStaysAliveWithLossEstimate(t *testing.T) {
	cfg := Config{Interval: 5 * time.Second, ReplyTimeout: time.Second, FailThreshold: 5}
	f := newFixture(t, 2, cfg, 5*time.Millisecond)
	f.nw.SetLoss(0, 1, 0.3)
	f.startAll()
	f.nw.RunFor(10 * time.Minute)
	p := f.probers[0]
	if !p.Alive(1) {
		t.Fatal("moderately lossy link declared dead")
	}
	row := p.Row()
	if row[1].Status == 0 {
		t.Error("loss estimate is zero on a 30%-lossy link")
	}
	if row[1].Status == wire.StatusDead {
		t.Error("lossy link marked dead")
	}
}

func TestAsymmetricObservation(t *testing.T) {
	// Only 0→1 direction fails; node 1's probes to 0 also die because
	// replies to them cross the failed direction... in fact probes 1→0
	// travel 1→0 fine, but the reply 0→1 is dropped. Both sides see the
	// link as dead — matching the paper's bidirectional link model.
	cfg := Config{Interval: 5 * time.Second, ReplyTimeout: time.Second, FailThreshold: 3}
	f := newFixture(t, 2, cfg, 5*time.Millisecond)
	f.startAll()
	f.nw.RunFor(30 * time.Second)
	f.nw.SetLatencyOneWay(0, 1, 5*time.Millisecond) // no-op; keep symmetric config
	// Simulate one-way blackhole with per-direction loss.
	f.nw.SetLoss(0, 1, 0)
	f.probers[0].Stop()
	f.probers[1].Stop()
	// (Directional failure injection is exercised at the simnet layer; here
	// we simply verify Stop() silences the prober.)
	before := f.nw.Delivered()
	f.nw.RunFor(time.Minute)
	after := f.nw.Delivered()
	if after != before {
		t.Errorf("probes still flowing after Stop: %d -> %d", before, after)
	}
}

func TestSetViewRestartsCleanly(t *testing.T) {
	cfg := Config{Interval: 5 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 3, cfg, 5*time.Millisecond)
	f.startAll()
	f.nw.RunFor(30 * time.Second)
	if !f.probers[0].Alive(2) {
		t.Fatal("link not alive")
	}
	// Shrink the view to two nodes; slots are re-indexed.
	view := membership.NewStaticView([]wire.NodeID{0, 1})
	f.probers[0].SetView(view, 0)
	if len(f.probers[0].Row()) != 2 {
		t.Fatalf("row length = %d", len(f.probers[0].Row()))
	}
	f.nw.RunFor(30 * time.Second)
	if !f.probers[0].Alive(1) {
		t.Error("link 0->1 not re-established after view change")
	}
}

func TestDuplicateAndLateRepliesIgnored(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 2, cfg, time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)
	p := f.probers[0]
	before, _ := p.Latency(1)
	// Replay a stale reply with a bogus huge echo delta; must be ignored
	// because no probe is awaiting.
	h := wire.Header{Type: wire.TProbeReply, Src: 1}
	reply := wire.AppendProbeReply(nil, 1, wire.ProbeReply{Seq: 999, Echo: 0})
	_, body, _ := wire.ParseHeader(reply)
	p.HandleReply(h, body)
	after, _ := p.Latency(1)
	if before != after {
		t.Errorf("stale reply changed latency %v -> %v", before, after)
	}
}

func TestProbePacketsAreSmall(t *testing.T) {
	// The bandwidth model assumes header-only probe packets.
	b := wire.AppendProbe(nil, 3, wire.Probe{Seq: 1, Echo: 123})
	if len(b) != wire.HeaderLen+12 {
		t.Errorf("probe payload = %d bytes", len(b))
	}
}

func TestAsymmetricOneWayMeasurement(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second, Asymmetric: true}
	f := newFixture(t, 2, cfg, time.Millisecond)
	// Directed latencies: 0→1 is 40 ms, 1→0 is 10 ms.
	f.nw.SetLatencyOneWay(0, 1, 40*time.Millisecond)
	f.nw.SetLatencyOneWay(1, 0, 10*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)

	p := f.probers[0]
	out, in, ok := p.OneWay(1)
	if !ok {
		t.Fatal("no one-way estimates")
	}
	if out < 35 || out > 45 {
		t.Errorf("out = %.1f ms, want ≈40", out)
	}
	if in < 5 || in > 15 {
		t.Errorf("in = %.1f ms, want ≈10", in)
	}
	row := p.AsymRow()
	if row == nil {
		t.Fatal("no asym row")
	}
	if row[1].Out < 35 || row[1].Out > 45 || row[1].In < 5 || row[1].In > 15 {
		t.Errorf("asym row entry = %+v", row[1])
	}
	// RTT estimate remains the sum.
	rtt, _ := p.Latency(1)
	if rtt < 45 || rtt > 55 {
		t.Errorf("rtt = %.1f ms, want ≈50", rtt)
	}
	// Symmetric-mode prober returns no one-way data.
	cfg2 := Config{Interval: 10 * time.Second}
	f2 := newFixture(t, 2, cfg2, time.Millisecond)
	f2.startAll()
	f2.nw.RunFor(time.Minute)
	if _, _, ok := f2.probers[0].OneWay(1); ok {
		t.Error("symmetric prober produced one-way estimates")
	}
	if f2.probers[0].AsymRow() != nil {
		t.Error("symmetric prober has asym row")
	}
}

func TestDataWireRoundTrip(t *testing.T) {
	d := wire.Data{Origin: 3, Dst: 9, TTL: 7, Payload: []byte("hello")}
	b := wire.AppendData(nil, 5, d)
	if len(b) != wire.DataSize(5) {
		t.Errorf("size %d, want %d", len(b), wire.DataSize(5))
	}
	h, body, err := wire.ParseHeader(b)
	if err != nil || h.Type != wire.TData || h.Src != 5 {
		t.Fatalf("header %+v err %v", h, err)
	}
	got, err := wire.ParseData(body)
	if err != nil || got.Origin != 3 || got.Dst != 9 || got.TTL != 7 || string(got.Payload) != "hello" {
		t.Errorf("got %+v err %v", got, err)
	}
	if _, err := wire.ParseData(body[:3]); err == nil {
		t.Error("short data accepted")
	}
}

// slotView builds a view whose slot s holds ids[s]; wire.NilNode leaves a
// tombstone.
func slotView(t *testing.T, version uint32, ids ...wire.NodeID) *membership.ViewInfo {
	t.Helper()
	v := wire.View{Epoch: 1, Version: version, Slots: uint16(len(ids))}
	for s, id := range ids {
		if id != wire.NilNode {
			v.Members = append(v.Members, wire.Member{ID: id, Slot: uint16(s)})
		}
	}
	vi, err := membership.NewViewInfo(v)
	if err != nil {
		t.Fatal(err)
	}
	return vi
}

func TestSetViewCarriesMeasurements(t *testing.T) {
	// Three nodes measure each other, then a fourth joins: surviving links
	// must keep their EWMA latency and liveness across the view change
	// instead of going dark for a probing interval.
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 4, cfg, 25*time.Millisecond)
	old := membership.NewStaticView([]wire.NodeID{0, 1, 2})
	for i := 0; i < 3; i++ {
		f.probers[i].SetView(old, i)
	}
	f.nw.RunFor(time.Minute)
	p := f.probers[0]
	wantLat, ok := p.Latency(1)
	if !ok || !p.Alive(1) {
		t.Fatal("link 0->1 not measured before the view change")
	}
	for !p.links[1].awaiting { // change the view with a probe in flight
		f.nw.Step()
	}
	links := [2]linkState{p.links[1], p.links[2]}
	due := [2]time.Duration{p.sched.due[1], p.sched.due[2]}

	// Node 3 joins at a new slot; nobody moves.
	next := membership.NewStaticView([]wire.NodeID{0, 1, 2, 3})
	p.SetView(next, 0)
	if links != [2]linkState{p.links[1], p.links[2]} || due != [2]time.Duration{p.sched.due[1], p.sched.due[2]} {
		t.Error("surviving links' state, in-flight probe or deadline changed across SetView")
	}
	if d := p.sched.due[3] - p.now(); d < 0 || d >= cfg.Interval {
		t.Errorf("newcomer's first probe due in %v, want inside one interval", d)
	}
	if p.armed != p.sched.due[p.sched.first()] {
		t.Errorf("timer armed for %v, earliest deadline %v", p.armed, p.sched.due[p.sched.first()])
	}
	if !p.Alive(1) || !p.Alive(2) {
		t.Error("surviving links lost liveness across SetView")
	}
	got, ok := p.Latency(1)
	if !ok || got != wantLat {
		t.Errorf("carried latency = %.2f (ok=%v), want %.2f", got, ok, wantLat)
	}
	row := p.Row()
	if !wire.StatusAlive(row[1].Status) || row[1].Latency == 0 {
		t.Errorf("carried row entry = %+v", row[1])
	}
	// The newcomer starts cold, in per-slot tables sized exactly: they live as
	// long as the view, so churn must leave no spare capacity behind.
	if p.Alive(3) || wire.StatusAlive(row[3].Status) {
		t.Error("new member alive before any probe")
	}
	for name, c := range map[string]int{"links": cap(p.links), "row": cap(p.row),
		"due": cap(p.sched.due), "heap": cap(p.sched.heap), "pos": cap(p.sched.pos)} {
		if c != 4 {
			t.Errorf("%s has capacity %d after growing to 4 slots", name, c)
		}
	}
	if !wire.StatusAlive(row[0].Status) || row[0].Latency != 0 {
		t.Errorf("self entry = %+v", row[0])
	}
	// The probe in flight at the change is answered and folded in.
	seq := p.links[1].seq
	f.nw.RunFor(cfg.ReplyTimeout)
	if ls := p.links[1]; ls.awaiting || ls.seq != seq || ls.consec != 0 {
		t.Errorf("in-flight probe not folded in after SetView: %+v", ls)
	}
}

func TestSetViewRetiresDepartedSlot(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 3, cfg, 25*time.Millisecond)
	f.startAll()
	f.nw.RunFor(time.Minute)
	p := f.probers[0]
	lat2, ok := p.Latency(2)
	if !ok || !p.Alive(1) {
		t.Fatal("links not measured")
	}

	// Node 1 departs, leaving a tombstone: ID 2 keeps slot 2 and everything
	// measured about it; slot 1 goes cold and reads dead.
	due2 := p.sched.due[2]
	p.SetView(slotView(t, 2, 0, wire.NilNode, 2), 0)
	got, ok := p.Latency(2)
	if !ok || got != lat2 || !p.Alive(2) || p.sched.due[2] != due2 {
		t.Errorf("survivor's latency = %.2f (ok=%v alive=%v), want %.2f; deadline %v, want %v",
			got, ok, p.Alive(2), lat2, p.sched.due[2], due2)
	}
	if _, ok := p.Latency(1); ok || p.Alive(1) || wire.StatusAlive(p.Row()[1].Status) {
		t.Error("departed slot kept its measurements")
	}
	if p.links[1] != (linkState{}) || p.sched.due[1] != never {
		t.Errorf("departed slot not cold: %+v, deadline %v", p.links[1], p.sched.due[1])
	}
	delivered := f.nw.Delivered()
	f.nw.RunFor(time.Minute)
	if f.nw.Delivered() == delivered || !p.Alive(2) || p.Alive(1) {
		t.Error("probing did not carry on around the tombstone")
	}
}

// TestSetViewNonStableGoesCold: an install that cannot be a stable extension
// leaves the prober exactly as a new one on the same view — no estimate, no
// liveness, no deadline survives, since nothing ties the old slots to the new —
// and probing restarts from scratch.
func TestSetViewNonStableGoesCold(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second, Asymmetric: true}
	for _, tc := range []struct {
		name string
		ids  []wire.NodeID
		self int
	}{
		{"survivor moves slot", []wire.NodeID{0, 2, 1, 3}, 0},
		{"slot space shrinks", []wire.NodeID{0, 1, 2}, 0},
		{"own slot changes", []wire.NodeID{wire.NilNode, 1, 2, 3, 0}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 4, cfg, 25*time.Millisecond)
			f.startAll()
			f.nw.RunFor(time.Minute)
			p := f.probers[0]
			if !p.Alive(1) || !p.Alive(2) || !p.Alive(3) {
				t.Fatal("links not measured before the view change")
			}
			oldTimer := p.timer
			next := slotView(t, 2, tc.ids...)
			p.SetView(next, tc.self)
			fresh := New(f.envs[0], cfg, next, tc.self)
			if !reflect.DeepEqual(p.links, fresh.links) ||
				!reflect.DeepEqual(p.Row(), fresh.Row()) || !reflect.DeepEqual(p.AsymRow(), fresh.AsymRow()) ||
				p.view != next || p.self != tc.self {
				t.Errorf("state after a non-stable install differs from a fresh prober's:\n got %+v\nwant %+v", p.links, fresh.links)
			}
			if oldTimer.Stop() {
				t.Error("the old view's timer still armed")
			}
			// Its schedule is a fresh prober's after Start: a first probe
			// inside one interval for every other member, nothing else.
			if len(p.sched.due) != next.Slots() || p.armed != p.sched.due[p.sched.first()] {
				t.Errorf("%d deadlines for %d slots, timer armed for %v, earliest %v",
					len(p.sched.due), next.Slots(), p.armed, p.sched.due[p.sched.first()])
			}
			for s, due := range p.sched.due {
				if s == tc.self || !next.Occupied(s) {
					if due != never {
						t.Errorf("slot %d has a deadline", s)
					}
				} else if d := due - p.now(); d < 0 || d >= cfg.Interval {
					t.Errorf("slot %d first probe due in %v, want inside one interval", s, d)
				}
			}
		})
	}
}
