package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The queue's contract is its order: events run by (at, seq), a stopped timer
// keeps its place (and its count in Pending) until popped, and Stop reports
// whether it prevented the callback. modelNet states that contract in the
// plainest form — a slice kept in scheduling order, stable-sorted by timestamp
// whenever the earliest event is wanted — and TestQueueMatchesModel drives it
// and a Network through the same seeded mix of operations, comparing what
// fires, when, what every Stop returns and Pending after every step.

// op is one operation of the mix. Both sides interpret the same op values, at
// top level and again from inside callbacks (then), so a divergence anywhere
// shows up as a difference between the two logs.
type op struct {
	kind   opKind
	delay  time.Duration // opAfter
	then   []op          // opAfter: run by the callback; opSend: run by the receiving handler
	handle int           // opStop: index into the timers created so far (past the end: a nil *Timer)
	to     int           // opSend: destination endpoint (from is always 0)
	until  time.Duration // opRunUntil
}

type opKind int

const (
	opAfter opKind = iota
	opStop
	opSend
	opStep
	opRunUntil
)

// side is what an op is applied to: the Network under test or the model.
type side interface {
	after(d time.Duration, then []op)
	stop(handle int)
	send(to int, then []op)
	step()
	runUntil(t time.Duration)
}

func apply(s side, o op) {
	switch o.kind {
	case opAfter:
		s.after(o.delay, o.then)
	case opStop:
		s.stop(o.handle)
	case opSend:
		s.send(o.to, o.then)
	case opStep:
		s.step()
	case opRunUntil:
		s.runUntil(o.until)
	}
}

// The link plan both sides share: endpoint 0 sends to 1..3 over links with
// latency only, latency + jitter, and latency + jitter + duplication + loss.
const modelEndpoints = 4

type modelLink struct {
	latency, jitter time.Duration
	loss, dup       float64
}

var modelLinks = [modelEndpoints]modelLink{
	1: {latency: 3 * time.Millisecond},
	2: {latency: 2 * time.Millisecond, jitter: 4 * time.Millisecond},
	3: {latency: time.Millisecond, jitter: 2 * time.Millisecond, loss: 0.2, dup: 0.5},
}

// realSide applies ops to a Network.
type realSide struct {
	nw     *Network
	timers []*Timer
	sends  [][]op // then-lists by packet number, which the payload carries
	log    []string
}

func newRealSide(seed int64) *realSide {
	r := &realSide{nw: New(modelEndpoints, seed)}
	for to, l := range modelLinks {
		r.nw.SetLatency(0, to, l.latency)
		r.nw.SetJitter(0, to, l.jitter)
		r.nw.SetLoss(0, to, l.loss)
		r.nw.SetDuplication(0, to, l.dup)
		r.nw.SetHandler(to, func(from int, payload []byte) {
			n := int(payload[0])<<8 | int(payload[1])
			r.log = append(r.log, fmt.Sprintf("packet %d at %d @%v", n, to, r.nw.Elapsed()))
			for _, o := range r.sends[n] {
				apply(r, o)
			}
		})
	}
	return r
}

func (r *realSide) after(d time.Duration, then []op) {
	id := len(r.timers)
	r.timers = append(r.timers, r.nw.After(d, func() {
		r.log = append(r.log, fmt.Sprintf("timer %d @%v", id, r.nw.Elapsed()))
		for _, o := range then {
			apply(r, o)
		}
	}))
}

func (r *realSide) stop(handle int) {
	var t *Timer
	if handle < len(r.timers) {
		t = r.timers[handle]
	}
	r.log = append(r.log, fmt.Sprintf("stop %d = %v", handle, t.Stop()))
}

func (r *realSide) send(to int, then []op) {
	n := len(r.sends)
	r.sends = append(r.sends, then)
	r.nw.Send(0, to, []byte{byte(n >> 8), byte(n)})
}

func (r *realSide) step() {
	r.log = append(r.log, fmt.Sprintf("step = %v", r.nw.Step()))
}

func (r *realSide) runUntil(t time.Duration) {
	r.nw.RunUntil(t)
	r.log = append(r.log, fmt.Sprintf("ran until %v, now %v", t, r.nw.Elapsed()))
}

// modelEvent is one scheduled event of the model: a timer (packet < 0) or one
// packet copy in flight.
type modelEvent struct {
	at      time.Duration
	timer   int // index into modelNet.timers, for the log
	packet  int // packet number, or -1 for a timer
	to      int
	then    []op
	stopped bool
	fired   bool
}

// modelNet is the reference: events in scheduling order, the earliest found
// by a stable sort on the timestamp alone.
type modelNet struct {
	now    time.Duration
	rng    *rand.Rand // mirrors the Network's: same seed, same draws in the same order
	queue  []*modelEvent
	timers []*modelEvent
	sends  int
	log    []string
}

func (m *modelNet) schedule(d time.Duration, ev *modelEvent) {
	ev.at = m.now + max(d, 0)
	m.queue = append(m.queue, ev)
}

// popEarliest removes the event that must run next. The queue is in
// scheduling order, so a stable sort by timestamp is the (at, seq) order.
func (m *modelNet) popEarliest() *modelEvent {
	slices.SortStableFunc(m.queue, func(a, b *modelEvent) int { return cmp.Compare(a.at, b.at) })
	ev := m.queue[0]
	m.queue = m.queue[1:]
	return ev
}

// run executes one popped event, reporting false for a stopped timer. The
// clock reaches the event's time either way.
func (m *modelNet) run(ev *modelEvent) bool {
	m.now = ev.at
	if ev.stopped {
		return false
	}
	ev.fired = true
	if ev.packet >= 0 {
		m.log = append(m.log, fmt.Sprintf("packet %d at %d @%v", ev.packet, ev.to, m.now))
	} else {
		m.log = append(m.log, fmt.Sprintf("timer %d @%v", ev.timer, m.now))
	}
	for _, o := range ev.then {
		apply(m, o)
	}
	return true
}

func (m *modelNet) after(d time.Duration, then []op) {
	ev := &modelEvent{timer: len(m.timers), packet: -1, then: then}
	m.timers = append(m.timers, ev)
	m.schedule(d, ev)
}

func (m *modelNet) stop(handle int) {
	prevented := false
	if handle < len(m.timers) {
		ev := m.timers[handle]
		prevented = !ev.stopped && !ev.fired
		ev.stopped = true
	}
	m.log = append(m.log, fmt.Sprintf("stop %d = %v", handle, prevented))
}

func (m *modelNet) send(to int, then []op) {
	n := m.sends
	m.sends++
	l := modelLinks[to]
	if l.loss > 0 && m.rng.Float64() < l.loss {
		return
	}
	copies := 1
	if l.dup > 0 && m.rng.Float64() < l.dup {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		d := l.latency
		if l.jitter > 0 {
			d += time.Duration(m.rng.Int63n(int64(l.jitter)))
		}
		m.schedule(d, &modelEvent{packet: n, to: to, then: then})
	}
}

func (m *modelNet) step() {
	ran := false
	for len(m.queue) > 0 && !ran {
		ran = m.run(m.popEarliest())
	}
	m.log = append(m.log, fmt.Sprintf("step = %v", ran))
}

func (m *modelNet) runUntil(t time.Duration) {
	for len(m.queue) > 0 {
		ev := m.popEarliest()
		if ev.at > t {
			m.queue = append([]*modelEvent{ev}, m.queue...) // still sorted
			break
		}
		m.run(ev)
	}
	m.now = max(m.now, t)
	m.log = append(m.log, fmt.Sprintf("ran until %v, now %v", t, m.now))
}

// The wheel's geometry as durations: one tick, and the span of its buckets.
const (
	tick = time.Duration(1) << tickShift
	span = tick * wheelSize
)

// draws is the randomness randomOp consumes: a *rand.Rand in the model test,
// the fuzzer's bytes in the fuzz target.
type draws interface{ Intn(n int) int }

// byteDraws decodes a fuzz input: each draw takes as many bytes as n needs,
// and an exhausted input reads as zeros.
type byteDraws struct{ b []byte }

func (d *byteDraws) Intn(n int) int {
	v := 0
	for m := 1; m < n; m <<= 8 {
		v <<= 8
		if len(d.b) > 0 {
			v |= int(d.b[0])
			d.b = d.b[1:]
		}
	}
	return v % n
}

// randomOp draws one operation. Delays repeat a few values so that equal
// timestamps — where only scheduling order decides — are the common case, and
// sit on the wheel's edges: one short of, on and one past a tick, the span
// and several spans. Callbacks schedule, stop and send in turn, down to depth
// levels.
func randomOp(rng draws, depth int, timers *int, horizon time.Duration) op {
	delays := []time.Duration{0, 0, -time.Millisecond, time.Millisecond, time.Millisecond,
		3 * time.Millisecond, 7 * time.Millisecond, time.Hour,
		tick - 1, tick, tick + 1, span - tick, span, span + 1, 3 * span, 7*span + tick/2}
	nested := func() []op {
		if depth == 0 {
			return nil
		}
		then := make([]op, rng.Intn(3))
		for i := range then {
			then[i] = randomOp(rng, depth-1, timers, horizon)
		}
		return then
	}
	k := rng.Intn(10)
	if depth < 2 && k >= 7 {
		k = rng.Intn(7) // Step and RunUntil are top-level only: the loop is not re-entrant
	}
	switch {
	case k < 4:
		*timers++
		return op{kind: opAfter, delay: delays[rng.Intn(len(delays))], then: nested()}
	case k < 5:
		// Any timer scheduled so far, and now and then one past the end (nil).
		// Inside a callback the target may not exist yet on either side, which
		// also exercises the nil handle.
		return op{kind: opStop, handle: rng.Intn(*timers + 2)}
	case k < 7:
		return op{kind: opSend, to: 1 + rng.Intn(modelEndpoints-1), then: nested()}
	case k < 9:
		return op{kind: opStep}
	default:
		// Marks land on the few-millisecond lattice the delays make, so a mark
		// is often exactly an event's timestamp, or exactly one short of it.
		// One in four jumps past the wheel's span: the cursor then skips
		// empty buckets, or stays behind while later pushes go past its span,
		// or stops at the mark's tick with that tick's events still to run.
		until := horizon + time.Duration(rng.Intn(8))*time.Millisecond - time.Duration(rng.Intn(2))
		if rng.Intn(4) == 0 {
			until += time.Duration(1+rng.Intn(3))*span - tick
		}
		return op{kind: opRunUntil, until: until}
	}
}

// checkWheel checks the queue's layout against its invariant: heap ticks =
// cursor < bucket ticks < cursor + span ≤ far ticks, each bucket entry in its
// tick's bucket, the bitmap and count matching the lists, and a clock whose
// tick is not below the cursor.
func checkWheel(t *testing.T, what string, nw *Network) {
	t.Helper()
	q := &nw.queue
	if c := tickOf(nw.now); c < q.cursor {
		t.Fatalf("%s: clock tick %d behind cursor %d", what, c, q.cursor)
	}
	for _, e := range q.heap {
		if tickOf(e.at) != q.cursor {
			t.Fatalf("%s: heap holds tick %d, cursor %d", what, tickOf(e.at), q.cursor)
		}
	}
	for _, e := range q.far {
		if tickOf(e.at) < q.cursor+wheelSize {
			t.Fatalf("%s: far heap holds tick %d inside the span of cursor %d", what, tickOf(e.at), q.cursor)
		}
	}
	wheeled := 0
	for b := range q.head {
		for i := q.head[b]; i > 0; i = q.nodes[i-1].next {
			wheeled++
			tk := tickOf(q.nodes[i-1].e.at)
			if tk <= q.cursor || tk >= q.cursor+wheelSize || int(tk&wheelMask) != b {
				t.Fatalf("%s: bucket %d holds tick %d, cursor %d", what, b, tk, q.cursor)
			}
		}
		if occupied := q.occupied[b>>6]&(1<<(b&63)) != 0; occupied != (q.head[b] != 0) {
			t.Fatalf("%s: bucket %d occupancy bit %v, list empty %v", what, b, occupied, q.head[b] == 0)
		}
	}
	if wheeled != q.wheeled {
		t.Fatalf("%s: buckets hold %d entries, count says %d", what, wheeled, q.wheeled)
	}
}

// matchModel drives a Network and the model through ops drawn from rng until
// more reports false, checking what fires, the clock and Pending after every
// op, then drains both and checks that no stale handle reaches a live record.
func matchModel(t *testing.T, seed int64, rng draws, more func(i int) bool) {
	t.Helper()
	real := newRealSide(seed)
	model := &modelNet{rng: rand.New(rand.NewSource(seed))}
	timers := 0
	check := func(what string) {
		t.Helper()
		if got, want := real.nw.Pending(), len(model.queue); got != want {
			t.Fatalf("seed %d, %s: Pending() = %d, model holds %d", seed, what, got, want)
		}
		if got, want := real.nw.Elapsed(), model.now; got != want {
			t.Fatalf("seed %d, %s: clock %v, model %v", seed, what, got, want)
		}
		checkWheel(t, fmt.Sprintf("seed %d, %s", seed, what), real.nw)
		if !slices.Equal(real.log, model.log) {
			for i := range real.log {
				if i >= len(model.log) || real.log[i] != model.log[i] {
					t.Fatalf("seed %d, %s: log diverges at entry %d: got %q, model %q",
						seed, what, i, real.log[i], append(model.log, "<end>")[i])
				}
			}
			t.Fatalf("seed %d, %s: log ends early: model continues with %q", seed, what, model.log[len(real.log)])
		}
	}
	for i := 0; more(i); i++ {
		o := randomOp(rng, 2, &timers, model.now)
		apply(real, o)
		apply(model, o)
		check(fmt.Sprintf("op %d (%+v)", i, o))
	}
	// Drain: the far timers and everything callbacks left behind.
	for len(model.queue) > 0 {
		apply(real, op{kind: opStep})
		apply(model, op{kind: opStep})
		check("drain")
	}
	if real.nw.Step() {
		t.Fatalf("seed %d: network ran an event the model never held", seed)
	}
	// Every handle is stale now. None may report a prevented callback, and
	// none may reach a recycled packet record: sends made after this must
	// all arrive.
	for h := range real.timers {
		if real.timers[h].Stop() {
			t.Fatalf("seed %d: Stop on drained timer %d returned true", seed, h)
		}
	}
	delivered := real.nw.Delivered()
	for i := 0; i < 8; i++ {
		real.send(1, nil)
	}
	for h := range real.timers {
		real.timers[h].Stop()
	}
	real.nw.RunFor(time.Second)
	if got := real.nw.Delivered() - delivered; got != 8 {
		t.Fatalf("seed %d: %d of 8 packets arrived after stale Stops", seed, got)
	}
}

// modelSeeds and modelOps size TestQueueMatchesModel; its seeds also seed the
// fuzz corpus.
const (
	modelSeeds = 40
	modelOps   = 400
)

func modelRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed * 7919)) }

func TestQueueMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= modelSeeds; seed++ {
		matchModel(t, seed, modelRand(seed), func(i int) bool { return i < modelOps })
	}
}

// FuzzQueueMatchesModel is TestQueueMatchesModel with the op mix decoded from
// the fuzzer's bytes. The corpus starts from the model test's seeds: the
// bytes of each seed's generator.
func FuzzQueueMatchesModel(f *testing.F) {
	for seed := int64(1); seed <= modelSeeds; seed++ {
		b := make([]byte, 1024)
		modelRand(seed).Read(b)
		f.Add(seed, b)
	}
	f.Fuzz(func(t *testing.T, seed int64, b []byte) {
		d := &byteDraws{b: b}
		matchModel(t, seed, d, func(i int) bool { return len(d.b) > 0 && i < modelOps })
	})
}

// TestStepOverStoppedTimersMovesTheClock is the fuzzer's reproducer (its
// corpus entry step-over-stopped-timer): a Step that pops only a stopped
// timer moves the wheel's cursor to the timer's tick, so it must move the
// clock there too, or the next After lands in the heap behind the cursor.
func TestStepOverStoppedTimersMovesTheClock(t *testing.T) {
	nw := New(1, 1)
	nw.After(time.Hour, func() {}).Stop()
	if nw.Step() {
		t.Fatal("Step ran a stopped timer")
	}
	checkWheel(t, "after a Step over a stopped timer", nw)
	if nw.Elapsed() != time.Hour {
		t.Errorf("clock %v after stepping over a timer due at 1h", nw.Elapsed())
	}
}

// TestSameInstantSchedulingOrder spells out the tie rule the random mix leans
// on: an event scheduled from inside a callback for the current instant runs
// after everything already queued for that instant.
func TestSameInstantSchedulingOrder(t *testing.T) {
	nw := New(1, 1)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	nw.After(time.Millisecond, func() {
		order = append(order, "a")
		nw.After(0, note("a.child"))
		nw.After(-time.Second, note("a.child.negative"))
	})
	nw.After(time.Millisecond, note("b"))
	nw.Send(0, 0, nil) // zero latency: queued for instant 0, ahead of the timers
	nw.SetHandler(0, func(int, []byte) { order = append(order, "packet") })
	nw.RunUntil(time.Millisecond)
	want := []string{"packet", "a", "b", "a.child", "a.child.negative"}
	if !slices.Equal(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if nw.Pending() != 0 {
		t.Errorf("Pending() = %d after RunUntil at the events' exact timestamp", nw.Pending())
	}
}
