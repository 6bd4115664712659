// Package probe implements RON-style link monitoring (§5, "Link
// Monitoring"): every node pings every other node each probing interval,
// maintains an EWMA latency and loss estimate per link, and marks a link
// dead after 5 consecutive losses. After a first loss the probing rate
// temporarily increases (the paper's rapid failure detection), so failures
// are detected within about one probing interval.
//
// The prober is passive with respect to scheduling ownership: it runs one
// scheduler per node — each link keeps a single deadline (schedule.go) and one
// timer through the node's transport.Env wakes the prober for the earliest —
// and exposes the measured link-state row that the routing layer announces.
//
// A link is its estimates: 32 pointer-free bytes per destination. The one-way
// estimates exist only in asymmetric mode, and the two smoothing factors are
// constants, not per-link state.
package probe

import (
	"time"

	"allpairs/internal/grid"
	"allpairs/internal/lsdb"
	"allpairs/internal/membership"
	"allpairs/internal/stats"
	"allpairs/internal/transport"
	"allpairs/internal/wire"
)

// Config tunes the prober. Zero values take the paper's defaults.
type Config struct {
	// Interval is the probing interval p (default 30 s).
	Interval time.Duration
	// ReplyTimeout is how long to wait for a probe reply before declaring
	// the probe lost (default 3 s; Internet RTTs fit comfortably).
	ReplyTimeout time.Duration
	// FailThreshold is the number of consecutive losses that mark a link
	// dead (default 5, as in RON).
	FailThreshold int
	// Asymmetric additionally estimates one-way latencies from the probe
	// reply's receive timestamp (footnote 2's "both costs"). Requires
	// synchronized clocks across the overlay: exact under the simulator,
	// NTP-grade in real deployments. Negative one-way estimates (clock skew
	// exceeding the latency) are clamped to zero.
	Asymmetric bool
	// RampIntervals spreads a cold start over several probing intervals: a
	// node whose links have never been measured probes its rendezvous row
	// and column within the first interval (those links feed the quorum
	// routing immediately) and staggers the rest uniformly over
	// RampIntervals intervals, so one join at n ≥ 1000 no longer bursts n
	// probes into one tick. Values ≤ 1 keep the classic single-interval
	// stagger (the default; static fleets depend on it).
	RampIntervals int
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.ReplyTimeout <= 0 {
		c.ReplyTimeout = 3 * time.Second
	}
	if c.ReplyTimeout > c.Interval {
		c.ReplyTimeout = c.Interval / 2
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 5
	}
}

// EWMA smoothing factors for a link's latency and loss-rate estimates, and
// the divisor of Interval for the accelerated probing that follows a first
// loss (five rapid probes fit in one interval).
const (
	latencyAlpha = 0.5
	lossAlpha    = 0.1
	rapidFactor  = 5
)

// linkState is the per-destination probe machine. Its deadline — the reply
// deadline while a probe is awaited, the next send otherwise — lives in the
// prober's schedule.
type linkState struct {
	seq       uint32 // of the last probe sent: the awaited one while awaiting
	consec    uint32 // consecutive losses
	awaiting  bool
	alive     bool
	everAlive bool    // a reply has been folded in, so latency (and the link's oneWay) is seeded
	lossSeen  bool    // a probe has been resolved either way, so loss is seeded
	latency   float64 // EWMA round trip, ms
	loss      float64 // EWMA loss rate
}

// oneWay is a link's one-way latency estimates (EWMA, ms), seeded with latency.
type oneWay struct{ out, in float64 }

// Prober monitors the links from one node to every other node in the view.
type Prober struct {
	env  transport.Env
	cfg  Config
	view *membership.ViewInfo
	self int

	links   []linkState
	row     []wire.LinkEntry
	oneWays []oneWay         // per link; maintained only in asymmetric mode
	asymRow []wire.AsymEntry // likewise

	// One scheduler for every link: sched holds their deadlines and the one
	// timer is armed for the earliest. A reply only moves a deadline later, so
	// it never arms: a wake that comes early finds nothing due and re-arms.
	sched  schedule
	epoch  time.Time       // deadlines count from here
	timer  transport.Timer // fires wake
	armed  time.Duration   // when timer fires; never while none is pending
	wakeFn func()          // p.wake, bound once

	// OnMeasure, if non-nil, is invoked on every successful RTT measurement.
	OnMeasure func(slot int, rtt time.Duration)
}

// New creates a prober for the node occupying slot self in view.
func New(env transport.Env, cfg Config, view *membership.ViewInfo, self int) *Prober {
	cfg.fill()
	p := &Prober{env: env, cfg: cfg, view: view, self: self, epoch: env.Now()}
	p.wakeFn = p.wake
	p.reset(view, self)
	return p
}

// reset rebuilds per-destination state for a view.
func (p *Prober) reset(view *membership.ViewInfo, self int) {
	p.disarm()
	n := view.Slots()
	p.sched = schedule{}
	p.sched.grow(n)
	p.view = view
	p.self = self
	p.links = make([]linkState, n) // the zero linkState is a never-measured destination
	p.row = make([]wire.LinkEntry, n)
	for i := range p.row {
		p.row[i] = wire.LinkEntry{Latency: 0, Status: wire.StatusDead}
	}
	lsdb.SelfRow(self, p.row)
	if p.cfg.Asymmetric {
		p.oneWays = make([]oneWay, n)
		p.asymRow = make([]wire.AsymEntry, n)
		for i := range p.asymRow {
			p.asymRow[i] = wire.AsymEntry{Status: wire.StatusDead}
		}
		p.asymRow[self] = wire.AsymEntry{Status: wire.MakeStatus(true, 0)}
	}
}

// SetView installs a new membership view, with exactly two outcomes. A
// stable extension (membership.StableExtension — the only kind of change a
// coordinator reign produces) touches nothing but the slots the change
// names: unchanged members keep their link state, deadlines, and in-flight
// probes bit-for-bit; retired slots lose their deadline and reset cold;
// started slots get a staggered first probe. Any other install goes cold, as
// a new prober does: the timer is stopped, every link forgotten, and probing
// restarts from scratch — estimates are owned by node IDs, and nothing ties
// the old slots to the new ones.
func (p *Prober) SetView(view *membership.ViewInfo, self int) {
	retired, started, stable := membership.StableExtension(p.view, p.self, view, self)
	if !stable {
		p.reset(view, self)
		p.Start()
		return
	}
	n, old := view.Slots(), len(p.links)
	p.view = view
	if n > old {
		// Per-slot tables live as long as the view: each is resized once, to
		// exactly n, where appending would leave spare capacity behind.
		p.links = append(make([]linkState, 0, n), p.links...)[:n]
		p.row = append(make([]wire.LinkEntry, 0, n), p.row...)[:n]
		for s := old; s < n; s++ {
			p.row[s] = wire.LinkEntry{Latency: 0, Status: wire.StatusDead}
		}
		if p.asymRow != nil {
			p.oneWays = append(make([]oneWay, 0, n), p.oneWays...)[:n]
			p.asymRow = append(make([]wire.AsymEntry, 0, n), p.asymRow...)[:n]
			for s := old; s < n; s++ {
				p.asymRow[s] = wire.AsymEntry{Status: wire.StatusDead}
			}
		}
	}
	p.sched.grow(n)
	// A reused slot (retired and started at once) probes fresh: the estimates
	// belonged to the departed node, not the slot.
	for _, s := range retired {
		p.links[s] = linkState{}
		p.sched.set(s, never)
		p.row[s] = wire.LinkEntry{Latency: 0, Status: wire.StatusDead}
		if p.asymRow != nil {
			p.oneWays[s] = oneWay{}
			p.asymRow[s] = wire.AsymEntry{Status: wire.StatusDead}
		}
	}
	now := p.now()
	for _, s := range started {
		p.sched.set(s, now+time.Duration(p.env.Rand().Int63n(int64(p.cfg.Interval))))
	}
	p.arm(now)
}

// now is the env's clock on the schedule's scale.
func (p *Prober) now() time.Duration { return p.env.Now().Sub(p.epoch) }

// arm makes the one timer fire no later than the earliest deadline. It never
// moves a pending timer later.
func (p *Prober) arm(now time.Duration) {
	if next := p.sched.due[p.sched.first()]; next < p.armed {
		p.disarm()
		p.armed = next
		p.timer = p.env.After(next-now, p.wakeFn)
	}
}

// disarm stops the timer.
func (p *Prober) disarm() {
	if p.timer != nil {
		p.timer.Stop()
	}
	p.armed = never
}

// wake serves, in (deadline, slot) order, every link whose deadline has
// passed — a probe still awaited is counted lost, otherwise the next one is
// sent, and either moves that link's deadline later — then re-arms the timer.
func (p *Prober) wake() {
	p.armed = never // the timer has fired
	now := p.now()
	for slot := p.sched.first(); p.sched.due[slot] <= now; slot = p.sched.first() {
		if p.links[slot].awaiting {
			p.onTimeout(slot, now)
		} else {
			p.sendProbe(slot, now)
		}
	}
	p.arm(now)
}

// Start begins probing all destinations, staggering initial probes uniformly
// across one interval to avoid synchronized bursts. With RampIntervals > 1,
// never-measured links outside the node's rendezvous row and column are
// instead spread over the ramp window: the rendezvous links come up first
// (they are what the quorum algorithm routes through), and the long tail of
// the mesh fills in over the next few intervals.
func (p *Prober) Start() {
	now := p.now()
	ramp := p.rampSlots()
	for slot := 0; slot < p.view.Slots(); slot++ {
		if slot == p.self || !p.view.Occupied(slot) {
			continue
		}
		window := p.cfg.Interval
		if ramp != nil && ramp[slot] {
			window = time.Duration(p.cfg.RampIntervals) * p.cfg.Interval
		}
		p.sched.set(slot, now+time.Duration(p.env.Rand().Int63n(int64(window))))
	}
	p.arm(now)
}

// rampSlots returns the set of slots eligible for ramped (delayed) initial
// probing, or nil when ramping is off or not useful: only cold links — never
// alive, so nothing downstream is waiting on a refresh — outside the node's
// grid row and column are ramped.
func (p *Prober) rampSlots() []bool {
	if p.cfg.RampIntervals <= 1 || p.view.N() <= 3 {
		return nil
	}
	g, err := grid.NewMasked(p.view.Slots(), p.view.OccupiedMask())
	if err != nil {
		return nil
	}
	rendezvous := make([]bool, p.view.Slots())
	for _, s := range g.Servers(p.self) {
		rendezvous[s] = true
	}
	ramp := make([]bool, p.view.Slots())
	any := false
	for slot := range ramp {
		if slot != p.self && !rendezvous[slot] && !p.links[slot].everAlive {
			ramp[slot] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return ramp
}

// Stop ends probing: the timer is stopped and every link gives up its deadline
// and its probe in flight, so a reply that lands later starts nothing and
// Start sends first where it would have counted a loss.
func (p *Prober) Stop() {
	p.disarm()
	for slot := range p.links {
		p.links[slot].awaiting = false
		p.sched.set(slot, never)
	}
}

// Row returns the current measured link-state row, indexed by slot. The
// returned slice is the prober's live row; callers must copy it if they
// retain it across events.
func (p *Prober) Row() []wire.LinkEntry { return p.row }

// AsymRow returns the directional link-state row (nil unless the prober was
// configured with Asymmetric). Same ownership rules as Row.
func (p *Prober) AsymRow() []wire.AsymEntry { return p.asymRow }

// OneWay returns the current one-way latency estimates to and from a slot in
// milliseconds (asymmetric mode only).
func (p *Prober) OneWay(slot int) (out, in float64, ok bool) {
	if !p.cfg.Asymmetric || slot < 0 || slot >= len(p.links) || !p.links[slot].everAlive {
		return 0, 0, false
	}
	return p.oneWays[slot].out, p.oneWays[slot].in, true
}

// Alive reports the prober's liveness belief for a slot. The self slot is
// always alive.
func (p *Prober) Alive(slot int) bool {
	if slot == p.self {
		return true
	}
	if slot < 0 || slot >= len(p.links) {
		return false
	}
	return p.links[slot].alive
}

// Resolved reports whether any probe on the link to slot has resolved, answered
// or lost. Until one has, Alive's false means "not yet measured", not "dead".
// The self slot, and a slot outside the view, read resolved.
func (p *Prober) Resolved(slot int) bool {
	return slot == p.self || slot < 0 || slot >= len(p.links) || p.links[slot].lossSeen
}

// Latency returns the current EWMA latency estimate for a slot in
// milliseconds, or ok=false if the link has never been measured.
func (p *Prober) Latency(slot int) (ms float64, ok bool) {
	if slot < 0 || slot >= len(p.links) || !p.links[slot].everAlive {
		return 0, false
	}
	return p.links[slot].latency, true
}

// ConcurrentFailures returns the number of destinations currently marked
// dead that were alive at some point — the paper's "concurrent link
// failures" metric (Figure 8).
func (p *Prober) ConcurrentFailures() int {
	c := 0
	for i := range p.links {
		if i == p.self {
			continue
		}
		if p.links[i].everAlive && !p.links[i].alive {
			c++
		}
	}
	return c
}

// sendProbe transmits the next probe to slot; its deadline becomes the end of
// the reply window.
func (p *Prober) sendProbe(slot int, now time.Duration) {
	ls := &p.links[slot]
	ls.seq++
	ls.awaiting = true
	p.env.Send(p.view.IDAt(slot), wire.AppendProbe(nil, p.env.LocalID(), wire.Probe{
		Seq:  ls.seq,
		Echo: p.env.Now().UnixNano(),
	}))
	p.sched.set(slot, now+p.cfg.ReplyTimeout)
}

// onTimeout counts the awaited probe lost: slot's reply window has closed.
func (p *Prober) onTimeout(slot int, now time.Duration) {
	ls := &p.links[slot]
	ls.awaiting = false
	ls.consec++
	ls.resolved(1)
	if ls.alive && int(ls.consec) >= p.cfg.FailThreshold {
		ls.alive = false
		p.row[slot].Status = wire.StatusDead
	}
	p.updateStatus(slot)
	// Rapid re-probing until the link is declared dead; normal cadence
	// afterwards so recovery is still noticed.
	next := p.cfg.Interval
	if ls.consec > 0 && int(ls.consec) < p.cfg.FailThreshold {
		next = p.cfg.Interval / rapidFactor
		if next > p.cfg.ReplyTimeout {
			next -= p.cfg.ReplyTimeout
		}
	}
	p.sched.set(slot, now+next)
}

// HandleProbe answers an incoming probe. The overlay dispatches TProbe here.
func (p *Prober) HandleProbe(h wire.Header, body []byte) {
	pr, err := wire.ParseProbe(body)
	if err != nil {
		return
	}
	p.env.Send(h.Src, wire.AppendProbeReply(nil, p.env.LocalID(), wire.ProbeReply{
		Seq:    pr.Seq,
		Echo:   pr.Echo,
		RecvAt: p.env.Now().UnixNano(),
	}))
}

// HandleReply folds in a probe reply. The overlay dispatches TProbeReply
// here.
func (p *Prober) HandleReply(h wire.Header, body []byte) {
	r, err := wire.ParseProbeReply(body)
	if err != nil {
		return
	}
	slot, ok := p.view.SlotOf(h.Src)
	if !ok || slot == p.self {
		return
	}
	ls := &p.links[slot]
	if !ls.awaiting || r.Seq != ls.seq {
		return // duplicate or late reply
	}
	ls.awaiting = false
	now := p.env.Now()
	rtt := now.Sub(time.Unix(0, r.Echo))
	if rtt < 0 {
		rtt = 0
	}
	ls.consec = 0
	ls.resolved(0)
	// everAlive, set below, still says whether this is the link's first reply.
	ls.latency = stats.EWMA(ls.latency, float64(rtt)/float64(time.Millisecond), latencyAlpha, ls.everAlive)
	if p.cfg.Asymmetric {
		fwd := time.Duration(r.RecvAt - r.Echo)
		rev := now.Sub(time.Unix(0, r.RecvAt))
		if fwd < 0 {
			fwd = 0
		}
		if rev < 0 {
			rev = 0
		}
		ow := &p.oneWays[slot]
		ow.out = stats.EWMA(ow.out, float64(fwd)/float64(time.Millisecond), latencyAlpha, ls.everAlive)
		ow.in = stats.EWMA(ow.in, float64(rev)/float64(time.Millisecond), latencyAlpha, ls.everAlive)
	}
	ls.everAlive = true
	ls.alive = true
	p.updateStatus(slot)
	if p.OnMeasure != nil {
		p.OnMeasure(slot, rtt)
	}
	p.sched.set(slot, now.Sub(p.epoch)+p.cfg.Interval)
}

// resolved folds the outcome of one probe — 1 lost, 0 answered — into the
// link's loss rate.
func (ls *linkState) resolved(lost float64) {
	ls.loss = stats.EWMA(ls.loss, lost, lossAlpha, ls.lossSeen)
	ls.lossSeen = true
}

// updateStatus refreshes the row entry for slot from the link estimators.
func (p *Prober) updateStatus(slot int) {
	ls := &p.links[slot]
	if !ls.alive {
		p.row[slot].Status = wire.StatusDead
		if p.asymRow != nil {
			p.asymRow[slot].Status = wire.StatusDead
		}
		return
	}
	status := wire.MakeStatus(true, int(ls.loss*100+0.5))
	p.row[slot].Latency = clampMS(ls.latency)
	p.row[slot].Status = status
	if p.asymRow != nil {
		p.asymRow[slot] = wire.AsymEntry{
			Out:    clampMS(p.oneWays[slot].out),
			In:     clampMS(p.oneWays[slot].in),
			Status: status,
		}
	}
}

// clampMS converts a millisecond estimate to the wire's uint16 range.
func clampMS(v float64) uint16 {
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return uint16(v)
}
