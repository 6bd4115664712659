package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"allpairs/internal/wire"
)

// class is the layer a simulator step is attributed to.
type class uint8

const (
	clsProbe class = iota
	clsLinkState
	clsRecommend
	clsTick
	clsMemberClient
	clsMemberCoord
	clsData
	clsOther
	numClasses
)

var classNames = [numClasses]string{
	"probe", "core.linkstate", "core.recommend", "core.tick",
	"membership.client", "membership.coord", "overlay.data", "other",
}

// plane is what a message type tells about the layer handling it; the
// endpoint (member or coordinator) and whether the step was a delivery or a
// timer decide the rest.
type plane uint8

const (
	planeNone plane = iota
	planeProbe
	planeLinkState
	planeRecommend
	planeMembership
	planeData
)

// planeOf lists every wire.MsgType explicitly: the smoke test fails on a
// type missing here, so a new message cannot silently fall into "other".
var planeOf = [256]plane{
	wire.TProbe:          planeProbe,
	wire.TProbeReply:     planeProbe,
	wire.TLinkState:      planeLinkState,
	wire.TLinkStateMH:    planeLinkState,
	wire.TLinkStateAsym:  planeLinkState,
	wire.TLinkStateAck:   planeLinkState,
	wire.TRecommendation: planeRecommend,
	wire.TJoin:           planeMembership,
	wire.TJoinReply:      planeMembership,
	wire.TLeave:          planeMembership,
	wire.THeartbeat:      planeMembership,
	wire.TView:           planeMembership,
	wire.TViewDelta:      planeMembership,
	wire.TViewRequest:    planeMembership,
	wire.THeartbeatAck:   planeMembership,
	wire.TCoordBeacon:    planeMembership,
	wire.TPreVote:        planeMembership,
	wire.TPreVoteReply:   planeMembership,
	wire.TGossipDelta:    planeMembership,
	wire.TViewPull:       planeMembership,
	wire.TViewPullReply:  planeMembership,
	wire.TViewChunk:      planeMembership,
	wire.TData:           planeData,
}

// classify attributes one step: a delivery step by the delivered type and
// the receiving endpoint, a timer step by the first message it sent, and
// anything silent to "other".
func classify(delivered, sent wire.MsgType, deliveredToCoord, sentFromCoord bool) class {
	if delivered != 0 {
		switch planeOf[delivered] {
		case planeProbe:
			return clsProbe
		case planeLinkState:
			return clsLinkState
		case planeRecommend:
			return clsRecommend
		case planeData:
			return clsData
		case planeMembership:
			if deliveredToCoord {
				return clsMemberCoord
			}
			return clsMemberClient
		}
		return clsOther
	}
	switch planeOf[sent] {
	case planeProbe:
		return clsProbe
	case planeLinkState, planeRecommend:
		return clsTick // a routing timer: includes the kernels
	case planeData:
		return clsData // the benchmark's own injection step
	case planeMembership:
		if sentFromCoord {
			return clsMemberCoord
		}
		return clsMemberClient
	}
	return clsOther
}

// maxSpans bounds the raw spans kept per run; aggregates cover every step.
const maxSpans = 100_000

// span is one timed step: offsets are from the start of the phase span,
// which is every step's parent.
type span struct {
	class      class
	start, dur time.Duration
}

// tracer times every simulator step of a measured phase from outside: two
// clock reads around Step, and the network's send/deliver hooks (chained
// after the collector's) to tell what the step did.
type tracer struct {
	m                     *measurement
	prevSend, prevDeliver func(from, to int, payload []byte)

	// Set by the hooks during the current step.
	delivered, sent       wire.MsgType
	deliveredTo, sentFrom int

	phaseStart time.Time
	phaseDur   time.Duration
	durs       [numClasses][]uint32 // ns per step
	busy       [numClasses]time.Duration
	spans      []span

	// captured holds the first payload seen of each message type: the
	// direct-call timings replay the workload's own messages.
	captured [256][]byte

	firstHops, relayed uint64
	sendNS             []uint32 // ns per SendData call
}

func (t *tracer) attach(m *measurement) {
	t.m = m
	net := m.w.net
	t.prevSend, t.prevDeliver = net.OnSend, net.OnDeliver
	net.OnSend = t.onSend
	net.OnDeliver = t.onDeliver
	t.spans = make([]span, 0, maxSpans)
}

// begin opens the phase span; the measured loop starts right after.
func (t *tracer) begin() { t.phaseStart = time.Now() }

func (t *tracer) detach() {
	t.phaseDur = time.Since(t.phaseStart)
	t.m.w.net.OnSend, t.m.w.net.OnDeliver = t.prevSend, t.prevDeliver
}

func (t *tracer) onSend(from, to int, payload []byte) {
	t.prevSend(from, to, payload)
	mt := wire.PeekType(payload)
	if t.sent == 0 {
		t.sent, t.sentFrom = mt, from
	}
	if t.captured[mt] == nil {
		t.captured[mt] = slices.Clone(payload)
	}
	if mt == wire.TData && len(payload) >= wire.HeaderLen+4 {
		// A data packet's first transmission (header source == origin) is
		// relayed when it does not go straight to the destination endpoint.
		src, origin := binary.BigEndian.Uint16(payload[1:]), binary.BigEndian.Uint16(payload[3:])
		if src == origin {
			t.firstHops++
			if ep, ok := t.m.w.endpointOf(wire.NodeID(binary.BigEndian.Uint16(payload[5:]))); ok && ep != to {
				t.relayed++
			}
		}
	}
}

func (t *tracer) onDeliver(from, to int, payload []byte) {
	t.prevDeliver(from, to, payload)
	if t.delivered == 0 {
		t.delivered, t.deliveredTo = wire.PeekType(payload), to
	}
}

func (t *tracer) sendData(d time.Duration) { t.sendNS = append(t.sendNS, clampNS(d)) }

func clampNS(d time.Duration) uint32 { return uint32(min(d, math.MaxUint32)) }

// step runs and times one simulator step.
func (t *tracer) step() {
	t.delivered, t.sent = 0, 0
	t0 := time.Now()
	t.m.w.net.Step()
	d := time.Since(t0)
	c := classify(t.delivered, t.sent, t.m.w.isCoord(t.deliveredTo), t.m.w.isCoord(t.sentFrom))
	t.durs[c] = append(t.durs[c], clampNS(d))
	t.busy[c] += d
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{class: c, start: t0.Sub(t.phaseStart), dur: d})
	}
}

// rows returns the step-attribution layer rows.
func (t *tracer) rows(out map[string]float64) {
	var busy time.Duration
	for c := class(0); c < numClasses; c++ {
		busy += t.busy[c]
		d := t.durs[c]
		slices.Sort(d)
		name := classNames[c]
		out[name+".events"] = float64(len(d))
		out[name+".busy_s"] = t.busy[c].Seconds()
		out[name+".p50_us"] = quantileNS(d, 0.50) / 1e3
		out[name+".p99_us"] = quantileNS(d, 0.99) / 1e3
	}
	out["trace_attributed_share"] = busy.Seconds() / t.m.wall.Seconds()
	if t.firstHops > 0 {
		out["overlay.relayed_share"] = float64(t.relayed) / float64(t.firstHops)
	}
	slices.Sort(t.sendNS)
	out["overlay.senddata_ns"] = quantileNS(t.sendNS, 0.5)
}

// quantileNS reads the q-quantile (nearest rank) of sorted durations.
func quantileNS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// write stores the per-class aggregates and the raw spans under dir.
func (t *tracer) write(dir, stem string, layer map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	agg, err := json.MarshalIndent(map[string]any{
		"phase":       "measure",
		"phase_wall":  t.m.wall.Seconds(),
		"steps":       t.m.events,
		"spans_kept":  len(t.spans),
		"layer_rows":  layer,
		"class_names": classNames,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+"-trace.json"), append(agg, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+"-spans.csv"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	// Span 0 is the phase; every step span names it as its parent.
	fmt.Fprintf(bw, "id,parent,class,start_ns,end_ns\n0,-1,phase.measure,0,%d\n", t.phaseDur.Nanoseconds())
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,0,%s,%d,%d\n", i+1, classNames[s.class], s.start.Nanoseconds(), (s.start + s.dur).Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
