package probe

import (
	"math"
	"slices"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// handLink drives the link from prober p to slot 1 by hand, with no network
// run: each call sends the link's next probe and resolves it at once.
type handLink struct {
	t *testing.T
	p *Prober
}

func newHandLink(t *testing.T, asymmetric bool) handLink {
	t.Helper()
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second, Asymmetric: asymmetric}
	return handLink{t, newFixture(t, 2, cfg, time.Millisecond).probers[0]}
}

// reply answers the probe after a round trip of rtt, out of it on the way
// there, and checks the band.
func (l handLink) reply(rtt, out time.Duration) {
	l.t.Helper()
	p := l.p
	p.sendProbe(1, p.now())
	echo := p.env.Now().UnixNano() - int64(rtt)
	msg := wire.AppendProbeReply(nil, 1, wire.ProbeReply{Seq: p.links[1].seq, Echo: echo, RecvAt: echo + int64(out)})
	h, body, _ := wire.ParseHeader(msg)
	p.HandleReply(h, body)
	l.checkBand()
}

// lose counts the probe lost and checks the band.
func (l handLink) lose() {
	l.t.Helper()
	l.p.sendProbe(1, l.p.now())
	l.p.onTimeout(1, l.p.now())
	l.checkBand()
}

// checkBand fails the test unless, while the link is alive, each latency its
// rows announce is within max(1 ms, 5 % of it) of the EWMA it stands for.
func (l handLink) checkBand() {
	l.t.Helper()
	p := l.p
	if !p.Alive(1) {
		return
	}
	check := func(what string, announced uint16, ewma float64) {
		if d := math.Abs(ewma - float64(announced)); d > max(1, 0.05*float64(announced)) {
			l.t.Fatalf("%s announces %d ms for an EWMA of %.3f ms", what, announced, ewma)
		}
	}
	check("row", p.row[1].Latency, p.links[1].latency)
	if p.asymRow != nil {
		check("asymmetric row's Out", p.asymRow[1].Out, p.oneWays[1].out)
		check("asymmetric row's In", p.asymRow[1].In, p.oneWays[1].in)
	}
}

// warm brings the link alive at a steady 100 ms round trip, 60 of it out.
func (l handLink) warm() {
	for range 4 {
		l.reply(100*time.Millisecond, 60*time.Millisecond)
	}
	if got := l.p.row[1].Latency; got != 100 {
		l.t.Fatalf("warm link announces %d ms, want 100", got)
	}
}

// TestWobbleInsideBandLeavesRow: round trips of 97–103 ms move the EWMA of a
// link announced at 100 ms by at most 3 ms, inside its 5 ms band, so neither
// row changes a byte.
func TestWobbleInsideBandLeavesRow(t *testing.T) {
	l := newHandLink(t, true)
	l.warm()
	row, asym := slices.Clone(l.p.row), slices.Clone(l.p.asymRow)
	for _, ms := range []time.Duration{97, 103, 99, 101, 103, 97, 100} {
		l.reply(ms*time.Millisecond, 60*time.Millisecond)
	}
	if !slices.Equal(l.p.row, row) || !slices.Equal(l.p.asymRow, asym) {
		t.Errorf("a wobble inside the band rewrote the rows: %v → %v, %v → %v", row, l.p.row, asym, l.p.asymRow)
	}
}

// TestStepIsAnnouncedOnTheCrossingReply: after a step from 100 to 108 ms the
// EWMA reads 104 (inside the 5 ms band, announced 100) and then 106 (outside
// it), which the row announces on that second reply.
func TestStepIsAnnouncedOnTheCrossingReply(t *testing.T) {
	l := newHandLink(t, false)
	l.warm()
	for i, want := range []uint16{100, 106, 106} {
		l.reply(108*time.Millisecond, 0)
		if got := l.p.row[1].Latency; got != want {
			t.Errorf("reply %d after the step: row announces %d ms, want %d (EWMA %.2f)", i+1, got, want, l.p.links[1].latency)
		}
	}
}

// TestRecoveryAnnouncesTheFreshEWMA: a link that went dead at 100 ms and comes
// back at 102 announces its EWMA, 101 ms, though that is inside the band
// around the 100 its row last said.
func TestRecoveryAnnouncesTheFreshEWMA(t *testing.T) {
	l := newHandLink(t, true)
	l.warm()
	for range failThreshold {
		l.lose()
	}
	if l.p.Alive(1) || l.p.row[1].Status != wire.StatusDead {
		t.Fatalf("%d losses left the link alive", failThreshold)
	}
	l.reply(102*time.Millisecond, 62*time.Millisecond) // out 61, in 40.5: the band would hold both
	if e := l.p.row[1]; e.Latency != 101 || !wire.StatusAlive(e.Status) {
		t.Errorf("recovered link announces %+v, want 101 ms and alive", e)
	}
	if a := l.p.asymRow[1]; a.Out != 61 || a.In != 40 {
		t.Errorf("recovered link announces Out %d In %d, want 61 and 40", a.Out, a.In)
	}
}

// TestAsymmetricCostsAreEachBanded: the asymmetric row's Out and In each keep
// their own band. A return path that grows 40 → 46 ms moves In's EWMA to 43,
// past its 2 ms band, on the first reply, while Out, steady at 60, and the
// round trip's EWMA, 103 within 5 ms of 100, hold.
func TestAsymmetricCostsAreEachBanded(t *testing.T) {
	l := newHandLink(t, true)
	l.warm()
	l.reply(106*time.Millisecond, 60*time.Millisecond)
	if e, a := l.p.row[1], l.p.asymRow[1]; e.Latency != 100 || a.Out != 60 || a.In != 43 {
		t.Errorf("row %d ms, Out %d, In %d; want 100, 60 and 43", e.Latency, a.Out, a.In)
	}
}

// FuzzAnnouncedLatencyBand decodes its bytes into a sequence of replies
// (round trip and the share of it out), single losses, and runs of losses
// that kill the link so that the next reply recovers it, and checks the band
// after every event, on both rows of an asymmetric prober.
func FuzzAnnouncedLatencyBand(f *testing.F) {
	f.Add([]byte{0, 100, 128, 0, 103, 128, 1, 0, 0, 0, 97, 60, 2, 0, 0, 0, 140, 10})
	f.Add([]byte{0, 10, 200, 0, 11, 200, 0, 30, 20, 2, 0, 0, 0, 2, 255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		l := newHandLink(t, true)
		for ; len(b) >= 3; b = b[3:] {
			switch b[0] % 3 {
			case 0: // a reply within the reply timeout, 0–2 550 ms
				rtt := time.Duration(b[1]) * 10 * time.Millisecond / time.Duration(1+b[0]/3%10)
				l.reply(rtt, rtt*time.Duration(b[2])/255)
			case 1:
				l.lose()
			case 2:
				for range failThreshold {
					l.lose()
				}
			}
		}
	})
}
