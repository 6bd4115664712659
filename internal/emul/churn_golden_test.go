package emul

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// TestChurnScenariosGolden pins the canonical output of every churn scenario.
// The hashes were first captured at the commit before fault schedules became
// data, when RunChurn was a polling loop over five fault-time variables, to
// hold the schedule interpreter to that loop's event order byte for byte —
// the method of TestProbeInstantsUnchanged. All ten were re-captured once
// since, when an unprobed link stopped counting as a dead rendezvous: cold
// nodes stopped recruiting failovers, which draw from the same per-node RNG
// that jitters routing ticks and membership timers, so every stream moved.
// All ten moved again when a responder with nothing newer stopped answering
// pulls: every row prints pulls_served, and on the lossy and partitioned
// planes the datagrams no longer sent shift the network's random stream.
// All ten moved once more when members stopped pulling on a timer: the
// periodic round drew from every member's stream, and stragglers now catch up
// from the view version on their peers' routing messages. The partition row
// moved alone when the harness began reading the primary at the highest view
// stamp: during the split brain its prim column reads the rank-2 replica the
// majority side elected, not the rank-1 standby cut off with the minority.
// Every row but flash-crowd moved when members began sending their
// heartbeats to every replica instead of rotating through them on a missed
// ack: the rotation's backoff drew from each member's stream. The
// gossip-crash row now keeps all 24 live members.
// The last row is the shape that tells the order of a convergence poll and a
// same-instant churn step apart (it reads after=16s; polling after the step
// reads 15s). It has moved whenever a shape stopped telling them apart:
// from n=60, seed 99 to n=30, seed 15, and then, once stragglers caught up
// well inside the 15 s before the churn step that departs the last of them,
// to seed 8 at a Poisson rate of 0.4; once a joiner's standing came from
// the view that lists it, to seed 7 at 0.6; and with heartbeats to every
// replica, to seed 8 at 0.6. A change that means to alter a scenario
// re-captures its row in the open.
func TestChurnScenariosGolden(t *testing.T) {
	short := func(sc ChurnScenario) ChurnOptions {
		return ChurnOptions{N: 30, Seed: 42, Scenario: sc, Warmup: 2 * time.Minute, Duration: 5 * time.Minute}
	}
	cases := []struct {
		opt  ChurnOptions
		want string
	}{
		{short(ChurnPoisson), "8cc3c8e00fc1f542"},
		{short(ChurnFlashCrowd), "c70799f3ac8f57a5"},
		{short(ChurnMassDeparture), "a8b79c4a0e84894f"},
		{short(ChurnCoordCrash), "eaa941b2d3a31d12"},
		{short(ChurnPartition), "e97bb2816c569c03"},
		{short(ChurnRegional), "908b3a9c63bd1743"},
		{short(ChurnLossyGossip), "fd003ec5bb277ff3"},
		{short(ChurnGossipCrash), "dc6dc18c2968c6d3"},
		{short(ChurnStraggler), "6120962ba4a717ad"},
		{ChurnOptions{N: 30, Seed: 8, Scenario: ChurnStraggler, Rate: 0.6, Duration: 6 * time.Minute}, "c86c6eb053b4b366"},
	}
	for _, c := range cases {
		out := RunChurn(c.opt).Format()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))[:16]; got != c.want {
			t.Errorf("%s n=%d seed=%d: output hash %s, want %s\n%s",
				c.opt.Scenario, c.opt.N, c.opt.Seed, got, c.want, out)
		}
	}
}
