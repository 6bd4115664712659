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
// the view that lists it, to seed 7 at 0.6; with heartbeats to every
// replica, to seed 8 at 0.6; and with link-state deltas, to seed 14 at 0.6.
// All ten moved with the deltas: every output gained the live_missing
// column, and on the lossy planes a lost row now costs a refusal and an
// answer. A change that means to alter a scenario re-captures its row in
// the open.
func TestChurnScenariosGolden(t *testing.T) {
	short := func(sc ChurnScenario) ChurnOptions {
		return ChurnOptions{N: 30, Seed: 42, Scenario: sc, Warmup: 2 * time.Minute, Duration: 5 * time.Minute}
	}
	cases := []struct {
		opt  ChurnOptions
		want string
	}{
		{short(ChurnPoisson), "e79d06865ec45e17"},
		{short(ChurnFlashCrowd), "50ccea6dcae9458f"},
		{short(ChurnMassDeparture), "c9207c3941723456"},
		{short(ChurnCoordCrash), "0d47bb9e6f451d43"},
		{short(ChurnPartition), "a2fd849a52703c99"},
		{short(ChurnRegional), "ae897ff48f95a8d8"},
		{short(ChurnLossyGossip), "99e0d1e509f28061"},
		{short(ChurnGossipCrash), "9fb2414f8b55cad0"},
		{short(ChurnStraggler), "83b53c69c6decf1d"},
		{ChurnOptions{N: 30, Seed: 14, Scenario: ChurnStraggler, Rate: 0.6, Duration: 6 * time.Minute}, "0f4819dbe8febb81"},
	}
	for _, c := range cases {
		out := RunChurn(c.opt).Format()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))[:16]; got != c.want {
			t.Errorf("%s n=%d seed=%d: output hash %s, want %s\n%s",
				c.opt.Scenario, c.opt.N, c.opt.Seed, got, c.want, out)
		}
	}
}
