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
// The last row is the shape that tells the order of a convergence poll and a
// same-instant churn step apart (it reads after=16s; polling after the step
// reads 15s); that re-capture moved it from n=60, seed 99, which stopped
// telling them apart. A change that means to alter a scenario re-captures its
// row in the open.
func TestChurnScenariosGolden(t *testing.T) {
	short := func(sc ChurnScenario) ChurnOptions {
		return ChurnOptions{N: 30, Seed: 42, Scenario: sc, Warmup: 2 * time.Minute, Duration: 5 * time.Minute}
	}
	cases := []struct {
		opt  ChurnOptions
		want string
	}{
		{short(ChurnPoisson), "6b624fc7b7a4857f"},
		{short(ChurnFlashCrowd), "5fc49bf375d25b3f"},
		{short(ChurnMassDeparture), "57091a4d13a6d107"},
		{short(ChurnCoordCrash), "a26b612f8bacdcd0"},
		{short(ChurnPartition), "351665ee9d17d42b"},
		{short(ChurnRegional), "58bce6be78ce1e70"},
		{short(ChurnLossyGossip), "c0523d70a26e7e7e"},
		{short(ChurnGossipCrash), "d3e9069e87d27193"},
		{short(ChurnStraggler), "1c26b9c777face41"},
		{ChurnOptions{N: 30, Seed: 15, Scenario: ChurnStraggler, Duration: 6 * time.Minute}, "285b45f42a36ed20"},
	}
	for _, c := range cases {
		out := RunChurn(c.opt).Format()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))[:16]; got != c.want {
			t.Errorf("%s n=%d seed=%d: output hash %s, want %s\n%s",
				c.opt.Scenario, c.opt.N, c.opt.Seed, got, c.want, out)
		}
	}
}
