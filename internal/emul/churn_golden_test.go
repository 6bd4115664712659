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
		{short(ChurnPoisson), "6488cea2c7013562"},
		{short(ChurnFlashCrowd), "de372844e329ce88"},
		{short(ChurnMassDeparture), "f84f42f395dd4150"},
		{short(ChurnCoordCrash), "ec21563b151879c5"},
		{short(ChurnPartition), "9ce19ad1f4d23960"},
		{short(ChurnRegional), "b1f485c8b5653c5d"},
		{short(ChurnLossyGossip), "ff1c1e2dcee79e14"},
		{short(ChurnGossipCrash), "726ecbac5d021b73"},
		{short(ChurnStraggler), "880dedd4e567f05e"},
		{ChurnOptions{N: 30, Seed: 15, Scenario: ChurnStraggler, Duration: 6 * time.Minute}, "cf43bb30e95cb884"},
	}
	for _, c := range cases {
		out := RunChurn(c.opt).Format()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))[:16]; got != c.want {
			t.Errorf("%s n=%d seed=%d: output hash %s, want %s\n%s",
				c.opt.Scenario, c.opt.N, c.opt.Seed, got, c.want, out)
		}
	}
}
