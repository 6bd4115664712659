package emul

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// TestChurnScenariosGolden pins the canonical output of every churn scenario.
// The hashes were captured at the commit before fault schedules became data,
// when RunChurn was a polling loop over five fault-time variables, so they
// hold the schedule interpreter to that loop's event order byte for byte —
// the method of TestProbeInstantsUnchanged. The last row is the shape that tells the
// order of a convergence poll and a same-instant churn step apart (it reads
// after=16s; polling after the step reads 15s). The file uses nothing newer
// than RunChurn, so it compiles and passes at that commit too. A change that
// means to alter a scenario re-captures its row in the open.
func TestChurnScenariosGolden(t *testing.T) {
	short := func(sc ChurnScenario) ChurnOptions {
		return ChurnOptions{N: 30, Seed: 42, Scenario: sc, Warmup: 2 * time.Minute, Duration: 5 * time.Minute}
	}
	cases := []struct {
		opt  ChurnOptions
		want string
	}{
		{short(ChurnPoisson), "ef13f01812b85a18"},
		{short(ChurnFlashCrowd), "136f2cd8de56b1d6"},
		{short(ChurnMassDeparture), "107de3b1f7fd69c6"},
		{short(ChurnCoordCrash), "49947cedb9eb7378"},
		{short(ChurnPartition), "6b2233a102e30f24"},
		{short(ChurnRegional), "5ef5b601286e3e73"},
		{short(ChurnLossyGossip), "b1701d35fb2584c5"},
		{short(ChurnGossipCrash), "c5b9614bc2ec05b5"},
		{short(ChurnStraggler), "b6d90b4cca69f9f2"},
		{ChurnOptions{N: 60, Seed: 99, Scenario: ChurnStraggler, Duration: 6 * time.Minute}, "41094a5e729a7168"},
	}
	for _, c := range cases {
		out := RunChurn(c.opt).Format()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))[:16]; got != c.want {
			t.Errorf("%s n=%d seed=%d: output hash %s, want %s\n%s",
				c.opt.Scenario, c.opt.N, c.opt.Seed, got, c.want, out)
		}
	}
}
