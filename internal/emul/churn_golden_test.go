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
// replica, to seed 8 at 0.6; with link-state deltas, to seed 14 at 0.6;
// once deltas carried cost changes only, to seed 10 at 0.6; once a stable
// view install kept the delta's base, to seed 61 at 0.6; and once a row
// rode behind a recommendation, to seed 14 at 0.6.
// All ten moved with the deltas: every output gained the live_missing
// column, and on the lossy planes a lost row now costs a refusal and an
// answer. The lossy-gossip, gossip-crash and straggler rows moved again when
// deltas began carrying cost changes only: on their lossy planes more rows go
// as deltas, and the datagrams saved and the refusals drawn shift the
// network's random stream. They moved once more, for the same reason, when a
// stable view install began keeping the delta's base. All ten moved when a
// member's heartbeat stopped drawing an ack: every row prints coord_msgs, and
// the one keep-alive timer heartbeats at another phase. The coord-crash row's
// full_views fell 63 → 33, the restarted replica's snapshots gone; the last
// row still reads after=16s, and 15s with Play's poll and step blocks
// swapped. The lossy-gossip, gossip-crash and both straggler rows moved when
// recommendations began travelling as deltas: on their lossy planes a
// refused delta draws a refusal and an answer, and the datagrams saved and
// drawn shift the network's random stream; the last row still reads
// after=16s, and 15s swapped. The same four rows moved when a stable view
// install onto the next version began keeping the recommendations' base:
// more of their messages go as deltas, for the same shift; the last row
// still reads after=16s, and 15s swapped. The poisson, partition, regional
// and both straggler rows moved when §4.1's dead-destination guard began
// running before an episode's first recruitment: a node no longer recruits a
// failover server for a crashed member nobody sees alive, and the candidate
// draws no longer taken from the per-node stream, with the rows and
// recommendations no longer sent, shift every later draw; the last row
// still reads after=16s, and 15s swapped. The lossy-gossip, gossip-crash
// and both straggler rows moved when a pairing's row began riding behind its
// recommendation: on their lossy planes one datagram now carries both, so
// fewer draws shift the network's random stream; seed 61 then read after=4s
// either way, and the last row moved to seed 14, which reads after=16s, and
// 15s swapped. The same four rows moved when the prober began holding a
// link's announced latency inside a band around its EWMA: on their 20 ms of
// jitter fewer entries change, and the datagrams and bytes saved shift the
// network's random stream; the last row still reads after=16s, and 15s
// swapped. The lossy-gossip row alone moved when a refused recommendation
// delta stopped installing its changed run entries and an older run-form
// message began to be ignored whole: one sample's stretch reads 1.8702, not
// 1.8202. A change that means to alter a scenario re-captures its row in the
// open.
func TestChurnScenariosGolden(t *testing.T) {
	short := func(sc ChurnScenario) ChurnOptions {
		return ChurnOptions{DynamicFleetOptions: DynamicFleetOptions{Seed: 42}, N: 30, Scenario: sc, Warmup: 2 * time.Minute, Duration: 5 * time.Minute}
	}
	cases := []struct {
		opt  ChurnOptions
		want string
	}{
		{short(ChurnPoisson), "2e56c9def45ce0b2"},
		{short(ChurnFlashCrowd), "79f96b7043d31e3a"},
		{short(ChurnMassDeparture), "f0c3396bb16a5120"},
		{short(ChurnCoordCrash), "91de9d3e5c865d08"},
		{short(ChurnPartition), "192565161f41cd62"},
		{short(ChurnRegional), "00111fb63c8263cb"},
		{short(ChurnLossyGossip), "d608a2c29ca153f5"},
		{short(ChurnGossipCrash), "77551b0431edbf21"},
		{short(ChurnStraggler), "29c5de47a0a1e2c0"},
		{ChurnOptions{DynamicFleetOptions: DynamicFleetOptions{Seed: 14}, N: 30, Scenario: ChurnStraggler, Rate: 0.6, Duration: 6 * time.Minute}, "1df4c9718b9132ab"},
	}
	for _, c := range cases {
		out := RunChurn(c.opt).Format()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))[:16]; got != c.want {
			t.Errorf("%s n=%d seed=%d: output hash %s, want %s\n%s",
				c.opt.Scenario, c.opt.N, c.opt.Seed, got, c.want, out)
		}
	}
}
