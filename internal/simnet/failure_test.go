package simnet

import (
	"testing"
	"time"
)

// countNet returns a 4-endpoint network whose endpoint i appends every
// delivered payload source to got[i].
func countNet(t *testing.T, seed int64) (*Network, *[4][]int) {
	t.Helper()
	nw := New(4, seed)
	var got [4][]int
	for i := 0; i < 4; i++ {
		i := i
		nw.SetHandler(i, func(from int, payload []byte) { got[i] = append(got[i], from) })
	}
	return nw, &got
}

func TestPartitionDropsCrossTraffic(t *testing.T) {
	nw, got := countNet(t, 1)
	nw.SetPartition([]int{2, 3}) // {2,3} vs implicit {0,1}

	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				nw.Send(a, b, []byte{1})
			}
		}
	}
	nw.RunFor(time.Second)

	// Within-side pairs deliver; the 8 cross-side sends drop.
	if len(got[0]) != 1 || got[0][0] != 1 {
		t.Errorf("endpoint 0 got %v, want [1]", got[0])
	}
	if len(got[2]) != 1 || got[2][0] != 3 {
		t.Errorf("endpoint 2 got %v, want [3]", got[2])
	}
	if nw.Dropped() != 8 {
		t.Errorf("dropped = %d, want 8", nw.Dropped())
	}
	if nw.Reachable(0, 2) || !nw.Reachable(0, 1) || !nw.Reachable(2, 3) {
		t.Error("Reachable disagrees with the partition")
	}
	if !nw.Partitioned(0, 3) || nw.Partitioned(2, 3) {
		t.Error("Partitioned wrong")
	}
}

func TestHealRestoresTraffic(t *testing.T) {
	nw, got := countNet(t, 1)
	nw.SetPartition([]int{0}, []int{1})
	nw.Send(0, 1, []byte{1})
	nw.RunFor(time.Second)
	if len(got[1]) != 0 {
		t.Fatal("partitioned packet delivered")
	}
	nw.Heal()
	nw.Send(0, 1, []byte{1})
	nw.RunFor(time.Second)
	if len(got[1]) != 1 {
		t.Errorf("post-heal delivery count = %d, want 1", len(got[1]))
	}
	if nw.Partitioned(0, 1) {
		t.Error("Partitioned true after Heal")
	}
}

func TestSetPartitionReplacesPrevious(t *testing.T) {
	nw, _ := countNet(t, 1)
	nw.SetPartition([]int{0})
	if !nw.Partitioned(0, 1) {
		t.Fatal("first partition not active")
	}
	nw.SetPartition([]int{3})
	if nw.Partitioned(0, 1) || !nw.Partitioned(0, 3) {
		t.Error("second SetPartition did not replace the first")
	}
}

func TestPartitionComposesWithFailures(t *testing.T) {
	// A node down inside a partition side stays unreachable from its own
	// side; healing the partition does not revive it or a failed link.
	nw, _ := countNet(t, 1)
	nw.SetPartition([]int{0, 1})
	nw.SetNodeDown(1, true)
	nw.SetLinkDown(2, 3, true)
	if nw.Reachable(0, 1) {
		t.Error("down node reachable within its side")
	}
	if nw.Reachable(2, 3) {
		t.Error("down link reachable within its side")
	}
	nw.Heal()
	if nw.Reachable(0, 1) || nw.Reachable(2, 3) {
		t.Error("Heal revived node/link failures")
	}
	nw.SetNodeDown(1, false)
	nw.SetLinkDown(2, 3, false)
	if !nw.Reachable(0, 1) || !nw.Reachable(2, 3) {
		t.Error("explicit repair did not restore reachability")
	}
}

func TestPartitionPanicsOutOfRange(t *testing.T) {
	nw := New(2, 1)
	defer func() {
		if recover() == nil {
			t.Error("want panic for out-of-range endpoint")
		}
	}()
	nw.SetPartition([]int{5})
}

func TestOnDropDistinguishesFailureModes(t *testing.T) {
	// Dropped counts loss, link-down, node-down (send side), partition and
	// death-in-flight alike; OnSend sees every attempt.
	nw := New(3, 42)
	sends := 0
	nw.OnSend = func(from, to int, payload []byte) { sends++ }
	nw.SetHandler(1, func(int, []byte) {})

	nw.SetLoss(0, 1, 1.0)
	nw.Send(0, 1, nil) // loss
	nw.SetLoss(0, 1, 0)

	nw.SetLinkDown(0, 1, true)
	nw.Send(0, 1, nil) // link down
	nw.SetLinkDown(0, 1, false)

	nw.SetNodeDown(2, true)
	nw.Send(0, 2, nil) // receiver down at send time
	nw.SetNodeDown(2, false)

	nw.SetPartition([]int{0})
	nw.Send(0, 1, nil) // partitioned
	nw.Heal()

	nw.SetLatency(0, 1, 10*time.Millisecond)
	nw.Send(0, 1, nil) // dies in flight
	nw.SetNodeDown(1, true)
	nw.RunFor(time.Second)

	if sends != 5 {
		t.Errorf("OnSend saw %d attempts, want 5", sends)
	}
	if nw.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", nw.Dropped())
	}
	if nw.Delivered() != 0 {
		t.Errorf("delivered = %d, want 0", nw.Delivered())
	}
}

func TestPartitionDeterminism(t *testing.T) {
	// Identical seeds and an identical fault schedule (partition, heal,
	// regional down) yield identical delivery/drop counts.
	run := func() (uint64, uint64) {
		nw := New(6, 99)
		for i := 0; i < 6; i++ {
			nw.SetHandler(i, func(int, []byte) {})
		}
		for a := 0; a < 6; a++ {
			for b := 0; b < 6; b++ {
				if a != b {
					nw.SetLatency(a, b, time.Duration(a+b)*time.Millisecond)
					nw.SetLoss(a, b, 0.2)
				}
			}
		}
		tick := func() {
			for a := 0; a < 6; a++ {
				for b := 0; b < 6; b++ {
					if a != b {
						nw.Send(a, b, []byte{byte(a), byte(b)})
					}
				}
			}
		}
		tick()
		nw.RunFor(time.Second)
		nw.SetPartition([]int{0, 1, 2})
		tick()
		nw.RunFor(time.Second)
		nw.SetNodeDown(4, true)
		tick()
		nw.RunFor(time.Second)
		nw.Heal()
		nw.SetNodeDown(4, false)
		tick()
		nw.RunFor(time.Second)
		return nw.Delivered(), nw.Dropped()
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	if d1 == 0 || x1 == 0 {
		t.Errorf("degenerate run: delivered=%d dropped=%d", d1, x1)
	}
}
