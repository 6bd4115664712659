package membership

import "allpairs/internal/wire"

// Epidemic dissemination tree.
//
// Each coalesced view delta travels an F-ary forest laid over the view's
// slot space: tree position q maps to view slot (q+r) mod n, where the
// rotation r is a pure function of the delta version, so every version
// seeds a different slot set and loss at one member never starves the same
// subtree twice in a row. The primary owns the F roots (positions 0…F−1);
// the node at position p forwards to positions p·F+F … p·F+2F−1, which
// gives every non-root position exactly one parent and bounds the loss-free
// message count at n (once per member), with the dedup cache absorbing the
// duplicates that link-level duplication or competing paths create.

// gossipRotation returns the tree rotation for a delta version: the view
// slot occupying tree position 0. Reducing the version mod n first keeps
// the product in range without changing the result mod n.
func gossipRotation(version uint32, fanout, n int) int {
	if n <= 0 {
		return 0
	}
	return int(version%uint32(n)) * fanout % n
}

// gossipTargets returns the view slots the node at tree position p sends a
// gossiped delta to; p == -1 is the primary, which seeds the roots.
// Positions holding members added by this very delta (isAdded) are skipped
// over and their children inherited: an added member receives the full
// view, not the gossip envelope, so routing the tree through it would
// starve its subtree until some later message revealed the gap. The
// skip-over expansion is capped at 4·fanout slots per sender to keep egress
// O(fanout) even mid flash crowd.
func gossipTargets(n, p, fanout, r int, isAdded func(slot int) bool) []int {
	if n <= 0 || fanout <= 0 {
		return nil
	}
	queue := make([]int, 0, fanout)
	if p < 0 {
		for i := 0; i < fanout; i++ {
			queue = append(queue, i)
		}
	} else {
		for j := 0; j < fanout; j++ {
			queue = append(queue, p*fanout+fanout+j)
		}
	}
	maxOut := 4 * fanout
	var out []int
	// Child positions strictly exceed their parent's, so the queue walk
	// terminates: skipped-over entries only ever enqueue larger positions,
	// which the q >= n guard eventually prunes.
	for i := 0; i < len(queue) && len(out) < maxOut; i++ {
		q := queue[i]
		if q >= n {
			continue
		}
		slot := (q + r) % n
		if isAdded != nil && isAdded(slot) {
			for j := 0; j < fanout; j++ {
				queue = append(queue, q*fanout+fanout+j)
			}
			continue
		}
		out = append(out, slot)
	}
	return out
}

// addedSet indexes a delta's added members by ID. Lookup-only: never ranged
// over, so map order cannot leak into the send order.
func addedSet(adds []wire.Member) map[wire.NodeID]bool {
	if len(adds) == 0 {
		return nil
	}
	m := make(map[wire.NodeID]bool, len(adds))
	for _, a := range adds {
		m[a.ID] = true
	}
	return m
}
