// Fixture for the mapiter analyzer, type-checked under the synthetic import
// path allpairs/internal/core so the deterministic-package scope applies.
package fixture

import "sort"

type coord struct {
	members map[uint64]int
}

func (c *coord) send(id uint64, payload []byte) {}

// broadcast reproduces the PR 2 bug shape: sending while ranging over the
// member map randomizes the simulated packet schedule between
// identically-seeded runs.
func (c *coord) broadcast(payload []byte) {
	for id := range c.members { // want `range over map c\.members in deterministic package`
		c.send(id, payload)
	}
}

// view collects then sorts. No escape hatch accepts even this shape: the
// lint does not prove order-invariance, it bans the map walk.
func (c *coord) view() []uint64 {
	ids := make([]uint64, 0, len(c.members))
	for id := range c.members { // want `range over map c\.members`
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// collectNoSort collects but never sorts: still flagged.
func (c *coord) collectNoSort() []uint64 {
	var ids []uint64
	for id := range c.members { // want `range over map c\.members`
		ids = append(ids, id)
	}
	return ids
}

// guardedCollect keeps the collect-then-sort shape under an if guard.
func (c *coord) guardedCollect() []uint64 {
	var ids []uint64
	for id, n := range c.members { // want `range over map c\.members`
		if n > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// size is order-invariant (summation commutes), and still flagged.
func (c *coord) size() int {
	total := 0
	for _, v := range c.members { // want `range over map c\.members`
		total += v
	}
	return total
}

// dedupEvict reproduces the gossip dedup-cache eviction shape: ranging a
// set-valued map to pick a victim makes eviction order depend on Go's map
// iteration seed, so identically-seeded simulations diverge. The bounded
// FIFO in membership keeps an insertion-order ring alongside the map for
// exactly this reason.
type stamp struct{ epoch, version uint32 }

type dedup struct {
	seen map[stamp]struct{}
}

func (d *dedup) evictOne() {
	for s := range d.seen { // want `range over map d\.seen`
		delete(d.seen, s)
		return
	}
}

// dedupLookup only tests membership, never ranges: not flagged.
func (d *dedup) dedupLookup(s stamp) bool {
	_, ok := d.seen[s]
	return ok
}

// nonMap ranges over a slice: never flagged.
func (c *coord) nonMap(ids []uint64) int {
	n := 0
	for range ids {
		n++
	}
	return n
}

// literalBroadcast shows the check descending into closures.
func (c *coord) literalBroadcast(payload []byte) func() {
	return func() {
		for id := range c.members { // want `range over map c\.members`
			c.send(id, payload)
		}
	}
}
