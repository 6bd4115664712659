package probe

import (
	"math"
	"time"
)

// never is the deadline of a slot with nothing to do: the node itself, a
// tombstone, a retired or stopped link. Every slot keeps an entry, so the heap
// needs no remove.
const never = time.Duration(math.MaxInt64)

// schedule holds one deadline per slot — when that link next needs attention —
// in a 4-ary min-heap of slots ordered by (due, slot): a strict total order, so
// the heap's shape never shows in the order links are served. pos is the
// back-index that lets set move a slot's entry in place. A slot and a heap
// index both fit 16 bits (a view has at most wire.MaxSlots slots), so a slot
// costs 12 bytes.
type schedule struct {
	due  []time.Duration // by slot, measured from the prober's epoch
	heap []uint16        // slots; children of i are 4i+1..4i+4
	pos  []uint16        // pos[slot] is slot's index in heap
}

// grow extends the schedule to n slots; the new ones have no deadline. Each
// table is resized once, to exactly n: it lives as long as the view.
func (s *schedule) grow(n int) {
	old := len(s.due)
	if n <= old {
		return
	}
	s.due = append(make([]time.Duration, 0, n), s.due...)[:n]
	s.heap = append(make([]uint16, 0, n), s.heap...)[:n]
	s.pos = append(make([]uint16, 0, n), s.pos...)[:n]
	for slot := old; slot < n; slot++ {
		s.due[slot] = never
		s.heap[slot] = uint16(slot) // the largest key, placed as a leaf
		s.pos[slot] = uint16(slot)
	}
}

// first returns the slot with the earliest deadline.
func (s *schedule) first() int { return int(s.heap[0]) }

// before reports whether slot a is served before slot b.
func (s *schedule) before(a, b uint16) bool {
	return s.due[a] < s.due[b] || (s.due[a] == s.due[b] && a < b)
}

// set moves slot's deadline to due.
//
//lint:allocfree
func (s *schedule) set(slot int, due time.Duration) {
	later := due > s.due[slot]
	s.due[slot] = due
	if later {
		s.down(int(s.pos[slot]))
	} else {
		s.up(int(s.pos[slot]))
	}
}

// up sifts the entry at heap index i toward the root.
//
//lint:allocfree
func (s *schedule) up(i int) {
	h, slot := s.heap, s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(slot, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.pos[h[i]] = uint16(i)
		i = parent
	}
	h[i] = slot
	s.pos[slot] = uint16(i)
}

// down sifts the entry at heap index i toward the leaves.
//
//lint:allocfree
func (s *schedule) down(i int) {
	h, slot := s.heap, s.heap[i]
	for {
		child := 4*i + 1
		if child >= len(h) {
			break
		}
		least := child
		for c := child + 1; c < min(child+4, len(h)); c++ {
			if s.before(h[c], h[least]) {
				least = c
			}
		}
		if !s.before(h[least], slot) {
			break
		}
		h[i] = h[least]
		s.pos[h[i]] = uint16(i)
		i = least
	}
	h[i] = slot
	s.pos[slot] = uint16(i)
}
