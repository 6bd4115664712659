package simnet

import (
	"math/bits"
	"time"
)

// The event queue is a hashed timing wheel that keeps the exact (at, seq)
// order. Time is cut into ticks of 2^20 ns (≈ 1.05 ms), and the wheel has one
// bucket per tick for the span of ≈ 1.07 s after its cursor tick. An event
// sits in the heap if its tick is the cursor's, unsorted in its tick's
// bucket if cursor < tick < cursor + span, and in the far heap beyond, so
// the heap's minimum is the queue's. When the heap runs dry the cursor
// advances to the next occupied bucket (a bitmap finds it) or, with the
// wheel empty, to the far heap's first tick, loads that tick into the heap,
// and moves the far events the new span covers into their buckets. The heap
// holds one tick — a dozen entries on a fleet, not thousands.
const (
	tickShift = 20
	wheelSize = 1 << 10
	wheelMask = wheelSize - 1
)

func tickOf(at time.Duration) int64 { return int64(at) >> tickShift }

// entry is one queued event: the (at, seq) key inline, so ordering never
// follows a pointer, plus the record to run — a timer or a packet, never both.
// A stopped timer keeps its entry until it is popped.
type entry struct {
	at  time.Duration
	seq uint64
	t   *Timer
	pkt *packet
}

// before reports whether e runs before o: earlier timestamp, then earlier
// scheduling order. seq is unique, so this is a strict total order and no
// structure's shape shows in the order events run.
func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a 4-ary min-heap on (at, seq): children of i are 4i+1..4i+4.
type eventHeap []entry

// heapStart is a heap's first capacity, a busy tick's worth of events: the
// current tick's heap then reaches its working size in one allocation, not
// in a doubling each time a tick beats the busiest so far.
const heapStart = 64

//lint:allocfree
func (h *eventHeap) push(e entry) {
	if cap(*h) == 0 {
		//lint:allowalloc the heap's first backing array
		*h = make(eventHeap, 0, heapStart)
	}
	//lint:allowalloc amortized growth of the heap's backing array
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest entry. The heap must not be empty.
//
//lint:allocfree
func (h *eventHeap) pop() entry {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // drop the record references for the collector
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 4*i + 1
		if child >= n {
			break
		}
		least := child
		for c := child + 1; c < min(child+4, n); c++ {
			if q[c].before(&q[least]) {
				least = c
			}
		}
		if !q[least].before(&last) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = last
	return top
}

// node is one bucket entry. next is the pool index of the list's next node
// plus one, so 0 ends a list.
type node struct {
	e    entry
	next int32
}

// queue is the simulator's event queue; see the comment at the top of the
// file for its structure and invariant. The zero value is an empty queue.
type queue struct {
	cursor int64 // tick of the heap's events; the clock's tick is never below it
	heap   eventHeap
	far    eventHeap

	// head[b] is bucket b's first pool node and free the first recycled
	// one, each plus one like node.next, so a zero queue is empty.
	head     [wheelSize]int32
	free     int32
	occupied [wheelSize / 64]uint64 // bit b set iff bucket b is non-empty
	wheeled  int                    // entries in buckets
	nodes    []node
}

// Len is the number of queued entries, stopped timers included.
func (q *queue) Len() int { return len(q.heap) + q.wheeled + len(q.far) }

// push queues e.
//
//lint:allocfree
func (q *queue) push(e entry) {
	switch t := tickOf(e.at); {
	case t <= q.cursor: // the cursor's tick: the clock's is never below it
		q.heap.push(e)
	case t < q.cursor+wheelSize: // prepend to the bucket's list
		i := q.free
		if i > 0 {
			q.free = q.nodes[i-1].next
		} else {
			//lint:allowalloc amortized growth of the node pool
			q.nodes = append(q.nodes, node{})
			i = int32(len(q.nodes))
		}
		b := int(t & wheelMask)
		q.nodes[i-1] = node{e: e, next: q.head[b]}
		q.head[b] = i
		q.occupied[b>>6] |= 1 << (b & 63)
		q.wheeled++
	default:
		q.far.push(e)
	}
}

// pop removes and returns the earliest entry. The queue must not be empty.
func (q *queue) pop() entry {
	if len(q.heap) == 0 {
		q.advance(q.nextTick())
	}
	return q.heap.pop()
}

// due reports whether the earliest entry runs at or before t. It advances
// the cursor only to a tick that starts by t, so the clock never trails the
// cursor and a later push never lands in the heap behind it.
func (q *queue) due(t time.Duration) bool {
	if len(q.heap) == 0 {
		if q.Len() == 0 {
			return false
		}
		next := q.nextTick()
		if next > tickOf(t) {
			return false
		}
		q.advance(next)
	}
	return q.heap[0].at <= t
}

// nextTick returns the earliest tick past the cursor that holds an event:
// the first occupied bucket's, or with the wheel empty the far heap's. The
// queue must hold something past the cursor.
func (q *queue) nextTick() int64 {
	if q.wheeled == 0 {
		return tickOf(q.far[0].at)
	}
	// The bitmap scan starts mid-word at the tick after the cursor and wraps
	// round to that word's low bits, the wheel's last ticks.
	start := int(q.cursor+1) & wheelMask
	for off := 0; off <= wheelSize; off += 64 - (start+off)&63 {
		b := (start + off) & wheelMask
		if w := q.occupied[b>>6] >> (b & 63); w != 0 {
			return q.cursor + 1 + int64(off+bits.TrailingZeros64(w))
		}
	}
	panic("simnet: wheel count says occupied, bitmap says empty")
}

// advance moves the cursor to tick to, loads its bucket into the (empty)
// heap, and moves the far events the new span covers into their buckets.
//
//lint:allocfree
func (q *queue) advance(to int64) {
	q.cursor = to
	b := int(to & wheelMask)
	for i := q.head[b]; i > 0; q.wheeled-- {
		n := &q.nodes[i-1]
		q.heap.push(n.e)
		next := n.next
		*n = node{next: q.free} // drop the record references for the collector
		q.free, i = i, next
	}
	q.head[b] = 0
	q.occupied[b>>6] &^= 1 << (b & 63)
	for len(q.far) > 0 && tickOf(q.far[0].at) < q.cursor+wheelSize {
		q.push(q.far.pop())
	}
}
