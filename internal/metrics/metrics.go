// Package metrics implements the bandwidth accounting behind the paper's
// evaluation: per-node byte and packet counts by traffic category with
// 1-minute windows (Figures 9 and 10).
//
// Byte counts charge wire.PerPacketOverhead per packet on top of the
// payload, matching how the paper's published traffic coefficients account
// for UDP/IP framing. Collectors are not internally locked: under the
// simulator everything is single-threaded, and UDP deployments record from
// within the Env's serialized callbacks.
package metrics

import (
	"time"

	"allpairs/internal/wire"
)

// Direction distinguishes incoming from outgoing traffic. The paper reports
// the sum of both.
type Direction int

// Traffic directions.
const (
	In Direction = iota
	Out
	numDirections
)

// Collector accumulates per-node traffic statistics for a fleet of n nodes.
type Collector struct {
	start  int64 // Unix nanoseconds: Record runs twice per packet
	window time.Duration
	nodes  []nodeCounters
}

type nodeCounters struct {
	bytes   [wire.NumCategories][numDirections]uint64
	packets [wire.NumCategories][numDirections]uint64
	// windows[w][cat] = bytes (both directions) in window w.
	windows [][wire.NumCategories]uint64
}

// New creates a collector for n nodes. window is the bucketing interval for
// peak-rate reporting; the paper uses 1 minute.
func New(n int, start time.Time, window time.Duration) *Collector {
	if window <= 0 {
		window = time.Minute
	}
	return &Collector{start: start.UnixNano(), window: window, nodes: make([]nodeCounters, n)}
}

// N returns the number of tracked nodes.
func (c *Collector) N() int { return len(c.nodes) }

// Window returns the bucketing interval.
func (c *Collector) Window() time.Duration { return c.window }

// Record charges one packet of the given payload size (overhead is added
// here) to a node's counters.
func (c *Collector) Record(node int, dir Direction, cat wire.Category, payloadBytes int, now time.Time) {
	if node < 0 || node >= len(c.nodes) {
		return
	}
	total := uint64(payloadBytes + wire.PerPacketOverhead)
	nc := &c.nodes[node]
	nc.bytes[cat][dir] += total
	nc.packets[cat][dir]++

	w := 0
	if d := now.UnixNano() - c.start; d > 0 {
		w = int(time.Duration(d) / c.window)
	}
	for len(nc.windows) <= w {
		nc.windows = append(nc.windows, [wire.NumCategories]uint64{})
	}
	nc.windows[w][cat] += total
}

// Bytes returns the total bytes recorded for a node in one category and
// direction.
func (c *Collector) Bytes(node int, cat wire.Category, dir Direction) uint64 {
	return c.nodes[node].bytes[cat][dir]
}

// Packets returns the packet count for a node in one category and direction.
func (c *Collector) Packets(node int, cat wire.Category, dir Direction) uint64 {
	return c.nodes[node].packets[cat][dir]
}

// TotalBytes returns a node's bytes in a category summed over both
// directions, the quantity the paper's bandwidth figures report.
func (c *Collector) TotalBytes(node int, cat wire.Category) uint64 {
	return c.Bytes(node, cat, In) + c.Bytes(node, cat, Out)
}

// Snapshot captures the current per-node totals (both directions) for one
// category, for computing steady-state deltas.
func (c *Collector) Snapshot(cat wire.Category) []uint64 {
	out := make([]uint64, len(c.nodes))
	for i := range c.nodes {
		out[i] = c.TotalBytes(i, cat)
	}
	return out
}

// Kbps converts a byte count over a duration to kilobits per second
// (1 Kbps = 1000 bit/s, as in the paper).
func Kbps(bytes uint64, over time.Duration) float64 {
	if over <= 0 {
		return 0
	}
	return float64(bytes) * 8 / over.Seconds() / 1000
}

// MeanWindowKbps returns a node's average rate in a category over windows
// [fromWindow, toWindow) in Kbps.
func (c *Collector) MeanWindowKbps(node int, cat wire.Category, fromWindow, toWindow int) float64 {
	nc := &c.nodes[node]
	var sum uint64
	count := 0
	for w := fromWindow; w < toWindow; w++ {
		if w >= 0 && w < len(nc.windows) {
			sum += nc.windows[w][cat]
		}
		count++
	}
	if count == 0 {
		return 0
	}
	return Kbps(sum, time.Duration(count)*c.window)
}

// MaxWindowKbps returns a node's peak single-window rate in a category over
// windows [fromWindow, toWindow) in Kbps — the "max (any 1-min window)"
// series of Figure 10.
func (c *Collector) MaxWindowKbps(node int, cat wire.Category, fromWindow, toWindow int) float64 {
	nc := &c.nodes[node]
	var maxBytes uint64
	for w := fromWindow; w < toWindow; w++ {
		if w >= 0 && w < len(nc.windows) && nc.windows[w][cat] > maxBytes {
			maxBytes = nc.windows[w][cat]
		}
	}
	return Kbps(maxBytes, c.window)
}
