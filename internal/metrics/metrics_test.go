package metrics

import (
	"math"
	"testing"
	"time"

	"allpairs/internal/wire"
)

var start = time.Unix(0, 0).UTC()

func TestRecordTotals(t *testing.T) {
	c := New(2, start, time.Minute)
	if c.N() != 2 || c.Window() != time.Minute {
		t.Fatalf("N=%d window=%v", c.N(), c.Window())
	}
	c.Record(0, Out, wire.CatRouting, 100, start)
	c.Record(0, In, wire.CatRouting, 50, start.Add(time.Second))
	c.Record(0, Out, wire.CatProbing, 0, start)

	wantOut := uint64(100 + wire.PerPacketOverhead)
	if got := c.Bytes(0, wire.CatRouting, Out); got != wantOut {
		t.Errorf("routing out = %d, want %d", got, wantOut)
	}
	wantIn := uint64(50 + wire.PerPacketOverhead)
	if got := c.Bytes(0, wire.CatRouting, In); got != wantIn {
		t.Errorf("routing in = %d, want %d", got, wantIn)
	}
	if got := c.TotalBytes(0, wire.CatRouting); got != wantOut+wantIn {
		t.Errorf("total = %d", got)
	}
	if got := c.Bytes(0, wire.CatProbing, Out); got != uint64(wire.PerPacketOverhead) {
		t.Errorf("probe bytes = %d (overhead must be charged on empty payloads)", got)
	}
	if c.Packets(0, wire.CatRouting, Out) != 1 || c.Packets(0, wire.CatRouting, In) != 1 {
		t.Error("packet counts wrong")
	}
	if c.TotalBytes(1, wire.CatRouting) != 0 {
		t.Error("node 1 has traffic")
	}
	c.Record(-1, In, wire.CatRouting, 1, start) // out of range: ignored
	c.Record(5, In, wire.CatRouting, 1, start)
}

func TestWindowing(t *testing.T) {
	c := New(1, start, time.Minute)
	// Window 0: 1000 payload bytes; window 2: 4000.
	c.Record(0, Out, wire.CatRouting, 1000-wire.PerPacketOverhead, start.Add(10*time.Second))
	c.Record(0, In, wire.CatRouting, 4000-wire.PerPacketOverhead, start.Add(2*time.Minute+5*time.Second))

	if wc := c.WindowCount(0); wc != 3 {
		t.Fatalf("window count = %d", wc)
	}
	// Max over windows 0..3: window 2 holds 4000 bytes = 32000 bits / 60 s.
	gotMax := c.MaxWindowKbps(0, wire.CatRouting, 0, 3)
	wantMax := 4000 * 8.0 / 60 / 1000
	if math.Abs(gotMax-wantMax) > 1e-9 {
		t.Errorf("max = %v, want %v", gotMax, wantMax)
	}
	// Mean over 3 windows: 5000 bytes / 180 s.
	gotMean := c.MeanWindowKbps(0, wire.CatRouting, 0, 3)
	wantMean := 5000 * 8.0 / 180 / 1000
	if math.Abs(gotMean-wantMean) > 1e-9 {
		t.Errorf("mean = %v, want %v", gotMean, wantMean)
	}
	// Empty range.
	if c.MeanWindowKbps(0, wire.CatRouting, 3, 3) != 0 {
		t.Error("empty range mean != 0")
	}
	if c.MaxWindowKbps(0, wire.CatRouting, 5, 9) != 0 {
		t.Error("out-of-range max != 0")
	}
}

func TestRecordBeforeStartClampsToWindowZero(t *testing.T) {
	c := New(1, start, time.Minute)
	c.Record(0, Out, wire.CatProbing, 10, start.Add(-time.Hour))
	if c.WindowCount(0) != 1 {
		t.Errorf("window count = %d", c.WindowCount(0))
	}
}

func TestSnapshot(t *testing.T) {
	c := New(3, start, time.Minute)
	c.Record(1, Out, wire.CatRouting, 10, start)
	s := c.Snapshot(wire.CatRouting)
	if len(s) != 3 || s[1] != uint64(10+wire.PerPacketOverhead) || s[0] != 0 {
		t.Errorf("snapshot = %v", s)
	}
}

func TestKbps(t *testing.T) {
	if got := Kbps(7500, time.Minute); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Kbps(7500, 1m) = %v, want 1.0", got)
	}
	if Kbps(100, 0) != 0 {
		t.Error("zero duration should yield 0")
	}
}

func TestDefaultWindow(t *testing.T) {
	c := New(1, start, 0)
	if c.Window() != time.Minute {
		t.Errorf("default window = %v", c.Window())
	}
}

// WindowCount returns the number of windows a node has touched.
func (c *Collector) WindowCount(node int) int { return len(c.nodes[node].windows) }
