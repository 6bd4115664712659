package probe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"allpairs/internal/wire"
)

// TestScheduleMatchesModel drives seeded random set sequences — deadlines drawn
// from a handful of values, so ties are the common case, with grows and nevers
// mixed in — and after every operation checks the heap against a
// sort-by-(due, slot) reference: the back-index, the earliest entry, and the
// whole order of service.
func TestScheduleMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s schedule
		s.grow(1 + rng.Intn(5))
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(20); {
			case r == 0 && len(s.due) < 90:
				s.grow(len(s.due) + 1 + rng.Intn(8))
			case r == 1:
				s.set(rng.Intn(len(s.due)), never)
			default:
				s.set(rng.Intn(len(s.due)), time.Duration(rng.Intn(12)))
			}
			checkSchedule(t, &s)
			if t.Failed() {
				t.Fatalf("seed %d, after op %d", seed, op)
			}
		}
	}
}

// checkSchedule compares s with the sorted reference, serving a copy of it to
// the end.
func checkSchedule(t *testing.T, s *schedule) {
	t.Helper()
	n := len(s.due)
	if len(s.heap) != n || len(s.pos) != n {
		t.Fatalf("%d deadlines, %d heap entries, %d back-indexes", n, len(s.heap), len(s.pos))
	}
	want := make([]int, n)
	for slot := range want {
		want[slot] = slot
		if s.heap[s.pos[slot]] != uint16(slot) {
			t.Errorf("pos[%d] = %d, but heap holds slot %d there", slot, s.pos[slot], s.heap[s.pos[slot]])
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		return s.due[a] < s.due[b] || (s.due[a] == s.due[b] && a < b)
	})
	c := schedule{
		due:  append([]time.Duration(nil), s.due...),
		heap: append([]uint16(nil), s.heap...),
		pos:  append([]uint16(nil), s.pos...),
	}
	for i, slot := range want {
		if s.due[slot] == never {
			break // the rest have no deadline and are never served
		}
		if got := c.first(); got != slot {
			t.Errorf("served %d: slot %d (due %v), want slot %d (due %v)", i, got, c.due[got], slot, c.due[slot])
			return
		}
		c.set(slot, never)
	}
	if first := c.first(); c.due[first] != never {
		t.Errorf("slot %d still due at %v after every deadline was served", first, c.due[first])
	}
}

// meshFixture is a full mesh of n probers at the default 10:3 ratio of probing
// interval to reply timeout, every pair on its own latency.
func meshFixture(t *testing.T, n int) (*fixture, Config) {
	t.Helper()
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: 3 * time.Second}
	f := newFixture(t, n, cfg, 0)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			f.nw.SetLatency(a, b, time.Duration(3+a+b)*time.Millisecond+time.Duration(31*a+7*b)*time.Microsecond)
		}
	}
	return f, cfg
}

// TestProbeInstantsUnchanged pins when every probe and reply leaves: the hash
// covers (virtual ns, from, to, type, seq) of each one a 12-node mesh sends
// over ten intervals with 10 % loss, one link failure and its recovery. It was
// captured on the prober that ran two timers per link, before the one-timer
// scheduler existed; a scheduler that moves a send by a nanosecond changes it.
func TestProbeInstantsUnchanged(t *testing.T) {
	const n = 12
	f, cfg := meshFixture(t, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			f.nw.SetLoss(a, b, 0.1)
		}
	}
	h := sha256.New()
	sent := 0
	f.nw.OnSend = func(from, to int, payload []byte) {
		hd, body, err := wire.ParseHeader(payload)
		if err != nil || len(body) < 4 {
			t.Fatalf("unparseable probe-plane payload %x", payload)
		}
		var rec [8 + 2 + 2 + 1 + 4]byte
		binary.BigEndian.PutUint64(rec[0:], uint64(f.nw.Elapsed()))
		binary.BigEndian.PutUint16(rec[8:], uint16(from))
		binary.BigEndian.PutUint16(rec[10:], uint16(to))
		rec[12] = byte(hd.Type)
		copy(rec[13:], body[:4]) // Seq leads both bodies
		h.Write(rec[:])
		sent++
	}
	f.startAll()
	f.nw.RunFor(3 * cfg.Interval)
	if !f.probers[0].Alive(1) {
		t.Fatal("link 0->1 not alive before the failure")
	}
	f.nw.SetLinkDown(0, 1, true)
	f.nw.RunFor(3 * cfg.Interval)
	if f.probers[0].Alive(1) {
		t.Fatal("link 0->1 failure not detected")
	}
	f.nw.SetLinkDown(0, 1, false)
	f.nw.RunFor(4 * cfg.Interval)
	if !f.probers[0].Alive(1) {
		t.Fatal("link 0->1 recovery not detected")
	}
	const want = "4e5d5aedff260cac8a102d60211716155d1fd0fb061afe66e8a8268dad355994"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("hash over %d probe-plane sends = %s, want %s", sent, got, want)
	}
}

// TestPendingLinearInLinks: a fleet of n probers keeps O(n) entries in the
// event queue — one timer each — beside the packets in flight, not one or two
// per directed link.
func TestPendingLinearInLinks(t *testing.T) {
	const n = 32
	f, cfg := meshFixture(t, n)
	sent := uint64(0)
	f.nw.OnSend = func(int, int, []byte) { sent++ }
	f.startAll()
	f.nw.RunFor(2 * cfg.Interval)
	for i := 0; i <= 10; i++ {
		inFlight := int(sent - f.nw.Delivered() - f.nw.Dropped())
		if got := f.nw.Pending(); got > 3*n+inFlight {
			t.Fatalf("interval %d: %d events pending with %d packets in flight, want at most 3n = %d beside them",
				2+i, got, inFlight, 3*n)
		}
		f.nw.RunFor(cfg.Interval)
	}
}

// TestExchangeAllocs: in steady state a probe exchange allocates its two
// payloads and the record of the prober's re-armed timer, nothing else. The
// mesh is wide enough that a prober's next send always comes before its last
// probe's reply deadline, as in any fleet; a lone link also pays for the wake
// that finds its probe answered.
func TestExchangeAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates on its own")
			}
		}
	}
	f, cfg := meshFixture(t, 32)
	exchanges := 0
	for _, p := range f.probers {
		p.OnMeasure = func(int, time.Duration) { exchanges++ }
	}
	f.startAll()
	f.nw.RunFor(3 * cfg.Interval) // queue and packet free list at their steady size
	exchanges = 0
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() { f.nw.RunFor(cfg.Interval) })
	perRun := float64(exchanges) / (runs + 1) // AllocsPerRun adds a warm-up call
	if perRun < 0.9*32*31 {
		t.Fatalf("%.0f exchanges an interval, want about one on each of %d links", perRun, 32*31)
	}
	if got := allocs / perRun; got > 3 {
		t.Errorf("%.2f allocations per exchange, want at most 3", got)
	}
}

// TestStopIsFinal: a reply that lands after Stop must not start the link
// again.
func TestStopIsFinal(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, ReplyTimeout: time.Second}
	f := newFixture(t, 3, cfg, 25*time.Millisecond)
	probes, inFlight := 0, false
	f.nw.OnSend = func(from, to int, payload []byte) {
		if wire.PeekType(payload) == wire.TProbe {
			probes++
			inFlight = inFlight || from == 0
		}
	}
	f.startAll()
	f.nw.RunFor(3 * cfg.Interval)
	for inFlight = false; !inFlight; {
		if !f.nw.Step() {
			t.Fatal("queue drained before prober 0 sent a probe")
		}
	}
	for _, p := range f.probers {
		p.Stop()
	}
	probes = 0
	f.nw.RunFor(5 * time.Minute)
	if probes != 0 || f.nw.Pending() != 0 {
		t.Errorf("after Stop with a probe in flight: %d probes sent, %d events still pending, want none",
			probes, f.nw.Pending())
	}
}
