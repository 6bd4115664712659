package probe

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"allpairs/internal/stats"
)

// pointerFree reports whether a value of type t holds nothing the collector
// must follow: numbers and bools, in arrays and structs.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return t.Kind() >= reflect.Bool && t.Kind() <= reflect.Complex128 && t.Kind() != reflect.Uintptr
	}
}

// TestLinkStateIsSmallAndPointerFree pins what probing costs a node: n links
// of 24 bytes (it was 120: four estimators, each with its own copy of a
// constant), scanned by no collector, and nothing for the one-way estimates
// unless they are asked for. A field added later fails here before it grows
// every fleet's heap.
func TestLinkStateIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(linkState{}); size != 24 {
		t.Errorf("linkState is %d bytes, want 24", size)
	}
	for _, v := range []any{linkState{}, oneWay{}} {
		if !pointerFree(reflect.TypeOf(v)) {
			t.Errorf("%T holds a pointer, slice, map, string or interface", v)
		}
	}
	if pointerFree(reflect.TypeOf(struct{ at time.Time }{})) {
		t.Error("the walk calls time.Time pointer-free: it checks nothing")
	}
	f := newFixture(t, 3, Config{}, 10*time.Millisecond)
	if p := f.probers[0]; p.oneWays != nil || p.asymRow != nil {
		t.Error("a symmetric prober keeps one-way state")
	}
	f = newFixture(t, 3, Config{Asymmetric: true}, 10*time.Millisecond)
	if p := f.probers[0]; len(p.oneWays) != 3 || len(p.asymRow) != 3 {
		t.Error("an asymmetric prober keeps no one-way state")
	}
}

// parentEWMA is the estimator a link held four of before it held two float64s:
// stats.EWMA as it stood, kept here as the reference the fold must match.
type parentEWMA struct {
	Alpha  float64
	value  float64
	seeded bool
}

func (e *parentEWMA) Update(x float64) float64 {
	if !e.seeded {
		e.value = x
		e.seeded = true
		return x
	}
	e.value = e.Alpha*x + (1-e.Alpha)*e.value
	return e.value
}

// TestEstimatesMatchParentEWMA: a link's latency and loss estimates are the
// parent's, bit for bit, first sample included. A last-bit difference in a
// latency survives until uint16 truncation lands on the other side of an
// integer, and then a link-state row, a route and a digest differ.
func TestEstimatesMatchParentEWMA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lat, loss := parentEWMA{Alpha: latencyAlpha}, parentEWMA{Alpha: lossAlpha}
	var ls linkState
	for i := 0; i < 10000; i++ {
		ms := rng.ExpFloat64() * 80
		lost := float64(rng.Intn(2))
		ls.latency = stats.EWMA(ls.latency, ms, latencyAlpha, ls.flags&everAlive != 0)
		ls.flags |= everAlive
		ls.resolved(lost)
		if want := lat.Update(ms); math.Float64bits(ls.latency) != math.Float64bits(want) {
			t.Fatalf("sample %d: latency %v, the parent's %v", i, ls.latency, want)
		}
		if want := loss.Update(lost); math.Float64bits(ls.loss) != math.Float64bits(want) {
			t.Fatalf("sample %d: loss %v, the parent's %v", i, ls.loss, want)
		}
	}
}

// TestScheduleIsTwelveBytesASlot pins the deadline heap's cost: an 8-byte
// deadline and two 2-byte indexes per slot, each table exactly as long as the
// slot space.
func TestScheduleIsTwelveBytesASlot(t *testing.T) {
	const n = 100
	var s schedule
	s.grow(n)
	bytes := uintptr(cap(s.due))*unsafe.Sizeof(s.due[0]) +
		uintptr(cap(s.heap))*unsafe.Sizeof(s.heap[0]) +
		uintptr(cap(s.pos))*unsafe.Sizeof(s.pos[0])
	if bytes != 12*n {
		t.Errorf("a %d-slot schedule holds %d bytes, want 12 a slot", n, bytes)
	}
}
