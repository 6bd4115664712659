package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.N() != 0 {
		t.Error("empty N != 0")
	}
	if c.FractionLE(10) != 0 {
		t.Error("empty FractionLE != 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty quantile not NaN")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.FractionLE(2); got != 0.5 {
		t.Errorf("FractionLE(2) = %v", got)
	}
	if got := c.FractionLE(0.5); got != 0 {
		t.Errorf("FractionLE(0.5) = %v", got)
	}
	if got := c.FractionLE(4); got != 1 {
		t.Errorf("FractionLE(4) = %v", got)
	}
	if got := c.CountLE(3); got != 3 {
		t.Errorf("CountLE(3) = %v", got)
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("min/max = %v/%v", c.Min(), c.Max())
	}
	if c.Median() != 2.5 {
		t.Errorf("median = %v", c.Median())
	}
}

func TestCDFAddResorts(t *testing.T) {
	var c CDF
	c.Add(5)
	c.Add(1)
	if c.Median() != 3 {
		t.Errorf("median = %v", c.Median())
	}
	c.Add(0)
	if c.Median() != 1 {
		t.Errorf("median after add = %v", c.Median())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	if got := c.Quantile(0.25); got != 2.5 {
		t.Errorf("q(0.25) = %v", got)
	}
	if got := c.Quantile(-1); got != 0 {
		t.Errorf("q(-1) = %v", got)
	}
	if got := c.Quantile(2); got != 10 {
		t.Errorf("q(2) = %v", got)
	}
}

func TestEWMA(t *testing.T) {
	avg := EWMA(0, 100, 0.5, false)
	if avg != 100 {
		t.Errorf("first sample = %v, want it to seed the average", avg)
	}
	if avg = EWMA(avg, 50, 0.5, true); avg != 75 {
		t.Errorf("second sample = %v", avg)
	}
	// An unseeded average is whatever its holder left there: it is ignored.
	if got := EWMA(12345, 7, 0.5, false); got != 7 {
		t.Errorf("unseeded average leaked into the first sample: %v", got)
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestQuantileMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
		}
		c := NewCDF(vals)
		q1 := rng.Float64()
		q2 := rng.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := c.Quantile(q1), c.Quantile(q2)
		return v1 <= v2 && v1 >= c.Min() && v2 <= c.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FractionLE is a valid CDF: monotone, 0 before min, 1 at max.
func TestFractionLEQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(100))
		}
		c := NewCDF(vals)
		xs := []float64{-1, 0, 25, 50, 99, 100}
		prev := -1.0
		for _, x := range xs {
			fx := c.FractionLE(x)
			if fx < prev || fx < 0 || fx > 1 {
				return false
			}
			prev = fx
		}
		return c.FractionLE(c.Max()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: EWMA stays within the range of its inputs.
func TestEWMABoundedQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := 0.1 + 0.8*r.Float64()
		lo, hi := math.Inf(1), math.Inf(-1)
		var v float64
		for i := 0; i < 100; i++ {
			x := r.Float64() * 1000
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			v = EWMA(v, x, alpha, i > 0)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSelectKthMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(80)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(25)) // duplicates likely
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		k := r.Intn(n)
		scratch := append([]float64(nil), vals...)
		if got := SelectKth(scratch, k); got != sorted[k] {
			t.Fatalf("trial %d: SelectKth(%v, %d) = %v, want %v", trial, vals, k, got, sorted[k])
		}
	}
}

func TestMeanMax(t *testing.T) {
	m, mx := MeanMax([]float64{1, 2, 3})
	if m != 2 || mx != 3 {
		t.Errorf("MeanMax = %f, %f", m, mx)
	}
	m, mx = MeanMax(nil)
	if m != 0 || mx != 0 {
		t.Error("empty MeanMax nonzero")
	}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.vals) }
