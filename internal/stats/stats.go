// Package stats provides the small statistics toolkit shared by the
// experiment harness: empirical CDFs with their quantiles, and exponentially
// weighted moving averages. Every figure in the paper's evaluation is either
// a CDF or a per-key percentile summary, so these types are the common
// currency of internal/emul and cmd/experiments.
package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
// The zero value is an empty distribution ready for use.
type CDF struct {
	sorted bool
	vals   []float64
}

// NewCDF returns a CDF over a copy of vals.
func NewCDF(vals []float64) *CDF {
	c := &CDF{vals: append([]float64(nil), vals...)}
	c.sort()
	return c
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.vals = append(c.vals, v)
	c.sorted = false
}

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.vals)
		c.sorted = true
	}
}

// FractionLE returns the fraction of samples ≤ x, i.e. F(x).
func (c *CDF) FractionLE(x float64) float64 {
	if len(c.vals) == 0 {
		return 0
	}
	c.sort()
	i := sort.SearchFloat64s(c.vals, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.vals))
}

// CountLE returns the number of samples ≤ x.
func (c *CDF) CountLE(x float64) int {
	if len(c.vals) == 0 {
		return 0
	}
	c.sort()
	return sort.SearchFloat64s(c.vals, math.Nextafter(x, math.Inf(1)))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics. Quantile(0) is the minimum, Quantile(1) the
// maximum. It returns NaN for an empty distribution.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	c.sort()
	if q <= 0 {
		return c.vals[0]
	}
	if q >= 1 {
		return c.vals[len(c.vals)-1]
	}
	pos := q * float64(len(c.vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.vals[lo]
	}
	frac := pos - float64(lo)
	return c.vals[lo]*(1-frac) + c.vals[hi]*frac
}

// Min returns the smallest sample (NaN if empty).
func (c *CDF) Min() float64 { return c.Quantile(0) }

// Max returns the largest sample (NaN if empty).
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Median returns the 50th percentile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Values returns the sorted samples. The returned slice is owned by the CDF
// and must not be modified.
func (c *CDF) Values() []float64 {
	c.sort()
	return c.vals
}

// SelectKth partially reorders vals in place and returns its k-th smallest
// element (0-based), the value sort.Float64s(vals); vals[k] would produce.
// It is the O(n) quickselect the experiment harness uses when only a few
// order statistics of a scratch buffer are needed — the Figure 1 exclusion
// indices, for example — instead of an O(n log n) full sort per pair.
func SelectKth(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		// Median-of-three pivot, moved to hi for a Lomuto partition.
		mid := lo + (hi-lo)/2
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		vals[mid], vals[hi] = vals[hi], vals[mid]
		pivot := vals[hi]
		p := lo
		for i := lo; i < hi; i++ {
			if vals[i] < pivot {
				vals[i], vals[p] = vals[p], vals[i]
				p++
			}
		}
		vals[p], vals[hi] = vals[hi], vals[p]
		switch {
		case p == k:
			return vals[k]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return vals[k]
}

// MeanMax returns the mean and the maximum of vals, both 0 for none. The
// maximum starts at 0: the harness averages only non-negative samples.
func MeanMax(vals []float64) (mean, max float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
		if v > max {
			max = v
		}
	}
	return mean / float64(len(vals)), max
}

// EWMA folds observation x into the exponentially weighted moving average avg
// with smoothing factor alpha and returns alpha*x + (1-alpha)*avg. The first
// sample (seeded false) seeds the average directly, as in RON's latency
// estimator. The caller keeps the average and the flag: eight bytes and a bit.
func EWMA(avg, x, alpha float64, seeded bool) float64 {
	if !seeded {
		return x
	}
	return alpha*x + (1-alpha)*avg
}
