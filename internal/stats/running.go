package stats

import (
	"math"
	"slices"
)

// Running is a single-pass summary of a stream of observations.
// Moments are maintained with Welford's algorithm so Mean and Std are
// available at any point without a second pass; the raw values are also
// retained (8 bytes per observation) so quantiles are exact rather than
// sketched — campaign trial counts are small enough that exactness is
// worth the memory. The zero value is an empty, ready-to-use summary.
//
// Add order affects only floating-point rounding of the moments; callers
// that need bit-identical output across worker counts must add in a
// deterministic order (the campaign aggregator adds trials in trial-index
// order for exactly this reason).
type Running struct {
	n        int
	mean, m2 float64
	max      float64
	vals     []float64
}

// Add folds one observation into the summary.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 || x > r.max {
		r.max = x
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
	r.vals = append(r.vals, x)
}

// Mean returns the running mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Std returns the running sample standard deviation (0 for n < 2).
func (r *Running) Std() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n-1))
}

// Max returns the largest observation (0 when empty).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Quantile returns the exact q-quantile of the observations seen so far
// (0 when empty), with the same linear interpolation as Quantile.
func (r *Running) Quantile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	return Quantile(r.vals, q)
}

// Summary renders the stream as a Summary. The retained sample is copied
// and sorted once, shared by all three quantiles.
func (r *Running) Summary() Summary {
	if r.n == 0 {
		return Summary{}
	}
	ys := append([]float64(nil), r.vals...)
	slices.Sort(ys)
	return Summary{
		N:    r.n,
		Mean: r.Mean(),
		Std:  r.Std(),
		P50:  quantileSorted(ys, 0.5),
		P90:  quantileSorted(ys, 0.9),
		P99:  quantileSorted(ys, 0.99),
		Max:  r.Max(),
	}
}
