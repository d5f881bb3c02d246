// Package stats provides the descriptive statistics and the locality
// diagnostics used by AutoSens: moments, quantiles, correlation, the
// MSD/MAD successive-difference ratio from Section 2.1 of the paper, and
// bootstrap confidence intervals.
package stats

import (
	"errors"
	"math"
	"sort"

	"autosens/internal/rng"
)

// ErrEmpty is returned for statistics of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// NaN returns an IEEE 754 quiet NaN; convenience re-export so callers need
// not import math just for missing-value sentinels.
func NaN() float64 { return math.NaN() }

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the unbiased (n−1) sample variance.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, errors.New("stats: variance needs at least 2 samples")
	}
	m, _ := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// quantileSorted computes the q-quantile of an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// QuantileSorted is Quantile for a slice the caller has already sorted
// ascending, skipping Quantile's defensive copy-and-sort. Results are
// bit-identical to Quantile on the same multiset.
func QuantileSorted(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	return quantileSorted(sorted, q), nil
}

// Quartiles returns the 25th, 50th and 75th percentiles.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) == 0 {
		return 0, 0, 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, 0.25), quantileSorted(sorted, 0.5), quantileSorted(sorted, 0.75), nil
}

// Pearson returns the Pearson product-moment correlation of xs and ys.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: correlation needs at least 2 samples")
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Autocorrelation returns the lag-k sample autocorrelation of the series —
// a complementary locality diagnostic to the MSD/MAD ratio.
func Autocorrelation(xs []float64, lag int) (float64, error) {
	if lag <= 0 {
		return 0, errors.New("stats: non-positive lag")
	}
	if len(xs) <= lag+1 {
		return 0, errors.New("stats: series shorter than lag")
	}
	m, _ := Mean(xs)
	var num, den float64
	for i := range xs {
		d := xs[i] - m
		den += d * d
		if i+lag < len(xs) {
			num += d * (xs[i+lag] - m)
		}
	}
	if den == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return num / den, nil
}

// MSD returns the mean absolute successive difference of the series:
// mean |x[i+1] − x[i]|.
func MSD(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, errors.New("stats: MSD needs at least 2 samples")
	}
	var s float64
	for i := 1; i < len(xs); i++ {
		s += math.Abs(xs[i] - xs[i-1])
	}
	return s / float64(len(xs)-1), nil
}

// MAD returns the Gini mean difference: the mean |x_i − x_j| over all
// unordered pairs, computed exactly in O(n log n) via the sorted-prefix
// identity sum_{i<j}(x_(j) − x_(i)) = Σ_j x_(j)·(2j − n + 1) (0-based j).
func MAD(xs []float64) (float64, error) {
	n := len(xs)
	if n < 2 {
		return 0, errors.New("stats: MAD needs at least 2 samples")
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	var s float64
	for j, v := range sorted {
		s += v * float64(2*j-n+1)
	}
	pairs := float64(n) * float64(n-1) / 2
	return s / pairs, nil
}

// MSDMADRatio returns MSD/MAD, the locality statistic from Figure 1 of the
// paper. A series with strong temporal locality has a ratio well below 1;
// a randomly ordered series has a ratio near 1; a sorted series approaches
// 0 as n grows.
func MSDMADRatio(xs []float64) (float64, error) {
	msd, err := MSD(xs)
	if err != nil {
		return 0, err
	}
	mad, err := MAD(xs)
	if err != nil {
		return 0, err
	}
	if mad == 0 {
		return 0, errors.New("stats: MAD is zero (constant series)")
	}
	return msd / mad, nil
}

// LocalityReport compares the MSD/MAD ratio of the series as observed, after
// a seeded random shuffle, and after sorting — the three bars of Figure 1.
type LocalityReport struct {
	Actual   float64
	Shuffled float64
	Sorted   float64
}

// Locality computes a LocalityReport for xs. The shuffle is driven by src so
// the report is reproducible.
func Locality(xs []float64, src *rng.Source) (LocalityReport, error) {
	var rep LocalityReport
	var err error
	if rep.Actual, err = MSDMADRatio(xs); err != nil {
		return rep, err
	}
	shuffled := make([]float64, len(xs))
	copy(shuffled, xs)
	src.ShuffleFloat64(shuffled)
	if rep.Shuffled, err = MSDMADRatio(shuffled); err != nil {
		return rep, err
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if rep.Sorted, err = MSDMADRatio(sorted); err != nil {
		return rep, err
	}
	return rep, nil
}

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic: the
// maximum absolute difference between the empirical CDFs of a and b.
func KSDistance(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmpty
	}
	sa := make([]float64, len(a))
	copy(sa, a)
	sort.Float64s(sa)
	sb := make([]float64, len(b))
	copy(sb, b)
	sort.Float64s(sb)
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		// Advance past ties in both samples together, otherwise equal
		// values would register a spurious CDF gap.
		v := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// MeanIgnoringNaN averages the finite values in xs, skipping NaN/Inf
// entries. Returns an error when no finite values exist.
func MeanIgnoringNaN(xs []float64) (float64, error) {
	var s float64
	var n int
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return s / float64(n), nil
}
