package main

import (
	"math"
	"sort"
)

// timing summarises one set of latency samples the way every timing in
// this benchmark is reported: a median, and the highest percentile that
// still has at least ten samples beyond it (so the tail figure is never
// one or two outliers), with the sample count next to both.
type timing struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailAt float64 `json:"tail_at"` // the percentile Tail was taken at
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples, in whole per-mille arithmetic so that p90 of 100 is
// sample 90 and not, by a rounding error, sample 91.
func rank(n int, p float64) int {
	permille := int(math.Round(p * 10))
	r := (n*permille + 999) / 1000
	return min(max(r, 1), n)
}

// supportedTail returns the highest ladder percentile ≤ want with at
// least minBeyond of n samples beyond it; 50 when none qualifies.
func supportedTail(n int, want float64) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if p > want {
			break
		}
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// summarize sorts samples in place and reports the median and the tail
// at the highest supported percentile not above wantTail.
func summarize(samples []float64, wantTail float64) timing {
	sort.Float64s(samples)
	at := supportedTail(len(samples), wantTail)
	return timing{
		N:      len(samples),
		P50:    percentile(samples, 50),
		Tail:   percentile(samples, at),
		TailAt: at,
	}
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quietAt is the percentile the acceptance driver's timing roles are read
// at. The sandbox's noise only ever adds time — a stolen vCPU, a core that
// wakes slowly, a neighbour on the sibling hyperthread — and it moved a
// phase's median by a factor of eight between runs of the same code while
// the tenth percentile moved by a tenth: the fast end of the distribution
// is the program, the rest is the host. A change to the program moves both.
const quietAt = 10

// quiet is the quietAt percentile of xs, without reordering the caller's
// slice; 0 when there are no samples.
func quiet(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, quietAt)
}

// quietMean is the quiet latency of a mix of request kinds: each kind's
// quietAt percentile, averaged over the kinds that have samples. Pooling a
// mix before taking a low percentile would report only its cheapest kind.
// n is the smallest sample count among those kinds.
func quietMean(byKind [][]float64) (v float64, n int) {
	kinds := 0
	for _, xs := range byKind {
		if len(xs) == 0 {
			continue
		}
		v += quiet(xs)
		if kinds == 0 || len(xs) < n {
			n = len(xs)
		}
		kinds++
	}
	if kinds == 0 {
		return 0, 0
	}
	return v / float64(kinds), n
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method) — the
// acceptance driver computes run-to-run spread with it, so -compare uses
// the same arithmetic. Fewer than two values have no quartiles.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		delta := k*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(m), true
}
