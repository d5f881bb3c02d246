// Package histogram provides the fixed-width binning machinery AutoSens
// builds its biased (B) and unbiased (U) latency distributions from. The
// paper uses 10 ms latency bins; the bin width here is configurable.
//
// A Histogram accumulates weighted counts; PDF converts it to a probability
// density, and Ratio computes the per-bin quotient of two histograms (the
// raw latency-preference signal before smoothing).
package histogram

import (
	"errors"
	"fmt"
	"math"
)

// Histogram accumulates weighted observations into fixed-width bins over
// [Min, Max). Observations outside the range are clamped into the first or
// last bin so that total mass is preserved (AutoSens treats the final bin as
// "this latency or worse").
type Histogram struct {
	min, max float64
	width    float64
	counts   []float64
	total    float64
}

// New returns a histogram over [min, max) with the given bin width. The
// range must be positive and an integral number of bins wide (the last bin
// is extended if width does not divide the range exactly).
func New(min, max, width float64) (*Histogram, error) {
	if !(max > min) {
		return nil, fmt.Errorf("histogram: invalid range [%v, %v)", min, max)
	}
	if !(width > 0) {
		return nil, fmt.Errorf("histogram: invalid bin width %v", width)
	}
	n := int(math.Ceil((max - min) / width))
	if n <= 0 {
		return nil, errors.New("histogram: no bins")
	}
	return &Histogram{min: min, max: max, width: width, counts: make([]float64, n)}, nil
}

// MustNew is New, panicking on error; for static configurations.
func MustNew(min, max, width float64) *Histogram {
	h, err := New(min, max, width)
	if err != nil {
		panic(err)
	}
	return h
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Width returns the bin width.
func (h *Histogram) Width() float64 { return h.width }

// Min returns the lower edge of the first bin.
func (h *Histogram) Min() float64 { return h.min }

// Max returns the upper edge of the range as given to New. Wire codecs
// must carry it verbatim: compatibility checks compare the constructed
// range exactly, not the derived bin count.
func (h *Histogram) Max() float64 { return h.max }

// Index returns the bin index for value v, clamping out-of-range values to
// the first or last bin.
func (h *Histogram) Index(v float64) int {
	if v < h.min {
		return 0
	}
	i := int((v - h.min) / h.width)
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// Center returns the midpoint value of bin i.
func (h *Histogram) Center(i int) float64 {
	return h.min + (float64(i)+0.5)*h.width
}

// LowerEdge returns the lower edge of bin i.
func (h *Histogram) LowerEdge(i int) float64 {
	return h.min + float64(i)*h.width
}

// Add accumulates one observation with weight 1.
func (h *Histogram) Add(v float64) { h.AddWeighted(v, 1) }

// AddWeighted accumulates one observation with weight w. Negative weights
// are rejected with a panic since they have no meaning here.
func (h *Histogram) AddWeighted(v, w float64) {
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("histogram: invalid weight %v", w))
	}
	h.counts[h.Index(v)] += w
	h.total += w
}

// AddIndex accumulates weight w into bin i, an Index result: AddWeighted
// for callers that binned their values once and add them many times.
func (h *Histogram) AddIndex(i int, w float64) {
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("histogram: invalid weight %v", w))
	}
	h.counts[i] += w
	h.total += w
}

// AddCounts adds counts[i] observations of vals[i] for every i: AddWeighted
// with whole weights, for callers that count observations per value first.
func (h *Histogram) AddCounts(vals []float64, counts []uint64) {
	vals = vals[:len(counts)]
	for i, c := range counts {
		if c != 0 {
			h.counts[h.Index(vals[i])] += float64(c)
			h.total += float64(c)
		}
	}
}

// Sub removes one previously added weight-1 observation. Weight-1 adds and
// subtracts are exact integer arithmetic in float64, so delta-maintained
// histograms that retract stale observations stay bit-identical to a
// from-scratch rebuild. Subtracting a value that was never added corrupts
// the histogram; callers own that invariant.
func (h *Histogram) Sub(v float64) { h.SubWeighted(v, 1) }

// SubWeighted removes a previously added weight-w observation.
func (h *Histogram) SubWeighted(v, w float64) {
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("histogram: invalid weight %v", w))
	}
	h.counts[h.Index(v)] -= w
	h.total -= w
}

// CopyFrom overwrites h's counts with o's. The histograms must have
// identical binning. It is the allocation-free Clone for hot paths that
// re-derive a scratch histogram from a maintained base every round.
func (h *Histogram) CopyFrom(o *Histogram) error {
	if err := h.compatible(o); err != nil {
		return err
	}
	copy(h.counts, o.counts)
	h.total = o.total
	return nil
}

// Count returns the accumulated weight in bin i.
func (h *Histogram) Count(i int) float64 { return h.counts[i] }

// SetCount overwrites the weight in bin i, adjusting the total. Used by the
// time-confounder normalization, which rescales per-slot counts.
func (h *Histogram) SetCount(i int, w float64) {
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("histogram: invalid count %v", w))
	}
	h.total += w - h.counts[i]
	h.counts[i] = w
}

// Total returns the total accumulated weight.
func (h *Histogram) Total() float64 { return h.total }

// Reset zeroes every bin and the total, keeping the binning. It lets hot
// paths (bootstrap replicates, per-slot fills) reuse one allocation instead
// of rebuilding a histogram per iteration.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// Counts returns a copy of the raw per-bin weights.
func (h *Histogram) Counts() []float64 {
	out := make([]float64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{min: h.min, max: h.max, width: h.width, total: h.total}
	c.counts = make([]float64, len(h.counts))
	copy(c.counts, h.counts)
	return c
}

// AddHistogram accumulates o's bins into h. The histograms must have
// identical binning.
func (h *Histogram) AddHistogram(o *Histogram) error {
	if err := h.compatible(o); err != nil {
		return err
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	return nil
}

func (h *Histogram) compatible(o *Histogram) error {
	if h.min != o.min || h.max != o.max || h.width != o.width || len(h.counts) != len(o.counts) {
		return errors.New("histogram: incompatible binning")
	}
	return nil
}

// PDF returns the probability density per bin: count / (total·width).
// The integral of the result over the range is 1. Returns an error when the
// histogram is empty.
func (h *Histogram) PDF() ([]float64, error) {
	if h.total <= 0 {
		return nil, errors.New("histogram: empty histogram has no PDF")
	}
	out := make([]float64, len(h.counts))
	norm := 1 / (h.total * h.width)
	for i, c := range h.counts {
		out[i] = c * norm
	}
	return out, nil
}

// Fractions returns each bin's share of the total mass (sums to 1).
func (h *Histogram) Fractions() ([]float64, error) {
	if h.total <= 0 {
		return nil, errors.New("histogram: empty histogram has no fractions")
	}
	out := make([]float64, len(h.counts))
	for i, c := range h.counts {
		out[i] = c / h.total
	}
	return out, nil
}

// CDF returns the cumulative mass at the upper edge of each bin (last
// element is 1).
func (h *Histogram) CDF() ([]float64, error) {
	fr, err := h.Fractions()
	if err != nil {
		return nil, err
	}
	var acc float64
	for i, f := range fr {
		acc += f
		fr[i] = acc
	}
	return fr, nil
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) assuming mass
// is uniform within each bin.
func (h *Histogram) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("histogram: quantile %v out of [0,1]", q)
	}
	if h.total <= 0 {
		return 0, errors.New("histogram: empty histogram has no quantiles")
	}
	target := q * h.total
	var acc float64
	for i, c := range h.counts {
		if acc+c >= target {
			if c == 0 {
				return h.LowerEdge(i), nil
			}
			frac := (target - acc) / c
			return h.LowerEdge(i) + frac*h.width, nil
		}
		acc += c
	}
	return h.max, nil
}

// Ratio returns the per-bin quotient num/den of two compatible histograms'
// PDFs (equivalently, of their fractional masses). Bins where the
// denominator has zero mass yield NaN, which downstream smoothing treats as
// missing; bins where only the numerator is zero yield 0.
func Ratio(num, den *Histogram) ([]float64, error) {
	if err := num.compatible(den); err != nil {
		return nil, err
	}
	nf, err := num.Fractions()
	if err != nil {
		return nil, err
	}
	df, err := den.Fractions()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(nf))
	for i := range nf {
		if df[i] == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = nf[i] / df[i]
	}
	return out, nil
}
