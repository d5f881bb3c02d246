// Package core implements AutoSens itself: the natural-experiment estimator
// of normalized latency preference (NLP) described in Sections 2.2–2.4 of
// the paper.
//
// The estimator compares two latency distributions built from the same
// telemetry:
//
//   - the biased distribution B — the latency of the user actions actually
//     performed, which reflects any tendency of users to act more when the
//     service is fast; and
//   - the unbiased distribution U — an approximation of the latency the
//     service would have delivered at times unrelated to user behaviour,
//     estimated by repeatedly drawing a uniformly random instant in the
//     observation window and adopting the latency sample nearest in time.
//
// The per-bin ratio B/U, smoothed with a Savitzky–Golay filter and rescaled
// to equal 1 at a reference latency, is the normalized latency preference:
// NLP(L) = 0.8 means users are 20% less active at latency L than at the
// reference, all else equal.
//
// Three estimator levels mirror the paper's development (see Mode): the
// raw biased PDF, B/U pooled over the whole window, and B/U with the time
// confounder corrected. A Request names a level and an optional bootstrap
// band, and one of two finishers answers it (see columns.go).
package core

import (
	"errors"
	"fmt"
	"math"

	"autosens/internal/histogram"
	"autosens/internal/obs"
	"autosens/internal/prefcurve"
	"autosens/internal/sgolay"
	"autosens/internal/timeutil"
)

// Options configures an Estimator. The zero value is not valid; start from
// DefaultOptions.
type Options struct {
	// BinWidthMS is the latency histogram bin width (paper: 10 ms).
	BinWidthMS float64
	// MaxLatencyMS is the upper edge of the last latency bin; slower
	// samples are clamped into it.
	MaxLatencyMS float64
	// ReferenceMS is the latency whose preference is normalized to 1
	// (paper: 300 ms).
	ReferenceMS float64
	// SGWindow and SGDegree configure the Savitzky–Golay smoother
	// (paper: window 101, degree 3).
	SGWindow, SGDegree int
	// UnbiasedPerSample sets how many unbiased draws are taken per
	// biased sample (draws = ceil(n · UnbiasedPerSample)).
	UnbiasedPerSample float64
	// MinUnbiasedCount marks bins with fewer unbiased draws than this as
	// unreliable; they are excluded from the valid mask and interpolated
	// over before smoothing.
	MinUnbiasedCount float64
	// SlotDuration is the time-slot width for α estimation (paper: 1 h).
	SlotDuration timeutil.Millis
	// ReferenceSlots is the number of busiest slots used, in turn, as the
	// normalization reference; the resulting curves are averaged
	// (Section 2.4.1: "we pick multiple references in turn and then
	// average the results").
	ReferenceSlots int
	// MinSlotActions drops slots with fewer actions from the pooled
	// estimate; α cannot be estimated reliably for nearly-empty slots.
	MinSlotActions int
	// AlphaBinWidthMS is the latency bin width used when estimating the
	// time-based activity factor α. Coarser than BinWidthMS because α is
	// averaged across bins anyway (and Figure 8 shows it is flat in
	// latency), so wide bins cut variance without losing information.
	AlphaBinWidthMS float64
	// MinAlphaBinCount requires at least this many actions in a latency
	// bin (in both the slot and the reference slot) before that bin
	// contributes to α.
	MinAlphaBinCount float64
	// Seed drives the unbiased sampling draws.
	Seed uint64
	// Workers bounds the estimator's internal parallelism (per-slot
	// histogram/unbiased fills and the per-reference α curves). 0 means
	// GOMAXPROCS; 1 runs serially. Results are bit-identical at any
	// worker count: every parallel unit derives its randomness by
	// splitting the run's Source with a deterministic key.
	Workers int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		BinWidthMS:        10,
		MaxLatencyMS:      3000,
		ReferenceMS:       300,
		SGWindow:          101,
		SGDegree:          3,
		UnbiasedPerSample: 2,
		MinUnbiasedCount:  5,
		SlotDuration:      timeutil.MillisPerHour,
		ReferenceSlots:    5,
		MinSlotActions:    20,
		AlphaBinWidthMS:   100,
		MinAlphaBinCount:  3,
		Seed:              1,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.BinWidthMS <= 0 {
		return errors.New("core: non-positive bin width")
	}
	if o.MaxLatencyMS <= o.BinWidthMS {
		return errors.New("core: max latency must exceed one bin")
	}
	if o.ReferenceMS < 0 || o.ReferenceMS >= o.MaxLatencyMS {
		return fmt.Errorf("core: reference %v outside [0, %v)", o.ReferenceMS, o.MaxLatencyMS)
	}
	if o.SGWindow <= 0 || o.SGWindow%2 == 0 || o.SGDegree < 0 || o.SGDegree >= o.SGWindow {
		return fmt.Errorf("core: invalid smoother window %d / degree %d", o.SGWindow, o.SGDegree)
	}
	if o.UnbiasedPerSample <= 0 {
		return errors.New("core: non-positive unbiased draw ratio")
	}
	if o.MinUnbiasedCount < 0 {
		return errors.New("core: negative MinUnbiasedCount")
	}
	if o.SlotDuration <= 0 {
		return errors.New("core: non-positive slot duration")
	}
	if o.ReferenceSlots <= 0 {
		return errors.New("core: need at least one reference slot")
	}
	if o.MinSlotActions < 1 {
		return errors.New("core: MinSlotActions must be at least 1")
	}
	if o.AlphaBinWidthMS <= 0 || o.AlphaBinWidthMS >= o.MaxLatencyMS {
		return errors.New("core: invalid alpha bin width")
	}
	if o.MinAlphaBinCount < 0 {
		return errors.New("core: negative MinAlphaBinCount")
	}
	if o.Workers < 0 {
		return errors.New("core: negative Workers")
	}
	return nil
}

// Estimator computes NLP curves from telemetry.
type Estimator struct {
	opts   Options
	filter *sgolay.Filter
	trace  *obs.Span
}

// NewEstimator validates opts and builds the estimator.
func NewEstimator(opts Options) (*Estimator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	f, err := sgolay.New(opts.SGWindow, opts.SGDegree)
	if err != nil {
		return nil, err
	}
	return &Estimator{opts: opts, filter: f}, nil
}

// Options returns the estimator's configuration.
func (e *Estimator) Options() Options { return e.opts }

// SetTrace attaches a parent span under which subsequent Estimate* calls
// record per-stage child spans (histogram build, unbiased sampling, α
// normalization, smoothing, bootstrap). A nil parent — the default —
// disables tracing at zero cost; the estimator must not be shared across
// goroutines while a trace is attached.
func (e *Estimator) SetTrace(parent *obs.Span) { e.trace = parent }

// Curve is an estimated normalized-latency-preference curve plus the
// intermediate distributions it was derived from.
type Curve struct {
	// BinCenters are the latency bin midpoints in milliseconds.
	BinCenters []float64
	// Biased and Unbiased are the fractional masses of B and U per bin.
	Biased, Unbiased []float64
	// Raw is the per-bin B/U ratio before smoothing (NaN where U is
	// empty).
	Raw []float64
	// Smoothed is Raw after hole interpolation and Savitzky–Golay
	// smoothing.
	Smoothed []float64
	// NLP is Smoothed divided by its value at the reference latency.
	NLP []float64
	// Valid marks bins with enough unbiased mass to be trustworthy.
	Valid []bool
	// ReferenceMS is the normalization latency.
	ReferenceMS float64
	// BiasedN and UnbiasedN are the sample counts behind B and U.
	BiasedN, UnbiasedN int
}

// At returns the NLP value at the bin containing ms and whether that bin is
// valid. Latencies outside the histogram range are clamped.
func (c *Curve) At(ms float64) (float64, bool) {
	if len(c.BinCenters) == 0 {
		return 0, false
	}
	if len(c.BinCenters) == 1 {
		// A single bin has no width to infer; everything clamps into it.
		return c.NLP[0], c.Valid[0]
	}
	w := c.BinCenters[1] - c.BinCenters[0]
	i := int((ms - (c.BinCenters[0] - w/2)) / w)
	if i < 0 {
		i = 0
	}
	if i >= len(c.NLP) {
		i = len(c.NLP) - 1
	}
	return c.NLP[i], c.Valid[i]
}

// EffectiveN returns the effective sample size behind the NLP estimate at
// the bin containing ms: the harmonic combination of the biased and
// unbiased counts that landed in that bin. The NLP value is a B/U ratio,
// so its sampling error is governed by the thinner of the two bin counts,
// not the window's total volume — a probe out on the latency tail can sit
// in a window of 100k records and still rest on a few dozen observations.
// Returns 0 when either distribution has no mass at the bin.
func (c *Curve) EffectiveN(ms float64) float64 {
	if len(c.BinCenters) == 0 {
		return 0
	}
	i := 0
	if len(c.BinCenters) > 1 {
		w := c.BinCenters[1] - c.BinCenters[0]
		i = int((ms - (c.BinCenters[0] - w/2)) / w)
		if i < 0 {
			i = 0
		}
		if i >= len(c.BinCenters) {
			i = len(c.BinCenters) - 1
		}
	}
	nB := c.Biased[i] * float64(c.BiasedN)
	nU := c.Unbiased[i] * float64(c.UnbiasedN)
	if nB <= 0 || nU <= 0 {
		return 0
	}
	return 1 / (1/nB + 1/nU)
}

// PrefCurve adapts the estimate into a prefcurve.Curve interpolating
// through the valid bins, for direct comparison against planted ground
// truth.
func (c *Curve) PrefCurve() (prefcurve.Curve, error) {
	var anchors []prefcurve.Anchor
	for i, v := range c.NLP {
		if !c.Valid[i] || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		anchors = append(anchors, prefcurve.Anchor{Latency: c.BinCenters[i], Value: v})
	}
	if len(anchors) == 0 {
		return nil, errors.New("core: no valid bins to build a curve from")
	}
	return prefcurve.NewPiecewiseLinear(anchors)
}

// ValidRange returns the latency extent [lo, hi] covered by valid bins.
func (c *Curve) ValidRange() (lo, hi float64, ok bool) {
	for i, v := range c.Valid {
		if v {
			if !ok {
				lo = c.BinCenters[i]
				ok = true
			}
			hi = c.BinCenters[i]
		}
	}
	return lo, hi, ok
}

// newHist builds a latency histogram per the options.
func (e *Estimator) newHist() *histogram.Histogram {
	return histogram.MustNew(0, e.opts.MaxLatencyMS, e.opts.BinWidthMS)
}

// finishCurve turns a biased and an unbiased histogram into a Curve:
// ratio, hole interpolation, smoothing, and normalization at the reference.
// Stage spans are recorded under sp (which may be nil).
func (e *Estimator) finishCurve(sp *obs.Span, b, u *histogram.Histogram, biasedN, unbiasedN int) (*Curve, error) {
	raw, err := histogram.Ratio(b, u)
	if err != nil {
		return nil, err
	}
	return e.curveFromRaw(sp, raw, b, u, biasedN, unbiasedN)
}

// curveFromRaw completes a Curve from a precomputed raw ratio series.
func (e *Estimator) curveFromRaw(sp *obs.Span, raw []float64, b, u *histogram.Histogram, biasedN, unbiasedN int) (*Curve, error) {
	bins := b.Bins()
	c := &Curve{
		BinCenters:  make([]float64, bins),
		Raw:         raw,
		Valid:       make([]bool, bins),
		ReferenceMS: e.opts.ReferenceMS,
		BiasedN:     biasedN,
		UnbiasedN:   unbiasedN,
	}
	for i := range c.BinCenters {
		c.BinCenters[i] = b.Center(i)
	}
	var err error
	if c.Biased, err = b.Fractions(); err != nil {
		return nil, err
	}
	if c.Unbiased, err = u.Fractions(); err != nil {
		return nil, err
	}
	for i := 0; i < bins; i++ {
		c.Valid[i] = u.Count(i) >= e.opts.MinUnbiasedCount && !math.IsNaN(raw[i])
	}
	filled := interpolateHoles(raw, c.Valid)
	if filled == nil {
		return nil, underIdentified("core: no valid bins in ratio")
	}
	smoothSp := sp.StartChild("savitzky_golay_smooth")
	smoothSp.SetAttr("bins", bins)
	smoothSp.SetAttr("window", e.opts.SGWindow)
	c.Smoothed, err = e.filter.Apply(filled)
	smoothSp.End()
	if err != nil {
		return nil, err
	}
	// Normalize at the reference latency.
	refBin := b.Index(e.opts.ReferenceMS)
	ref := c.Smoothed[refBin]
	if ref <= 0 || math.IsNaN(ref) || math.IsInf(ref, 0) {
		return nil, fmt.Errorf("core: smoothed preference %v at reference latency is unusable", ref)
	}
	c.NLP = make([]float64, bins)
	for i, v := range c.Smoothed {
		c.NLP[i] = v / ref
	}
	return c, nil
}

// interpolateHoles replaces invalid entries with linear interpolation
// between the nearest valid neighbours (constant extrapolation at the
// ends). Returns nil when no entry is valid.
func interpolateHoles(xs []float64, valid []bool) []float64 {
	out := make([]float64, len(xs))
	prev := -1
	any := false
	for i := range xs {
		if valid[i] {
			out[i] = xs[i]
			if prev == -1 {
				// Back-fill the leading hole.
				for j := 0; j < i; j++ {
					out[j] = xs[i]
				}
			} else if prev < i-1 {
				// Linear fill between prev and i.
				for j := prev + 1; j < i; j++ {
					frac := float64(j-prev) / float64(i-prev)
					out[j] = xs[prev]*(1-frac) + xs[i]*frac
				}
			}
			prev = i
			any = true
		}
	}
	if !any {
		return nil
	}
	// Forward-fill the trailing hole.
	for j := prev + 1; j < len(xs); j++ {
		out[j] = xs[prev]
	}
	return out
}

// biasedOnly is the biased latency distribution rescaled to 1 at the
// reference latency: the estimate with no exposure correction at all.
func (e *Estimator) biasedOnly(sp *obs.Span, lats []float64) (*Curve, error) {
	b := e.newHist()
	for _, v := range lats {
		b.Add(v)
	}
	// Use a flat pseudo-unbiased distribution so the ratio equals B's
	// shape (up to a constant, removed by normalization).
	u := e.newHist()
	for i := 0; i < u.Bins(); i++ {
		u.SetCount(i, math.Max(e.opts.MinUnbiasedCount, 1))
	}
	return e.finishCurve(sp, b, u, len(lats), 0)
}
