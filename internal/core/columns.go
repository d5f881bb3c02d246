package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"autosens/internal/histogram"
	"autosens/internal/obs"
	"autosens/internal/timeutil"
)

// Every estimate answers a Request over one input: a slice's usable
// (non-failed) records as time-sorted columns. Two finishers answer it,
// and nothing else chooses an estimator:
//
//   - (*Estimator).Finish, statelessly, over columns held in a Summary: the
//     CLI's and the pipeline's slices, a first-seen live window, the cluster
//     coordinator's merged partials;
//   - (*Incremental).Finish over delta-maintained state: the live engine's
//     combos and retained windows. It redoes only what the folds since its
//     last call invalidated, and answers with the bytes (*Estimator).Finish
//     gives over the same columns, refusals included.
//
// The record forms (records.go) are UsableColumns plus Finish.

// Mode selects one of the paper's three estimator levels.
type Mode uint8

const (
	// ModePlain is B/U pooled over the whole window (Sections 2.2–2.3).
	ModePlain Mode = iota
	// ModeNormalized is B/U with the time-confounder correction of Section
	// 2.4.1: per-slot activity factors α computed against several reference
	// slots in turn, and the resulting curves averaged.
	ModeNormalized
	// ModeBiased is the raw biased PDF rescaled to 1 at the reference: no
	// exposure correction, a baseline to show what U fixes. It has no
	// bootstrap band.
	ModeBiased
	numModes
)

var modeNames = [numModes]string{"plain", "normalized", "biased"}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m < numModes {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode returns the mode String names.
func ParseMode(s string) (Mode, error) {
	for m, name := range modeNames {
		if s == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q", s)
}

// ModeOf is ModeNormalized when normalized, ModePlain otherwise: the mode
// of options that choose the full method by a bool.
func ModeOf(normalized bool) Mode {
	if normalized {
		return ModeNormalized
	}
	return ModePlain
}

// Request names one estimate: the estimator level and whether a
// moving-block bootstrap band comes with the point curve.
type Request struct {
	Mode Mode
	// CI adds bootstrap bounds, configured by CIOptions. The finishers set
	// CIOptions.TimeNormalized from Mode.
	CI        bool
	CIOptions CIOptions
}

// ciOptions returns the request's validated bootstrap options.
func (r Request) ciOptions() (CIOptions, error) {
	switch {
	case r.Mode == ModeBiased:
		return CIOptions{}, errBiasedCI
	case r.Mode >= numModes:
		return CIOptions{}, errUnknownMode(r.Mode)
	}
	opts := r.CIOptions
	opts.TimeNormalized = r.Mode == ModeNormalized
	return opts, opts.Validate()
}

// Finish answers req over s, a slice's usable records as time-sorted
// columns (s.Seqs is not read). s.B, when non-nil, must hold exactly the
// counts of s.Lats under e's binning; it stands in for the plain estimator's
// O(n) biased histogram build. sc, the plain estimator's reusable scratch,
// keeps the draw-key plan between calls; nil is a private one. The result's
// Lower and Upper bounds are nil unless req.CI.
func (e *Estimator) Finish(req Request, s *Summary, sc *Scratch) (*CurveCI, error) {
	if req.CI {
		return e.finishBand(req, s, nil)
	}
	if req.Mode >= numModes {
		return nil, errUnknownMode(req.Mode)
	}
	defer observeEstimate(time.Now())
	sp := e.trace.StartChild(pointSpans[req.Mode])
	defer sp.End()
	if err := checkColumns(s.Times, s.Lats); err != nil {
		return nil, err
	}
	sp.SetAttr("records", s.Len())
	switch req.Mode {
	case ModeNormalized:
		return pointOnly(e.estimateTimeNormalizedColumns(sp, s.Times, s.Lats))
	case ModeBiased:
		return pointOnly(e.biasedOnly(sp, s.Lats))
	}
	return pointOnly(e.estimateColumns(sp, s.B, s.Times, s.Lats, sc))
}

// pointSpans names each mode's point-estimate span.
var pointSpans = [numModes]string{"estimate", "estimate_time_normalized", "biased_only"}

func errUnknownMode(m Mode) error { return fmt.Errorf("core: unknown mode %v", m) }

// pointOnly is a point estimate as a finisher's result.
func pointOnly(c *Curve, err error) (*CurveCI, error) {
	if err != nil {
		return nil, err
	}
	return &CurveCI{Curve: c}, nil
}

// pointOf is the point estimate of a finisher's result.
func pointOf(c *CurveCI, err error) (*Curve, error) {
	if err != nil {
		return nil, err
	}
	return c.Curve, nil
}

var (
	errColumnLengths   = errors.New("core: times and lats differ in length")
	errColumnsUnsorted = errors.New("core: times are not ascending")
	errBiasedCI        = errors.New("core: the biased-only baseline has no bootstrap band")
)

// SortColumns stably sorts the parallel time and latency columns by time,
// in place: rows with equal times keep their order. Columns already in
// order cost one check pass.
func SortColumns(times []timeutil.Millis, lats []float64) {
	if !slices.IsSorted(times) {
		sort.Stable(byTime{times, lats})
	}
}

// byTime sorts parallel time and latency columns by time.
type byTime struct {
	times []timeutil.Millis
	lats  []float64
}

func (c byTime) Len() int           { return len(c.times) }
func (c byTime) Less(i, j int) bool { return c.times[i] < c.times[j] }
func (c byTime) Swap(i, j int) {
	c.times[i], c.times[j] = c.times[j], c.times[i]
	c.lats[i], c.lats[j] = c.lats[j], c.lats[i]
}

// checkColumns validates the shared column preconditions.
func checkColumns(times []timeutil.Millis, lats []float64) error {
	if len(times) != len(lats) {
		return errColumnLengths
	}
	if len(times) == 0 {
		return errEmptyRecords
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			return errColumnsUnsorted
		}
	}
	return nil
}

// Scratch holds reusable estimator buffers — histograms and the unbiased
// draw-key plan — so repeated column-based estimations (live-engine epoch
// recomputes, benchmark loops) allocate only their output curve. The zero
// value is ready to use; a Scratch must not be shared across concurrent
// estimations.
type Scratch struct {
	b, u *histogram.Histogram
	plan UnbiasedPlan
}

// biased returns the scratch biased histogram, reset, allocating it on
// first use against e's binning.
func (sc *Scratch) biased(e *Estimator) *histogram.Histogram {
	e.resetHist(&sc.b, e.opts.BinWidthMS)
	return sc.b
}

// unbiased returns the scratch unbiased histogram, reset.
func (sc *Scratch) unbiased(e *Estimator) *histogram.Histogram {
	e.resetHist(&sc.u, e.opts.BinWidthMS)
	return sc.u
}

// RetainedBytes is the heap the scratch holds between estimations.
func (sc *Scratch) RetainedBytes() int {
	n := sc.plan.RetainedBytes()
	if sc.b != nil {
		n += 8 * sc.b.Bins()
	}
	if sc.u != nil {
		n += 8 * sc.u.Bins()
	}
	return n
}

// estimateColumns is the shared plain-estimator core over sorted columns.
// A nil b builds the biased histogram here; a nil sc is a private one.
func (e *Estimator) estimateColumns(sp *obs.Span, b *histogram.Histogram, times []timeutil.Millis, lats []float64, sc *Scratch) (*Curve, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	if b == nil {
		bSp := sp.StartChild("build_biased_histogram")
		b = sc.biased(e)
		for _, v := range lats {
			b.Add(v)
		}
		bSp.SetAttr("samples", len(lats))
		bSp.End()
	}

	uSp := sp.StartChild("sample_unbiased")
	u := sc.unbiased(e)
	plan := &sc.plan
	lo := times[0]
	hi := times[len(times)-1] + 1
	draws := drawCount(len(times), e.opts.UnbiasedPerSample)
	chunks := e.keyChunks(draws)
	plan.update(e.opts.Seed, uint64(hi-lo), draws, chunks)
	e.sweepKeys(chunks, times, lats, lo, plan.sorted, plan.auxSeed, u)
	uSp.SetAttr("draws", draws)
	uSp.SetAttr("reused_keys", plan.reused)
	uSp.SetAttr("key_chunks", chunks)
	uSp.SetAttr("stream_fallback", plan.fallback)
	uSp.End()

	return e.finishCurve(sp, b, u, len(times), draws)
}
