package core

import (
	"errors"
	"slices"
	"sort"
	"time"

	"autosens/internal/histogram"
	"autosens/internal/obs"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// The column-based entry points below are the estimator's incremental-
// friendly surface: callers that already hold the usable (non-failed)
// records as time-sorted flat columns — the live query engine's sharded
// store, the bootstrap's resampled replicates — estimate directly from
// (times, lats) without materializing []telemetry.Record. Every column
// path is bit-identical to its record-based counterpart: the record paths
// are thin wrappers that extract the columns and delegate.

var (
	errColumnLengths   = errors.New("core: times and lats differ in length")
	errColumnsUnsorted = errors.New("core: times are not ascending")
)

// UsableColumns returns the time and latency columns of records'
// successful rows, stably sorted by time: the columns every record entry
// point estimates from.
func UsableColumns(records []telemetry.Record) ([]timeutil.Millis, []float64) {
	n := 0
	for i := range records {
		if !records[i].Failed {
			n++
		}
	}
	times := make([]timeutil.Millis, 0, n)
	lats := make([]float64, 0, n)
	for i := range records {
		if !records[i].Failed {
			times = append(times, records[i].Time)
			lats = append(lats, records[i].LatencyMS)
		}
	}
	SortColumns(times, lats)
	return times, lats
}

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

// EstimateColumns computes the plain pooled NLP curve (Sections 2.2–2.3)
// directly from time-sorted columns of usable records. It is bit-identical
// to Estimate over records with the same times and latencies. sc may be
// nil; a non-nil scratch is reused across calls.
func (e *Estimator) EstimateColumns(times []timeutil.Millis, lats []float64, sc *Scratch) (*Curve, error) {
	defer observeEstimate(time.Now())
	sp := e.trace.StartChild("estimate")
	defer sp.End()
	if err := checkColumns(times, lats); err != nil {
		return nil, err
	}
	sp.SetAttr("records", len(times))
	return e.estimateColumns(sp, nil, times, lats, sc)
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

// EstimateTimeNormalizedColumns computes the full time-normalized NLP
// curve (Section 2.4.1) directly from time-sorted columns of usable
// records, bit-identical to EstimateTimeNormalized over records with the
// same times and latencies.
func (e *Estimator) EstimateTimeNormalizedColumns(times []timeutil.Millis, lats []float64) (*Curve, error) {
	defer observeEstimate(time.Now())
	sp := e.trace.StartChild("estimate_time_normalized")
	defer sp.End()
	if err := checkColumns(times, lats); err != nil {
		return nil, err
	}
	sp.SetAttr("records", len(times))
	return e.estimateTimeNormalizedColumns(sp, times, lats)
}
