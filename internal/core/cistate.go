package core

import (
	"fmt"
	"sort"
	"time"

	"autosens/internal/histogram"
	"autosens/internal/timeutil"
)

// CIState retains the exact moving-block bootstrap's precomputed inputs
// across epochs so that re-estimating confidence bounds after a data fold
// redoes only delta work before the replicates run:
//
//   - per-block biased histograms fold new records in O(delta) (a record's
//     block is a pure function of its instant, and histogram adds commute);
//   - block index ranges are re-derived by binary search, O(blocks·log n),
//     instead of an O(n) rescan;
//   - the shared replicate sweep-key schedule lives in an UnbiasedPlan, so
//     a grown draw count extends the retained key stream instead of
//     re-drawing and re-sorting all O(draws) keys;
//   - per-worker replicate scratch (resampled columns, histograms) is
//     pooled, so steady-state re-estimation allocates nothing per epoch.
//
// The replicates themselves are rerun in full through the same bootstrapCI
// the batch path uses — that is what keeps EstimateCIIncremental
// bit-identical to EstimateCIColumns. (Replicate sweeps dominate the
// remaining cost; the flag-gated BootSketch trades exactness for making
// that part incremental too.)
//
// CIState is single-goroutine state, owned by its Incremental.
type CIState struct {
	blockLen  timeutil.Millis
	windowLo  timeutil.Millis
	numBlocks int
	valid     bool
	hists     []*histogram.Histogram
	ranges    [][2]int
	plan      UnbiasedPlan
	scs       []*ciScratch
}

// foldRecords keeps the per-block histograms current for a delta. Deltas
// that move the observation window (or arrive before any refresh) just
// invalidate; the next estimate rebuilds.
func (st *CIState) foldRecords(dTimes []timeutil.Millis, dLats []float64, windowKept bool) {
	if !st.valid {
		return
	}
	if !windowKept {
		st.valid = false
		return
	}
	for i, t := range dTimes {
		b := int((t - st.windowLo) / st.blockLen)
		if b < 0 || b >= len(st.hists) {
			st.valid = false
			return
		}
		st.hists[b].Add(dLats[i])
	}
}

// refresh makes the retained state current for the columns and returns the
// assembled block partition, rebuilding from scratch only when the window
// or block length moved.
func (st *CIState) refresh(e *Estimator, times []timeutil.Millis, lats []float64, blockLen timeutil.Millis) (*bootBlocks, error) {
	windowLo := times[0]
	numBlocks := int((times[len(times)-1]-windowLo)/blockLen) + 1
	if numBlocks < 2 {
		return nil, fmt.Errorf("core: window shorter than two %v-ms blocks", blockLen)
	}
	if !st.valid || st.blockLen != blockLen || st.windowLo != windowLo || st.numBlocks != numBlocks {
		st.blockLen, st.windowLo, st.numBlocks = blockLen, windowLo, numBlocks
		if len(st.hists) != numBlocks {
			st.hists = make([]*histogram.Histogram, numBlocks)
		}
		for b := range st.hists {
			if st.hists[b] == nil {
				st.hists[b] = e.newHist()
			} else {
				st.hists[b].Reset()
			}
		}
		for i, t := range times {
			st.hists[int((t-windowLo)/blockLen)].Add(lats[i])
		}
		st.valid = true
	}
	if cap(st.ranges) < numBlocks {
		st.ranges = make([][2]int, numBlocks)
	}
	st.ranges = st.ranges[:numBlocks]
	for b := 0; b < numBlocks; b++ {
		edge := windowLo + timeutil.Millis(b+1)*blockLen
		end := sort.Search(len(times), func(i int) bool { return times[i] >= edge })
		start := 0
		if b > 0 {
			start = st.ranges[b-1][1]
		}
		st.ranges[b] = [2]int{start, end}
	}
	draws := drawCount(len(times), e.opts.UnbiasedPerSample)
	span := uint64(timeutil.Millis(numBlocks) * blockLen)
	st.plan.update(e.opts.Seed, span, draws)
	return &bootBlocks{
		blockLen:  blockLen,
		windowLo:  windowLo,
		times:     times,
		lats:      lats,
		ranges:    st.ranges,
		hists:     st.hists,
		sweepKeys: st.plan.sorted,
		auxSeed:   st.plan.auxSeed,
	}, nil
}

// EstimateCIIncremental computes the plain NLP curve with exact
// moving-block bootstrap bounds over an Incremental's folded records,
// bit-identical to EstimateCIColumns over the same columns, reusing the
// retained CIState (attached to inc on first use) across epochs.
//
// Normalized replicates re-partition their resampled series into slots, so
// there is no retained input to reuse: normalized requests run the batch
// bootstrap over the maintained columns.
func (e *Estimator) EstimateCIIncremental(inc *Incremental, opts CIOptions) (*CurveCI, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	times, lats := inc.Columns()
	if opts.TimeNormalized {
		return e.EstimateCIColumns(times, lats, opts)
	}
	if err := checkColumns(times, lats); err != nil {
		return nil, err
	}
	defer observeEstimate(time.Now())
	sp := e.trace.StartChild("estimate_ci_incremental")
	defer sp.End()
	sp.SetAttr("records", len(times))

	point, err := inc.EstimatePlain()
	if err != nil {
		return nil, err
	}
	if inc.CI == nil {
		inc.CI = &CIState{}
	}
	bb, err := inc.CI.refresh(e, times, lats, opts.BlockLen)
	if err != nil {
		return nil, err
	}
	return e.bootstrapCI(sp, point, bb, opts, inc.CI)
}
