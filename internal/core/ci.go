package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/histogram"
	"autosens/internal/obs"
	"autosens/internal/parallel"
	"autosens/internal/rng"
	"autosens/internal/stats"
	"autosens/internal/timeutil"
)

// CIOptions configures bootstrap confidence intervals for an NLP curve.
type CIOptions struct {
	// Resamples is the number of bootstrap replicates.
	Resamples int
	// BlockLen is the moving-block length. Blocks must be long relative
	// to the latency process's correlation time (hours, not minutes) or
	// the resampled series loses the locality the method depends on.
	BlockLen timeutil.Millis
	// Confidence is the two-sided coverage level, e.g. 0.9.
	Confidence float64
	// TimeNormalized selects the full (α-normalized) estimator for each
	// replicate.
	TimeNormalized bool
	// MinSupport is the fraction of replicates in which a bin must be
	// valid for bounds to be reported there (default 0.5 when zero).
	MinSupport float64
	// Seed drives block resampling.
	Seed uint64
	// Workers bounds how many bootstrap replicates run concurrently.
	// 0 means GOMAXPROCS; 1 recovers the serial path. The output is
	// bit-identical at any worker count: each replicate's randomness is
	// derived up front with Source.Split(rep), and replicate results are
	// aggregated in replicate order after all workers finish.
	Workers int
}

// DefaultCIOptions returns a moderate-cost configuration: 40 replicates of
// 6-hour blocks at 90 % confidence, parallel across GOMAXPROCS workers.
func DefaultCIOptions() CIOptions {
	return CIOptions{
		Resamples:  40,
		BlockLen:   6 * timeutil.MillisPerHour,
		Confidence: 0.9,
		Seed:       1,
	}
}

// Validate checks the options.
func (o CIOptions) Validate() error {
	if o.Resamples < 2 {
		return errors.New("core: need at least 2 bootstrap resamples")
	}
	if o.BlockLen <= 0 {
		return errors.New("core: non-positive block length")
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return errors.New("core: confidence out of (0,1)")
	}
	if o.MinSupport < 0 || o.MinSupport > 1 {
		return errors.New("core: MinSupport out of [0,1]")
	}
	if o.Workers < 0 {
		return errors.New("core: negative Workers")
	}
	return nil
}

// CurveCI is an NLP point estimate with per-bin bootstrap bounds.
type CurveCI struct {
	// Curve is the point estimate on the full data.
	*Curve
	// Lower and Upper are the per-bin confidence bounds; NaN where too
	// few replicates supported the bin.
	Lower, Upper []float64
	// Replicates is the number of bootstrap curves actually estimated
	// (replicates whose estimation failed are skipped and counted out).
	Replicates int
}

// Bounds returns the interval at the bin containing ms and whether it is
// supported.
func (c *CurveCI) Bounds(ms float64) (lo, hi float64, ok bool) {
	if len(c.BinCenters) == 0 {
		return 0, 0, false
	}
	i := 0
	if len(c.BinCenters) > 1 {
		w := c.BinCenters[1] - c.BinCenters[0]
		i = int((ms - (c.BinCenters[0] - w/2)) / w)
		if i < 0 {
			i = 0
		}
		if i >= len(c.Lower) {
			i = len(c.Lower) - 1
		}
	}
	lo, hi = c.Lower[i], c.Upper[i]
	return lo, hi, !math.IsNaN(lo) && !math.IsNaN(hi)
}

// bootBlocks is the block partition of the observation window, computed
// once and shared read-only by every bootstrap replicate.
type bootBlocks struct {
	blockLen timeutil.Millis
	windowLo timeutil.Millis
	times    []timeutil.Millis // usable, ascending sample instants
	lats     []float64         // latencies aligned with times
	ranges   [][2]int          // half-open [i, j) record range per block
	// b[k] and u[k] are block k's biased and unbiased latency histograms
	// (plain path, filled by sumBlocks). Both histograms a plain curve is
	// finished from are additive over blocks, so a replicate is the sum of
	// its picked blocks' pairs: numBlocks·bins float adds, no resampled
	// series and no sweep of its own.
	b, u []*histogram.Histogram
}

// partitionBlocks cuts time-sorted columns into BlockLen blocks counted
// from the first record. The columns are time-sorted, so each block is a
// contiguous index range — no per-block copies.
func partitionBlocks(times []timeutil.Millis, lats []float64, blockLen timeutil.Millis) (*bootBlocks, error) {
	windowLo := times[0]
	numBlocks := int((times[len(times)-1]-windowLo)/blockLen) + 1
	if numBlocks < 2 {
		return nil, underIdentified(fmt.Sprintf("core: window shorter than two %v-ms blocks", blockLen))
	}
	bb := &bootBlocks{
		blockLen: blockLen,
		windowLo: windowLo,
		times:    times,
		lats:     lats,
		ranges:   make([][2]int, numBlocks),
	}
	start := 0
	for b := range bb.ranges {
		edge := windowLo + timeutil.Millis(b+1)*blockLen
		end := start + sort.Search(len(times)-start, func(i int) bool { return times[start+i] >= edge })
		bb.ranges[b] = [2]int{start, end}
		start = end
	}
	return bb, nil
}

// sumBlocks gives every block its histogram pair for the plain bootstrap.
// B_k holds the latencies of block k's records. U_k holds the point
// estimate's own unbiased draws whose instant falls in block k: keys and
// auxSeed are the point estimate's sorted draw schedule over [windowLo,
// last record], split at the block edges in one sweep with global ranks
// kept, so every draw adopts exactly the sample it adopts in the point
// estimate — neighbours are read across block edges — and Σ U_k is the point
// estimate's U bit for bit, as Σ B_k is its B (counts are integers in
// float64). That identity is what lets the batch path finish its point curve
// from the sums and the node reuse its retained schedule, and still agree.
//
// Blocks are independent rank ranges of the schedule, so they run on the
// estimator's worker pool, each finding its own range by binary search.
func (e *Estimator) sumBlocks(bb *bootBlocks, keys []uint64, auxSeed uint64) {
	bb.b = make([]*histogram.Histogram, len(bb.ranges))
	bb.u = make([]*histogram.Histogram, len(bb.ranges))
	rank := func(blk int) int {
		k, _ := slices.BinarySearch(keys, uint64(timeutil.Millis(blk)*bb.blockLen))
		return k
	}
	e.forEachIndex(len(bb.ranges), func(blk int) {
		r := bb.ranges[blk]
		b, u := e.newHist(), e.newHist()
		for _, v := range bb.lats[r[0]:r[1]] {
			b.Add(v)
		}
		k1, k2 := rank(blk), rank(blk+1)
		sweepSortedKeys(bb.times, bb.lats, bb.windowLo, keys[k1:k2], k1, auxSeed, u)
		bb.b[blk], bb.u[blk] = b, u
	})
}

// ciScratch is one worker's reusable replicate state, surviving across the
// replicates the worker processes: the summed histograms (plain) or the
// resampled series buffers and slot states (time-normalized).
type ciScratch struct {
	times        []timeutil.Millis
	lats         []float64
	fine, coarse []uint16 // the records' bin indices, beside times and lats
	picks        []int    // picks[pos]: the block re-timed to position pos
	cuts         []slotCut
	slots        []*repSlot
	ptrs         []*slotData
	stats        repStats
	b, u         *histogram.Histogram
}

// repSlot is a replicate slot's state. Its biased histograms are its own
// fine/coarse, or a whole-carried original slot's, shared read-only.
type repSlot struct {
	slotData
	fine, coarse *histogram.Histogram
}

// repStats counts, over a bootstrap's replicate slots, those swept from a
// shared draw table, those sampled by the batch kernel instead, and those
// that reused a whole-carried slot's biased histograms.
type repStats struct{ table, fallback, reused int }

// runPlainReplicate estimates one bootstrap replicate with the pooled
// (no-α) estimator as a sum over its picked blocks.
func (e *Estimator) runPlainReplicate(bb *bootBlocks, src *rng.Source, sc *ciScratch) (*Curve, error) {
	numBlocks := len(bb.ranges)
	sc.b.Reset()
	sc.u.Reset()
	n := 0
	for pos := 0; pos < numBlocks; pos++ {
		pick := src.Intn(numBlocks)
		if err := sc.b.AddHistogram(bb.b[pick]); err != nil {
			return nil, err
		}
		if err := sc.u.AddHistogram(bb.u[pick]); err != nil {
			return nil, err
		}
		n += bb.ranges[pick][1] - bb.ranges[pick][0]
	}
	if n == 0 {
		return nil, errEmptyRecords
	}
	return e.finishCurve(nil, sc.b, sc.u, n, int(sc.u.Total()))
}

// resample fills sc with one replicate's series: at every block position in
// turn the block src picks, re-timed to that position so slotting and
// unbiased sampling see a coherent pseudo-window. The series is sorted by
// construction. With nb set the records' bin indices ride along.
func (bb *bootBlocks) resample(src *rng.Source, nb *normBoot, sc *ciScratch) {
	numBlocks := len(bb.ranges)
	sc.times, sc.lats = sc.times[:0], sc.lats[:0]
	sc.fine, sc.coarse, sc.picks = sc.fine[:0], sc.coarse[:0], sc.picks[:0]
	for pos := 0; pos < numBlocks; pos++ {
		pick := src.Intn(numBlocks)
		sc.picks = append(sc.picks, pick)
		shift := timeutil.Millis(pos-pick) * bb.blockLen
		r := bb.ranges[pick]
		for _, t := range bb.times[r[0]:r[1]] {
			sc.times = append(sc.times, t+shift)
		}
		sc.lats = append(sc.lats, bb.lats[r[0]:r[1]]...)
		if nb != nil {
			sc.fine = append(sc.fine, nb.fine[r[0]:r[1]]...)
			sc.coarse = append(sc.coarse, nb.coarse[r[0]:r[1]]...)
		}
	}
}

// runNormalizedReplicate estimates one bootstrap replicate with the full
// time-normalized estimator: the curve, or the refusal, of
// estimateTimeNormalizedColumns over the resampled series, computed from
// the bootstrap's shared slot state when there is one.
func (e *Estimator) runNormalizedReplicate(bb *bootBlocks, nb *normBoot, src *rng.Source, sc *ciScratch) (*Curve, error) {
	bb.resample(src, nb, sc)
	if len(sc.times) == 0 {
		return nil, errEmptyRecords
	}
	if nb == nil {
		return e.estimateTimeNormalizedColumns(nil, sc.times, sc.lats)
	}
	return e.normalizedReplicate(bb, nb, sc)
}

// normBoot is the per-slot work of a time-normalized bootstrap that cannot
// differ between its replicates, shared read-only by all of them and kept
// for one bootstrapCI call only. A replicate re-times whole blocks by
// multiples of BlockLen and is then slotted afresh (cutSlots), and:
//
//   - retained rank r always samples the key stream rng.New(Seed).Split(r);
//     only its quota q and span move between replicates. For a full-span
//     slot the batch kernel's q sorted keys are the entries of rank r's
//     tagged, sorted table with generation below q, in table order (equal
//     keys are interchangeable — plan.go fact 3), and its tie-break seed is
//     the word 2q from the origin when the stream has no rejected word
//     (normState's argument). So a table per rank is drawn and sorted once
//     and each replicate slot sweeps it read-only: no RNG, no sort. Clipped
//     first and last slots, quotas past the table and ranks whose stream
//     holds a rejected word take the batch kernel, fillSlotUnbiased.
//   - when BlockLen is a whole number of slots, a replicate slot whose
//     instants lie inside one block position holds exactly the records of
//     the original slot they were re-timed from, so it reuses that slot's
//     biased histograms instead of re-binning them.
//   - every record is binned once, fine and coarse; the bin indices ride
//     along with the resampled series so the sweeps and the remaining
//     biased fills add by index.
//
// Every count is an integer in float64, so the histograms — and hence the
// curve or refusal poolNormalized makes of them — are bit for bit those of
// the from-scratch estimate over the same series.
type normBoot struct {
	origins      []rng.Source // origins[r]: rank r's key stream
	tables       []rankTable  // tables[r]: rank r's full-slot table
	size         int          // draws a table holds
	fine, coarse []uint16     // bin indices of the original records
	step         int          // BlockLen in slots; 0 when slots do not tile blocks
	carried      map[int]*slotData
}

// rankTable is one rank's draw table, drawn by the first replicate slot that
// needs it; ok is false when the stream cannot hold one (drawTable).
type rankTable struct {
	once sync.Once
	keys []uint64
	ok   bool
}

// newNormBoot prepares the shared state for the replicates drawn from srcs
// over bb's columns, or returns nil when a latency bin index does not fit 16
// bits (replicates then rerun the batch estimator). srcs are left as they
// were.
func (e *Estimator) newNormBoot(bb *bootBlocks, srcs []*rng.Source) *normBoot {
	fineH, coarseH := e.newHist(), histogram.MustNew(0, e.opts.MaxLatencyMS, e.opts.AlphaBinWidthMS)
	if fineH.Bins() > math.MaxUint16+1 || coarseH.Bins() > math.MaxUint16+1 {
		return nil
	}
	n := len(bb.times)
	dur := e.opts.SlotDuration
	nb := &normBoot{fine: make([]uint16, n), coarse: make([]uint16, n)}
	for i, v := range bb.lats {
		nb.fine[i], nb.coarse[i] = uint16(fineH.Index(v)), uint16(coarseH.Index(v))
	}

	// nRep is the largest replicate record count, known from the block
	// picks before any replicate runs.
	numBlocks := len(bb.ranges)
	nRep := 0
	for _, src := range srcs {
		picks, k := *src, 0
		for range bb.ranges {
			r := bb.ranges[picks.Intn(numBlocks)]
			k += r[1] - r[0]
		}
		nRep = max(nRep, k)
	}

	// A replicate's records lie in [windowLo, windowLo + blocks·BlockLen),
	// so it retains at most one slot per slot index there, and at most
	// nRep/MinSlotActions slots. Origins are Splits of one parent, derived
	// serially.
	windowHi := bb.windowLo + timeutil.Millis(numBlocks)*bb.blockLen
	ranks := min(e.slotOf(windowHi-1)-e.slotOf(bb.windowLo)+1, nRep/e.opts.MinSlotActions)
	nb.origins = make([]rng.Source, ranks)
	parent := rng.New(e.opts.Seed)
	for r := range nb.origins {
		nb.origins[r] = *parent.Split(uint64(r))
	}
	nb.tables = make([]rankTable, ranks)

	// A full slot's quota is the point estimate's scaled by the replicate's
	// record count and by its retained time, which moves little: tables
	// hold nRep's quota, with headroom for the retained time.
	cuts, totalDur := e.cutSlots(nil, bb.times)
	if len(cuts) > 0 && nRep > 0 {
		q := e.drawQuota(nRep, dur, totalDur)
		nb.size = q + q/16 + 16
	}

	if bb.blockLen%dur == 0 {
		nb.step = int(bb.blockLen / dur)
		nb.carried = make(map[int]*slotData)
		for _, c := range cuts {
			if _, ok := bb.blockOf(c.slot, dur); !ok {
				continue
			}
			sd := &slotData{}
			e.fillSlotBiasedIndexed(sd, nb.fine[c.i:c.j], nb.coarse[c.i:c.j])
			nb.carried[c.slot] = sd
		}
	}
	return nb
}

// blockOf returns the block — or the replicate's block position — whose span
// holds every instant of slot. Only slots from 1 up qualify: their instants
// are [slot·dur, (slot+1)·dur), so re-timing by whole slots maps a slot onto
// a slot; Go's truncating t/dur makes slot 0 twice as wide and the slots
// below it closed at the top.
func (bb *bootBlocks) blockOf(slot int, dur timeutil.Millis) (int, bool) {
	first := timeutil.Millis(slot) * dur
	if slot < 1 || first < bb.windowLo {
		return 0, false
	}
	b := int((first - bb.windowLo) / bb.blockLen)
	if b >= len(bb.ranges) || first+dur > bb.windowLo+timeutil.Millis(b+1)*bb.blockLen {
		return 0, false
	}
	return b, true
}

// carriedFrom returns the biased histograms a replicate slot reuses: those
// of the original slot its records were re-timed from whole, or nil.
func (nb *normBoot) carriedFrom(bb *bootBlocks, slot int, picks []int, dur timeutil.Millis) *slotData {
	if nb.step == 0 {
		return nil
	}
	pos, ok := bb.blockOf(slot, dur)
	if !ok {
		return nil
	}
	return nb.carried[slot-(pos-picks[pos])*nb.step]
}

// table returns rank's draw table when it serves a slot spanning span with
// quota draws: the slot is a full one and the quota fits. It draws the table
// on first use.
func (nb *normBoot) table(rank int, span timeutil.Millis, quota int, dur timeutil.Millis) []uint64 {
	if span != dur || quota > nb.size {
		return nil
	}
	t := &nb.tables[rank]
	t.once.Do(func() {
		t.keys, t.ok = drawTable(nil, &nb.origins[rank], uint64(dur), nb.size)
	})
	if !t.ok {
		return nil
	}
	return t.keys
}

// normalizedReplicate is the time-normalized estimate over the resampled
// series in sc, built on nb's shared state.
func (e *Estimator) normalizedReplicate(bb *bootBlocks, nb *normBoot, sc *ciScratch) (*Curve, error) {
	dur := e.opts.SlotDuration
	times, lats := sc.times, sc.lats
	cuts, totalDur := e.cutSlots(sc.cuts, times)
	sc.cuts = cuts
	for len(sc.slots) < len(cuts) {
		sc.slots = append(sc.slots, new(repSlot))
	}
	sc.ptrs = sc.ptrs[:0]
	for r, c := range cuts {
		rs := sc.slots[r]
		sd := &rs.slotData
		sd.slot, sd.count, sd.lo, sd.hi = c.slot, c.j-c.i, c.lo, c.hi
		if carried := nb.carriedFrom(bb, c.slot, sc.picks, dur); carried != nil {
			sd.fine, sd.coarse = carried.fine, carried.coarse
			sc.stats.reused++
		} else {
			sd.fine, sd.coarse = rs.fine, rs.coarse
			e.fillSlotBiasedIndexed(sd, sc.fine[c.i:c.j], sc.coarse[c.i:c.j])
			rs.fine, rs.coarse = sd.fine, sd.coarse
		}
		quota := e.drawQuota(len(times), c.hi-c.lo, totalDur)
		if table := nb.table(r, c.hi-c.lo, quota, dur); table != nil {
			e.resetHist(&sd.fineU, e.opts.BinWidthMS)
			e.resetHist(&sd.coarseU, e.opts.AlphaBinWidthMS)
			seed := nb.origins[r]
			seed.Advance(2 * uint64(quota))
			sweepTable(table, quota, seed.Uint64(), times[c.i:c.j], sc.fine[c.i:c.j], sc.coarse[c.i:c.j], c.lo, sd.fineU, sd.coarseU)
			sc.stats.table++
		} else {
			sd.times, sd.lats = times[c.i:c.j], lats[c.i:c.j]
			src := nb.origins[r]
			e.fillSlotUnbiased(sd, quota, &src)
			sd.times, sd.lats = nil, nil
			sc.stats.fallback++
		}
		sc.ptrs = append(sc.ptrs, sd)
	}
	return e.poolNormalized(nil, sc.ptrs, len(times))
}

// finishBand answers a band request over s: the moving-block bootstrap
// around the point estimate. A non-nil inc holds s and answers a plain
// point from its delta-maintained state; the block sums then come from one
// split sweep of the schedule that estimate just brought current, and
// nothing is retained between calls.
func (e *Estimator) finishBand(req Request, s *Summary, inc *Incremental) (*CurveCI, error) {
	opts, err := req.ciOptions()
	if err != nil {
		return nil, err
	}
	if err := checkColumns(s.Times, s.Lats); err != nil {
		return nil, err
	}
	if opts.TimeNormalized {
		inc = nil // replicates re-partition resampled series into slots
	}
	name := "estimate_ci"
	if inc != nil {
		name = "estimate_ci_incremental"
	}
	defer observeEstimate(time.Now())
	sp := e.trace.StartChild(name)
	defer sp.End()
	sp.SetAttr("records", s.Len())

	bb, err := partitionBlocks(s.Times, s.Lats, opts.BlockLen)
	if err != nil {
		return nil, err
	}
	// The point estimate's stage spans nest under the band's; the
	// bootstrap replicates run untraced (40 replicates × 6 stages of
	// span noise would drown the report) and are summarized by a single
	// bootstrap span instead.
	var point *Curve
	switch {
	case opts.TimeNormalized:
		traced := *e
		traced.trace = sp
		point, err = pointOf(traced.Finish(Request{Mode: ModeNormalized}, s, nil))
	case inc != nil:
		if point, err = inc.EstimatePlain(); err == nil {
			e.sumBlocks(bb, inc.plan.sorted, inc.plan.auxSeed)
		}
	default:
		point, err = e.plainPointFromBlocks(sp, bb)
	}
	if err != nil {
		return nil, err
	}
	return e.bootstrapCI(sp, point, bb, opts)
}

// plainPointFromBlocks draws the plain estimate's key schedule, splits its
// one sweep over bb's blocks and finishes the point curve from the block
// sums — the bytes the plain point estimate has over the same columns.
func (e *Estimator) plainPointFromBlocks(sp *obs.Span, bb *bootBlocks) (*Curve, error) {
	estSp := sp.StartChild("estimate")
	defer estSp.End()
	n := len(bb.times)
	estSp.SetAttr("records", n)

	uSp := estSp.StartChild("sample_unbiased")
	keys := make([]uint64, drawCount(n, e.opts.UnbiasedPerSample))
	span := uint64(bb.times[n-1] + 1 - bb.windowLo)
	chunks := e.keyChunks(len(keys))
	auxSeed, fellBack := drawKeysChunked(chunks, rng.New(e.opts.Seed), span, keys, nil, false)
	e.sumBlocks(bb, keys, auxSeed)
	uSp.SetAttr("draws", len(keys))
	uSp.SetAttr("key_chunks", chunks)
	uSp.SetAttr("stream_fallback", fellBack)
	uSp.End()

	b, u := e.newHist(), e.newHist()
	for blk := range bb.ranges {
		if err := b.AddHistogram(bb.b[blk]); err != nil {
			return nil, err
		}
		if err := u.AddHistogram(bb.u[blk]); err != nil {
			return nil, err
		}
	}
	return e.finishCurve(estSp, b, u, n, len(keys))
}

// bootstrapCI runs the replicate pool over a prepared block partition and
// aggregates per-bin bounds. It is shared verbatim by the stateless and
// the delta-maintained band, which is what keeps the two bit-identical:
// replicate randomness, scheduling and aggregation order are all decided
// here.
func (e *Estimator) bootstrapCI(sp *obs.Span, point *Curve, bb *bootBlocks, opts CIOptions) (*CurveCI, error) {
	if opts.MinSupport == 0 {
		opts.MinSupport = 0.5
	}
	workers := parallel.Workers(opts.Workers, opts.Resamples)
	bootSp := sp.StartChild("bootstrap")
	bootSp.SetAttr("resamples", opts.Resamples)
	bootSp.SetAttr("blocks", len(bb.ranges))
	bootSp.SetAttr("workers", workers)
	bootStart := time.Now()
	if m := getMetrics(); m != nil {
		m.workers.Set(float64(workers))
	}

	// One independent stream per replicate, derived up front: Split
	// advances the parent source, so derivation happens serially here in
	// replicate order, decoupled from worker scheduling.
	base := rng.New(opts.Seed)
	repSrcs := make([]*rng.Source, opts.Resamples)
	for rep := range repSrcs {
		repSrcs[rep] = base.Split(uint64(rep))
	}

	// Replicates run untraced and with the estimator's inner parallelism
	// off — the replicates themselves are the parallel units here.
	untraced := *e
	untraced.trace = nil
	untraced.opts.Workers = 1
	var nb *normBoot
	if opts.TimeNormalized {
		nb = untraced.newNormBoot(bb, repSrcs)
	}

	type repOut struct {
		nlp   []float64
		valid []bool
		ok    bool
	}
	outs := make([]repOut, opts.Resamples)
	scratches := make([]ciScratch, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &scratches[w]
			if !opts.TimeNormalized {
				sc.b = untraced.newHist()
				sc.u = untraced.newHist()
			}
			for {
				rep := int(next.Add(1)) - 1
				if rep >= opts.Resamples {
					return
				}
				repStart := time.Now()
				var c *Curve
				var repErr error
				if opts.TimeNormalized {
					c, repErr = untraced.runNormalizedReplicate(bb, nb, repSrcs[rep], sc)
				} else {
					c, repErr = untraced.runPlainReplicate(bb, repSrcs[rep], sc)
				}
				if m := getMetrics(); m != nil {
					m.replicateDur.ObserveSince(repStart)
					if repErr != nil {
						m.replicateErr.Inc()
					} else {
						m.replicates.Inc()
					}
				}
				if repErr != nil {
					continue // a degenerate replicate (e.g. empty) is skipped
				}
				outs[rep] = repOut{nlp: c.NLP, valid: c.Valid, ok: true}
			}
		}()
	}
	wg.Wait()

	// Aggregate in replicate order so per-bin sample order (and hence the
	// quantiles below) never depends on worker scheduling.
	bins := len(point.NLP)
	samples := make([][]float64, bins) // per-bin replicate values
	replicates := 0
	for _, o := range outs {
		if !o.ok {
			continue
		}
		replicates++
		for i := 0; i < bins; i++ {
			if o.valid[i] {
				samples[i] = append(samples[i], o.nlp[i])
			}
		}
	}
	bootSp.SetAttr("replicates", replicates)
	if opts.TimeNormalized {
		var st repStats
		for _, sc := range scratches {
			st.table += sc.stats.table
			st.fallback += sc.stats.fallback
			st.reused += sc.stats.reused
		}
		bootSp.SetAttr("table_slots", st.table)
		bootSp.SetAttr("fallback_slots", st.fallback)
		bootSp.SetAttr("biased_reused", st.reused)
	}
	bootSp.End()
	if m := getMetrics(); m != nil {
		m.bootstrapDur.ObserveSince(bootStart)
	}
	if replicates < 2 {
		return nil, underIdentified("core: too few successful bootstrap replicates")
	}

	out := &CurveCI{
		Curve:      point,
		Lower:      make([]float64, bins),
		Upper:      make([]float64, bins),
		Replicates: replicates,
	}
	alpha := (1 - opts.Confidence) / 2
	need := int(math.Ceil(opts.MinSupport * float64(replicates)))
	for i := 0; i < bins; i++ {
		vs := samples[i]
		if len(vs) < need || len(vs) < 2 {
			out.Lower[i] = math.NaN()
			out.Upper[i] = math.NaN()
			continue
		}
		sort.Float64s(vs)
		// Two or more values and 0 < alpha < 1/2: no error to check.
		out.Lower[i], _ = stats.QuantileSorted(vs, alpha)
		out.Upper[i], _ = stats.QuantileSorted(vs, 1-alpha)
	}
	return out, nil
}
