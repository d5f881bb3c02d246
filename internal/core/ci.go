package core

import (
	"cmp"
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
	// The usable records, ascending; a time-normalized bootstrap bins them
	// (newNormBoot).
	binned
	ranges [][2]int // half-open [i, j) record range per block
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
		binned:   binned{times: times, lats: lats},
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
// replicate's slots and the rows they read (time-normalized).
type ciScratch struct {
	picks     []int     // picks[pos]: the block re-timed to position pos
	cuts      []slotCut // the replicate's retained slots (cutReplicate)
	runs      []slotRun // the replicate's slot runs (cutPicks)
	cutRuns   [][2]int  // cuts[k]'s records are runs[cutRuns[k][0]:cutRuns[k][1]]
	resampled bool      // the cuts index series instead of runs
	series    binned    // the resampled series (resample)
	joined    binned    // one slot's rows joined across a block edge (slotRows)
	slots     []*repSlot
	ptrs      []*slotData
	byGen     []int32   // a pair's adoption column, by generation (sweepPair)
	ties      []pairTie // a pair's tie keys, in table order
	run       []uint16  // a pair's running bin counts
	stats     repStats
	b, u      *histogram.Histogram
}

// binned is time-sorted records, their latencies binned once: fine and
// coarse are each record's bin indices (normBoot), nil where nothing reads
// them.
type binned struct {
	times        []timeutil.Millis
	lats         []float64
	fine, coarse []uint16
}

func (b *binned) slice(i, j int) binned {
	return binned{b.times[i:j], b.lats[i:j], b.fine[i:j], b.coarse[i:j]}
}

func (b *binned) reset() {
	b.times, b.lats, b.fine, b.coarse = b.times[:0], b.lats[:0], b.fine[:0], b.coarse[:0]
}

// appendRows appends o's records [i, j) re-timed by shift, with their bin
// indices where o has them.
func (b *binned) appendRows(o *binned, i, j int, shift timeutil.Millis) {
	for _, t := range o.times[i:j] {
		b.times = append(b.times, t+shift)
	}
	b.lats = append(b.lats, o.lats[i:j]...)
	if o.fine != nil {
		b.fine = append(b.fine, o.fine[i:j]...)
		b.coarse = append(b.coarse, o.coarse[i:j]...)
	}
}

// slotRun is a run of one slot's records, [i, j) of the original columns,
// re-timed by shift.
type slotRun struct {
	slot  int
	i, j  int
	shift timeutil.Millis
}

// repSlot is a replicate slot's state. Its biased histograms are its own
// fine/coarse, or a whole-carried original slot's, shared read-only.
type repSlot struct {
	slotData
	fine, coarse *histogram.Histogram
}

// repStats counts, over a bootstrap's replicate slots, those swept from a
// shared draw table, those filled from a (rank, original slot) pair's one
// sweep, those sampled by the batch kernel instead, those that reused a
// whole-carried slot's biased histograms, and those whose rows were joined
// across a block edge; over its pairs, those swept and, of those, the ones
// sent back to the per-slot sweep for their tie keys; and the replicates
// that resampled their whole series.
type repStats struct{ table, filled, fallback, reused, joined, pairs, tied, resampled int }

func (st *repStats) add(o repStats) {
	st.table += o.table
	st.filled += o.filled
	st.fallback += o.fallback
	st.reused += o.reused
	st.joined += o.joined
	st.pairs += o.pairs
	st.tied += o.tied
	st.resampled += o.resampled
}

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

// pick draws a replicate's block picks from src into sc.picks.
func (bb *bootBlocks) pick(src *rng.Source, sc *ciScratch) {
	sc.picks = sc.picks[:0]
	for range bb.ranges {
		sc.picks = append(sc.picks, src.Intn(len(bb.ranges)))
	}
}

// resample fills sc.series with the replicate of sc.picks: at every block
// position in turn the block picked for it, re-timed to that position so
// slotting and unbiased sampling see a coherent pseudo-window. The series is
// sorted by construction; the bin indices ride along when bb has them.
func (bb *bootBlocks) resample(sc *ciScratch) {
	sc.series.reset()
	for pos, pick := range sc.picks {
		r := bb.ranges[pick]
		sc.series.appendRows(&bb.binned, r[0], r[1], timeutil.Millis(pos-pick)*bb.blockLen)
	}
}

// runNormalizedReplicate estimates bootstrap replicate rep with the full
// time-normalized estimator: the curve, or the refusal, of
// estimateTimeNormalizedColumns over the resampled series, computed from
// the bootstrap's shared slot state when there is one.
func (e *Estimator) runNormalizedReplicate(bb *bootBlocks, nb *normBoot, rep int, src *rng.Source, sc *ciScratch) (*Curve, error) {
	if nb == nil {
		bb.pick(src, sc)
		bb.resample(sc)
		if len(sc.series.times) == 0 {
			return nil, errEmptyRecords
		}
		return e.estimateTimeNormalizedColumns(nil, sc.series.times, sc.series.lats)
	}
	n, totalDur := e.cutReplicate(bb, nb, src, sc)
	if sc.resampled {
		sc.stats.resampled++
	}
	if n == 0 {
		return nil, errEmptyRecords
	}
	return e.normalizedReplicate(bb, nb, nb.instsOf(rep), n, totalDur, sc)
}

// cutReplicate draws a replicate's block picks from src and cuts its
// retained slots into sc.cuts, as cutSlots cuts its series; n is its record
// count and totalDur the slots' summed span. The slots are cut from the
// picks alone (cutPicks) where they can be; otherwise the series is
// resampled and cut.
func (e *Estimator) cutReplicate(bb *bootBlocks, nb *normBoot, src *rng.Source, sc *ciScratch) (n int, totalDur timeutil.Millis) {
	bb.pick(src, sc)
	if nb.step > 0 {
		if n, totalDur, ok := e.cutPicks(bb, nb, sc); ok {
			sc.resampled = false
			return n, totalDur
		}
	}
	sc.resampled = true
	bb.resample(sc)
	if len(sc.series.times) == 0 {
		return 0, 0
	}
	sc.cuts, totalDur = e.cutSlots(sc.cuts, sc.series.times)
	return len(sc.series.times), totalDur
}

// cutPicks is cutSlots over the series of sc.picks without the series:
// re-timing a block by (pos−pick)·BlockLen moves each of its slot runs
// (nb.runs) by (pos−pick)·step slots, and the slot that straddles a block
// edge joins the last run of one position and the first of the next. The
// runs go to sc.runs, the retained slots to sc.cuts and sc.cutRuns. It
// reports false when a picked block's instants, or their re-timed ones,
// fall below 0, where Go's truncating t/dur does not move slots by whole
// slots.
func (e *Estimator) cutPicks(bb *bootBlocks, nb *normBoot, sc *ciScratch) (n int, totalDur timeutil.Millis, ok bool) {
	var windowLo, windowHi timeutil.Millis
	sc.runs = sc.runs[:0]
	for pos, pick := range sc.picks {
		r := bb.ranges[pick]
		if r[0] == r[1] {
			continue
		}
		shift := timeutil.Millis(pos-pick) * bb.blockLen
		if first := bb.times[r[0]]; first < 0 || first+shift < 0 {
			return 0, 0, false
		}
		if n == 0 {
			windowLo = bb.times[r[0]] + shift
		}
		windowHi = bb.times[r[1]-1] + shift + 1
		n += r[1] - r[0]
		for _, run := range nb.runs[nb.runAt[pick]:nb.runAt[pick+1]] {
			run.slot += (pos - pick) * nb.step
			run.shift = shift
			sc.runs = append(sc.runs, run)
		}
	}
	sc.cuts, sc.cutRuns = sc.cuts[:0], sc.cutRuns[:0]
	at := 0
	for k := 0; k < len(sc.runs); {
		l, count := k, 0
		for ; l < len(sc.runs) && sc.runs[l].slot == sc.runs[k].slot; l++ {
			count += sc.runs[l].j - sc.runs[l].i
		}
		if count >= e.opts.MinSlotActions {
			lo, hi := e.slotBounds(sc.runs[k].slot, windowLo, windowHi)
			sc.cuts = append(sc.cuts, slotCut{slot: sc.runs[k].slot, i: at, j: at + count, lo: lo, hi: hi})
			sc.cutRuns = append(sc.cutRuns, [2]int{k, l})
			totalDur += hi - lo
		}
		at += count
		k = l
	}
	return n, totalDur, true
}

// slotRows returns the records of the replicate's retained slot k, binned,
// and its bounds as they are to be swept: from a resampled series, the
// series' rows; from one run, a view of the original rows with the bounds
// moved back by the run's shift (every sweep reads instants relative to the
// slot's start); from runs joined across a block edge, their rows copied,
// re-timed, into sc.joined.
func (sc *ciScratch) slotRows(bb *bootBlocks, k int) (rows binned, lo, hi timeutil.Millis) {
	c := sc.cuts[k]
	if sc.resampled {
		return sc.series.slice(c.i, c.j), c.lo, c.hi
	}
	runs := sc.runs[sc.cutRuns[k][0]:sc.cutRuns[k][1]]
	if len(runs) == 1 {
		r := runs[0]
		return bb.slice(r.i, r.j), c.lo - r.shift, c.hi - r.shift
	}
	sc.stats.joined++
	sc.joined.reset()
	for _, r := range runs {
		sc.joined.appendRows(&bb.binned, r.i, r.j, r.shift)
	}
	return sc.joined, c.lo, c.hi
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
//     (normState's argument). So one table per rank is drawn and sorted
//     once, and read only after that: no RNG, no sort. Clipped first and
//     last slots, quotas past the table and ranks whose stream holds a
//     rejected word take the batch kernel, fillSlotUnbiased.
//   - when BlockLen is a whole number of slots, a replicate slot whose
//     instants lie inside one block position holds exactly the records of
//     the original slot they were re-timed from, so it reuses that slot's
//     biased histograms instead of re-binning them.
//   - such a slot's draws adopt, relative to the slot's start, what rank r's
//     table adopts over the original slot: which record a key adopts, or
//     that it needs tie-break randomness, depends on the key and the records
//     only, never on the quota. So each (rank, original slot) pair is swept
//     once, every key drawn, and each replicate slot that re-times it fills
//     its counts from that one sweep (planPairs). Only tie keys need the
//     quota: their word is Mix64(aux(r, q) + rank among the quota's draws).
//     Other slots sweep rank r's table on their own (sweepTable), and so do
//     pairs whose tie keys pass an eighth of the table.
//   - when BlockLen is a whole number of slots, a replicate is slotted from
//     its block picks alone (cutPicks): each block's slot runs are cut once,
//     and re-timing a block moves its runs by whole slots. Only the slots
//     that read records copy them: a slot joined across a block edge copies
//     its two runs' rows, re-timed; any other slot reads its original rows
//     in place, its bounds moved back to them. The whole series is
//     resampled only when blocks do not tile into slots or a replicate's
//     instants cross 0.
//   - every record is binned once, fine and coarse, and the sweeps and the
//     remaining biased fills add by index.
//
// Every count is an integer in float64, so the histograms — and hence the
// curve or refusal poolNormalized makes of them — are bit for bit those of
// the from-scratch estimate over the same series.
type normBoot struct {
	origins    []rng.Source // origins[r]: rank r's key stream
	tables     []rankTable  // tables[r]: rank r's full-slot table
	size       int          // draws a table holds
	fineBins   int          // a pair instance's fine counts; its coarse ones follow
	coarseBins int          // a pair instance's coarse counts
	step       int          // BlockLen in slots; 0 when slots do not tile blocks
	runs       []slotRun    // every block's slot runs, in time order (step > 0)
	runAt      []int        // block b's runs are runs[runAt[b]:runAt[b+1]]
	carried    map[int]*carriedSlot
	insts      [][]pairInst // insts[rep]: replicate rep's pair instances (planPairs)
}

// carriedSlot is an original slot that a block carries whole: its records
// are bb.times[i:j], and its biased histograms are shared read-only by the
// replicate slots that re-time it.
type carriedSlot struct {
	slotCut
	fine, coarse *histogram.Histogram
}

// pairInst is a replicate slot filled from a pair's sweep: a full-span slot
// of retained rank that re-times the original slot from whole and owes quota
// draws, at most math.MaxUint16 so that every bin count fits counts. counts
// holds the draws' fine bin counts, then their coarse ones; sweepPair fills
// it, or leaves it nil and the slot sweeps the table on its own.
type pairInst struct {
	rank, quota int
	from        *carriedSlot
	counts      []uint16
}

// pairTieShare bounds a pair's tie keys: past one in pairTieShare of the
// table, resolving them again for every quota would rival the per-slot
// sweep, which the pair's slots then take.
const pairTieShare = 8

// rankTable is one rank's draw table, drawn by the first replicate slot that
// needs it; ok is false when the stream cannot hold one (drawTable).
type rankTable struct {
	once sync.Once
	keys []uint64
	ok   bool
}

// newNormBoot prepares the shared state for the replicates drawn from srcs
// over bb's columns and bins bb's records, or returns nil when a latency bin
// index does not fit 16 bits (replicates then rerun the batch estimator).
// srcs are left as they were.
func (e *Estimator) newNormBoot(bb *bootBlocks, srcs []*rng.Source) *normBoot {
	fineH, coarseH := e.newHist(), histogram.MustNew(0, e.opts.MaxLatencyMS, e.opts.AlphaBinWidthMS)
	if fineH.Bins() > math.MaxUint16+1 || coarseH.Bins() > math.MaxUint16+1 {
		return nil
	}
	n := len(bb.times)
	dur := e.opts.SlotDuration
	nb := &normBoot{fineBins: fineH.Bins(), coarseBins: coarseH.Bins()}
	bb.fine, bb.coarse = make([]uint16, n), make([]uint16, n)
	for i, v := range bb.lats {
		bb.fine[i], bb.coarse[i] = uint16(fineH.Index(v)), uint16(coarseH.Index(v))
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
		nb.runAt = make([]int, 1, numBlocks+1)
		for _, r := range bb.ranges {
			for i := r[0]; i < r[1]; {
				j := e.slotEnd(bb.times[:r[1]], i)
				nb.runs = append(nb.runs, slotRun{slot: e.slotOf(bb.times[i]), i: i, j: j})
				i = j
			}
			nb.runAt = append(nb.runAt, len(nb.runs))
		}
		nb.carried = make(map[int]*carriedSlot)
		for _, c := range cuts {
			if _, ok := bb.blockOf(c.slot, dur); !ok {
				continue
			}
			sd := &slotData{}
			e.fillSlotBiasedIndexed(sd, bb.fine[c.i:c.j], bb.coarse[c.i:c.j])
			nb.carried[c.slot] = &carriedSlot{slotCut: c, fine: sd.fine, coarse: sd.coarse}
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

// carriedFrom returns the original slot a replicate slot's records were
// re-timed from whole, or nil.
func (nb *normBoot) carriedFrom(bb *bootBlocks, slot int, picks []int, dur timeutil.Millis) *carriedSlot {
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
	return nb.rankTable(rank, dur)
}

// rankTable returns rank's draw table over slots of length dur, drawing it
// on first use, or nil when the stream cannot hold one.
func (nb *normBoot) rankTable(rank int, dur timeutil.Millis) []uint64 {
	t := &nb.tables[rank]
	t.once.Do(func() {
		t.keys, t.ok = drawTable(nil, &nb.origins[rank], uint64(dur), nb.size)
	})
	if !t.ok {
		return nil
	}
	return t.keys
}

// instsOf returns replicate rep's pair instances, in rank order.
func (nb *normBoot) instsOf(rep int) []pairInst {
	if rep >= len(nb.insts) {
		return nil
	}
	return nb.insts[rep]
}

// planPairs fills every replicate slot it can from one sweep per (rank,
// original slot) pair, ahead of the replicates themselves. Pass 1 slots
// each replicate from its block picks (cutReplicate): the quotas, and
// which slots are full-span, within the table and carried whole, follow.
// Pass 2 groups those slots by pair, and sweeps each pair once (sweepPair).
// What stays is the bin counts of the slots filled — not the pairs'
// adoption columns, which are scratch. Both passes run on one worker per
// scratch and their results do not depend on the order.
func (e *Estimator) planPairs(bb *bootBlocks, nb *normBoot, srcs []*rng.Source, scratches []ciScratch) {
	if nb.step == 0 || nb.size == 0 {
		return
	}
	dur := e.opts.SlotDuration
	limit := min(nb.size, math.MaxUint16)
	nb.insts = make([][]pairInst, len(srcs))
	eachWithScratch(scratches, len(srcs), func(sc *ciScratch, rep int) {
		src := *srcs[rep]
		n, totalDur := e.cutReplicate(bb, nb, &src, sc)
		if n == 0 {
			return
		}
		var insts []pairInst
		for r, c := range sc.cuts {
			quota := e.drawQuota(n, c.hi-c.lo, totalDur)
			if c.hi-c.lo != dur || quota > limit {
				continue
			}
			if from := nb.carriedFrom(bb, c.slot, sc.picks, dur); from != nil {
				insts = append(insts, pairInst{rank: r, quota: quota, from: from})
			}
		}
		nb.insts[rep] = insts
	})

	var all []*pairInst
	for _, insts := range nb.insts {
		for i := range insts {
			all = append(all, &insts[i])
		}
	}
	slices.SortFunc(all, func(a, b *pairInst) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.from.slot, b.from.slot), cmp.Compare(a.quota, b.quota))
	})
	width := nb.fineBins + nb.coarseBins
	counts := make([]uint16, len(all)*width)
	for i, p := range all {
		p.counts = counts[i*width : (i+1)*width : (i+1)*width]
	}
	var groups [][]*pairInst
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].rank == all[i].rank && all[j].from == all[i].from {
			j++
		}
		groups = append(groups, all[i:j])
		i = j
	}
	eachWithScratch(scratches, len(groups), func(sc *ciScratch, g int) {
		e.sweepPair(bb, nb, groups[g], sc)
	})
}

// sweepPair sweeps one (rank, original slot) pair for its instances, all of
// one rank and one original slot, in ascending quota: rank's table, every
// key drawn, against the slot's original records, counted from the slot's
// start (a replicate slot re-times them by whole slots, so every key adopts
// the same record). A key's generation is its position in the stream, so
// the column of what each generation adopts turns every quota's draws into
// a prefix: an instance's counts are its predecessor's plus the generations
// between their quotas. Tie keys are left out of the column and resolved
// per instance as sweepTable does: the word is Mix64(auxSeed + rank),
// auxSeed the quota's seed and rank the number of the quota's keys before
// the tie key in table order.
func (e *Estimator) sweepPair(bb *bootBlocks, nb *normBoot, group []*pairInst, sc *ciScratch) {
	rank, from := group[0].rank, group[0].from
	dur := e.opts.SlotDuration
	table := nb.rankTable(rank, dur)
	sendBack := func() {
		for _, p := range group {
			p.counts = nil
		}
	}
	if table == nil || from.j-from.i > math.MaxInt32 {
		sendBack()
		return
	}
	sc.stats.pairs++
	times := bb.times[from.i:from.j]
	fine, coarse := bb.fine[from.i:from.j], bb.coarse[from.i:from.j]
	lo := timeutil.Millis(from.slot) * dur
	sc.byGen = extend(sc.byGen[:0], len(table))
	byGen, ties := sc.byGen, sc.ties[:0]
	sweepNearest(times, lo, table, 32, allDraws, 0,
		func(j0, k0 int, counts []uint64) {
			for i, c := range counts {
				for ; c > 0; c-- {
					byGen[uint32(table[k0])] = int32(j0 + i)
					k0++
				}
			}
		},
		func(_, k, j int, _ timeutil.Millis) {
			byGen[uint32(table[k])] = -1
			ties = append(ties, pairTie{k: k, j: j})
		})
	sc.ties = ties
	if len(ties)*pairTieShare > len(table) {
		sc.stats.tied++
		sendBack()
		return
	}
	sc.run = extend(sc.run[:0], nb.fineBins+nb.coarseBins)
	run := sc.run
	clear(run)
	g := 0
	for _, p := range group {
		for ; g < p.quota; g++ {
			if j := byGen[g]; j >= 0 {
				run[fine[j]]++
				run[nb.fineBins+int(coarse[j])]++
			}
		}
		copy(p.counts, run)
		if len(ties) == 0 {
			continue
		}
		seed := nb.origins[rank]
		seed.Advance(2 * uint64(p.quota))
		auxSeed := seed.Uint64()
		q, drawn, k := uint32(p.quota), uint64(0), 0
		for _, tie := range ties {
			for ; k < tie.k; k++ {
				drawn += b2u(uint32(table[k]) < q)
			}
			key := table[tie.k]
			if uint32(key) >= q {
				continue
			}
			j := pickAt(times, tie.j, lo+timeutil.Millis(key>>32), rng.Mix64(auxSeed+drawn))
			p.counts[fine[j]]++
			p.counts[nb.fineBins+int(coarse[j])]++
		}
	}
}

// pairTie is a tie key of a pair's sweep: table[k], staying on record j.
type pairTie struct{ k, j int }

// eachWithScratch runs fn(sc, i) for every i in [0, n), on one worker per
// scratch, worker w passing &scratches[w].
func eachWithScratch(scratches []ciScratch, n int, fn func(sc *ciScratch, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range scratches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(&scratches[w], i)
			}
		}()
	}
	wg.Wait()
}

// normalizedReplicate is the time-normalized estimate over the replicate
// cut into sc (cutReplicate), n records whose retained slots span totalDur,
// built on nb's shared state; insts are the replicate's pair instances, in
// rank order. A slot reads its rows (slotRows) only to bin or sweep them.
func (e *Estimator) normalizedReplicate(bb *bootBlocks, nb *normBoot, insts []pairInst, n int, totalDur timeutil.Millis, sc *ciScratch) (*Curve, error) {
	dur := e.opts.SlotDuration
	for len(sc.slots) < len(sc.cuts) {
		sc.slots = append(sc.slots, new(repSlot))
	}
	sc.ptrs = sc.ptrs[:0]
	for r, c := range sc.cuts {
		rs := sc.slots[r]
		sd := &rs.slotData
		sd.slot, sd.count, sd.lo, sd.hi = c.slot, c.j-c.i, c.lo, c.hi
		carried := nb.carriedFrom(bb, c.slot, sc.picks, dur)
		var inst *pairInst
		if len(insts) > 0 && insts[0].rank == r {
			inst, insts = &insts[0], insts[1:]
		}
		filled := inst != nil && inst.counts != nil
		var rows binned
		lo, hi := c.lo, c.hi
		if carried == nil || !filled {
			rows, lo, hi = sc.slotRows(bb, r)
		}
		if carried != nil {
			sd.fine, sd.coarse = carried.fine, carried.coarse
			sc.stats.reused++
		} else {
			sd.fine, sd.coarse = rs.fine, rs.coarse
			e.fillSlotBiasedIndexed(sd, rows.fine, rows.coarse)
			rs.fine, rs.coarse = sd.fine, sd.coarse
		}
		quota := e.drawQuota(n, c.hi-c.lo, totalDur)
		if filled {
			e.resetHist(&sd.fineU, e.opts.BinWidthMS)
			e.resetHist(&sd.coarseU, e.opts.AlphaBinWidthMS)
			for b, n := range inst.counts[:nb.fineBins] {
				if n != 0 {
					sd.fineU.AddIndex(b, float64(n))
				}
			}
			for b, n := range inst.counts[nb.fineBins:] {
				if n != 0 {
					sd.coarseU.AddIndex(b, float64(n))
				}
			}
			sc.stats.filled++
		} else if table := nb.table(r, c.hi-c.lo, quota, dur); table != nil {
			e.resetHist(&sd.fineU, e.opts.BinWidthMS)
			e.resetHist(&sd.coarseU, e.opts.AlphaBinWidthMS)
			seed := nb.origins[r]
			seed.Advance(2 * uint64(quota))
			sweepTable(table, quota, seed.Uint64(), rows.times, rows.fine, rows.coarse, lo, sd.fineU, sd.coarseU)
			sc.stats.table++
		} else {
			sd.times, sd.lats, sd.lo, sd.hi = rows.times, rows.lats, lo, hi
			src := nb.origins[r]
			e.fillSlotUnbiased(sd, quota, &src)
			sd.times, sd.lats, sd.lo, sd.hi = nil, nil, c.lo, c.hi
			sc.stats.fallback++
		}
		sc.ptrs = append(sc.ptrs, sd)
	}
	return e.poolNormalized(nil, sc.ptrs, n)
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
	scratches := make([]ciScratch, workers)
	var nb *normBoot
	if opts.TimeNormalized {
		if nb = untraced.newNormBoot(bb, repSrcs); nb != nil {
			untraced.planPairs(bb, nb, repSrcs, scratches)
		}
	} else {
		for w := range scratches {
			scratches[w].b = untraced.newHist()
			scratches[w].u = untraced.newHist()
		}
	}

	type repOut struct {
		nlp   []float64
		valid []bool
		ok    bool
	}
	outs := make([]repOut, opts.Resamples)
	eachWithScratch(scratches, opts.Resamples, func(sc *ciScratch, rep int) {
		repStart := time.Now()
		var c *Curve
		var repErr error
		if opts.TimeNormalized {
			c, repErr = untraced.runNormalizedReplicate(bb, nb, rep, repSrcs[rep], sc)
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
			return // a degenerate replicate (e.g. empty) is skipped
		}
		outs[rep] = repOut{nlp: c.NLP, valid: c.Valid, ok: true}
	})

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
			st.add(sc.stats)
		}
		bootSp.SetAttr("table_slots", st.table)
		bootSp.SetAttr("pair_slots", st.filled)
		bootSp.SetAttr("fallback_slots", st.fallback)
		bootSp.SetAttr("biased_reused", st.reused)
		bootSp.SetAttr("slots_joined", st.joined)
		bootSp.SetAttr("replicates_resampled", st.resampled)
		bootSp.SetAttr("pairs_swept", st.pairs)
		bootSp.SetAttr("pairs_tied", st.tied)
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
