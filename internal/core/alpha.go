package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"autosens/internal/histogram"
	"autosens/internal/obs"
	"autosens/internal/rng"
	"autosens/internal/stats"
	"autosens/internal/timeutil"
)

// slotData holds the per-time-slot state needed by the α normalization.
// times/lats hold the slot's records while its histograms are filled;
// poolNormalized reads only the histograms.
type slotData struct {
	slot    int
	count   int               // number of actions in the slot
	times   []timeutil.Millis // time-sorted slice of the slot's instants
	lats    []float64         // latencies aligned with times
	lo, hi  timeutil.Millis   // slot bounds clipped to the window
	fine    *histogram.Histogram
	fineU   *histogram.Histogram
	coarse  *histogram.Histogram
	coarseU *histogram.Histogram
}

// estimateTimeNormalizedColumns is the time-normalized estimator's core
// over validated sorted columns, recording its stage spans under sp.
func (e *Estimator) estimateTimeNormalizedColumns(sp *obs.Span, times []timeutil.Millis, lats []float64) (*Curve, error) {
	src := rng.New(e.opts.Seed)
	slots := e.buildSlots(sp, times, lats, src)
	return e.poolNormalized(sp, slots, len(times))
}

// ErrUnderIdentified matches (errors.Is) the estimator's refusals of input
// too thin to identify what was asked for: no slot reaches MinSlotActions or
// no reference slot has a usable bin (time-normalized), no latency bin
// gathers MinUnbiasedCount draws (plain), a window shorter than two
// bootstrap blocks or too few replicates that could be estimated (bands).
// More data — a longer window, coarser slots — is the remedy, not a retry.
var ErrUnderIdentified = errors.New("core: input under-identifies the estimate")

// underIdentified is a refusal matching ErrUnderIdentified that keeps its
// own message.
type underIdentified string

func (u underIdentified) Error() string        { return string(u) }
func (u underIdentified) Is(target error) bool { return target == ErrUnderIdentified }

// poolNormalized runs the per-reference α pooling over prepared slots and
// averages the resulting curves. totalN is reported as the curve's biased
// sample count. Stage spans are recorded under sp (which may be nil).
func (e *Estimator) poolNormalized(sp *obs.Span, slots []*slotData, totalN int) (*Curve, error) {
	if len(slots) == 0 {
		return nil, underIdentified(fmt.Sprintf("core: no slot reaches %d actions; use a longer window or coarser slots", e.opts.MinSlotActions))
	}

	// Busiest slots first for the rotating reference.
	byCount := make([]*slotData, len(slots))
	copy(byCount, slots)
	sort.Slice(byCount, func(i, j int) bool { return byCount[i].count > byCount[j].count })
	numRefs := e.opts.ReferenceSlots
	if numRefs > len(byCount) {
		numRefs = len(byCount)
	}

	// Each reference's α pooling is independent of the others (slots are
	// read-only here), so references fan out across the worker pool.
	// Results are collected by rank and merged in rank order below, so the
	// averaged curve and the reported firstErr are worker-count invariant.
	refCurves := make([]*Curve, numRefs)
	refErrs := make([]error, numRefs)
	e.forEachIndex(numRefs, func(r int) {
		refCurves[r], refErrs[r] = e.poolOneReference(sp, slots, byCount[r], r, totalN)
	})
	var curves []*Curve
	var firstErr error
	for r := 0; r < numRefs; r++ {
		if refErrs[r] != nil {
			if firstErr == nil {
				firstErr = refErrs[r]
			}
			continue
		}
		if refCurves[r] != nil {
			curves = append(curves, refCurves[r])
		}
	}
	if len(curves) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, underIdentified("core: no usable reference slot for time normalization")
	}
	avgSp := sp.StartChild("average_curves")
	avgSp.SetAttr("references", len(curves))
	out := averageCurves(curves)
	avgSp.End()
	return out, nil
}

// poolOneReference computes one reference slot's α-normalized pooled
// curve. It returns (nil, nil) when the reference has no usable bins and
// is skipped.
func (e *Estimator) poolOneReference(sp *obs.Span, slots []*slotData, ref *slotData, rank, totalN int) (*Curve, error) {
	refSp := sp.StartChild("alpha_reference")
	defer refSp.End()
	refSp.SetAttr("rank", rank)
	refSp.SetAttr("slot", ref.slot)
	alphas, ok := alphaAgainst(slots, ref, e.opts.MinAlphaBinCount)
	if !ok {
		refSp.SetAttr("skipped", "reference has no usable bins")
		return nil, nil
	}
	// Pool B and U over exactly the same slots: a slot whose α is
	// unusable must be excluded from both, or its unbiased mass
	// would depress the ratio wherever that slot's latency lived.
	bPool := e.newHist()
	uPool := e.newHist()
	pooled := 0
	for i, sd := range slots {
		a := alphas[i]
		if math.IsNaN(a) || a <= 0 {
			continue
		}
		for bin := 0; bin < sd.fine.Bins(); bin++ {
			if c := sd.fine.Count(bin); c > 0 {
				bPool.SetCount(bin, bPool.Count(bin)+c/a)
			}
		}
		if err := uPool.AddHistogram(sd.fineU); err != nil {
			return nil, err
		}
		pooled++
	}
	refSp.SetAttr("pooled_slots", pooled)
	return e.finishCurve(refSp, bPool, uPool, totalN, int(uPool.Total()))
}

// buildSlots groups time-sorted records into slots, drops thin slots, and
// builds each retained slot's biased histograms (fine and coarse) and
// unbiased draws.
func (e *Estimator) buildSlots(sp *obs.Span, times []timeutil.Millis, lats []float64, src *rng.Source) []*slotData {
	partSp := sp.StartChild("partition_slots")
	cuts, _ := e.cutSlots(nil, times)
	slots := make([]*slotData, len(cuts))
	for k, c := range cuts {
		slots[k] = &slotData{slot: c.slot, count: c.j - c.i, times: times[c.i:c.j], lats: lats[c.i:c.j], lo: c.lo, hi: c.hi}
	}
	partSp.SetAttr("slots", len(slots))
	partSp.End()
	if len(slots) == 0 {
		return nil
	}

	bSp := sp.StartChild("build_biased_histograms")
	e.forEachIndex(len(slots), func(i int) {
		e.fillSlotBiased(slots[i])
	})
	bSp.SetAttr("slots", len(slots))
	bSp.End()

	uSp := sp.StartChild("sample_unbiased")
	quotas, srcs, draws := e.slotDraws(slots, len(times), src)
	e.forEachIndex(len(slots), func(i int) {
		e.fillSlotUnbiased(slots[i], quotas[i], srcs[i])
	})
	uSp.SetAttr("draws", draws)
	uSp.End()
	return slots
}

// slotOf is the index of the time slot holding instant t.
func (e *Estimator) slotOf(t timeutil.Millis) int { return int(t / e.opts.SlotDuration) }

// slotBounds is slot's span clipped to the window [windowLo, windowHi).
func (e *Estimator) slotBounds(slot int, windowLo, windowHi timeutil.Millis) (lo, hi timeutil.Millis) {
	dur := e.opts.SlotDuration
	return max(timeutil.Millis(slot)*dur, windowLo), min(timeutil.Millis(slot+1)*dur, windowHi)
}

// slotCut is one retained slot of a partition of time-sorted columns.
type slotCut struct {
	slot   int
	i, j   int             // the slot's records are columns [i, j)
	lo, hi timeutil.Millis // slot bounds clipped to the window
}

// cutSlots partitions time-sorted columns into slots, keeps those holding at
// least MinSlotActions records and clips their bounds to the window; totalDur
// is the retained slots' summed span, which their draw quotas divide
// (drawQuota). The batch, delta-maintained and bootstrap estimators all slot
// their columns here. The result reuses dst's storage.
func (e *Estimator) cutSlots(dst []slotCut, times []timeutil.Millis) (cuts []slotCut, totalDur timeutil.Millis) {
	n := len(times)
	windowLo, windowHi := times[0], times[n-1]+1
	cuts = dst[:0]
	for i := 0; i < n; {
		slot, j := e.slotOf(times[i]), e.slotEnd(times, i)
		if j-i >= e.opts.MinSlotActions {
			lo, hi := e.slotBounds(slot, windowLo, windowHi)
			cuts = append(cuts, slotCut{slot: slot, i: i, j: j, lo: lo, hi: hi})
			totalDur += hi - lo
		}
		i = j
	}
	return cuts, totalDur
}

// slotEnd is the end of the run of time-sorted records from i on that share
// times[i]'s slot: times ascend and t/dur is monotone in t, so it is the
// first record mapping elsewhere.
func (e *Estimator) slotEnd(times []timeutil.Millis, i int) int {
	slot := e.slotOf(times[i])
	return i + sort.Search(len(times)-i, func(k int) bool { return e.slotOf(times[i+k]) != slot })
}

// retainSlot returns the state of a slot holding count of the records of
// the window [windowLo, windowHi), its bounds clipped to the window, or nil
// when the slot is too thin to keep.
func (e *Estimator) retainSlot(slot, count int, windowLo, windowHi timeutil.Millis) *slotData {
	if count < e.opts.MinSlotActions {
		return nil
	}
	lo, hi := e.slotBounds(slot, windowLo, windowHi)
	return &slotData{slot: slot, count: count, lo: lo, hi: hi}
}

// drawQuota is the unbiased draw quota of a retained slot spanning span of
// an n-record estimate whose retained slots span totalDur in all: its share
// of ceil(n·UnbiasedPerSample), rounded up. It depends on the slots' bounds
// and n alone, never on the records.
//
// Unbiased draws are allotted per unit of slot *time*, not per action:
// after α normalization the pooled biased counts weight every slot's time
// equally, so the pooled unbiased distribution must too — otherwise busy
// (and typically slow) slots would dominate U and skew the ratio.
func (e *Estimator) drawQuota(n int, span, totalDur timeutil.Millis) int {
	totalDraws := math.Ceil(float64(n) * e.opts.UnbiasedPerSample)
	return int(math.Ceil(totalDraws * float64(span) / float64(totalDur)))
}

// slotDraws gives each retained slot of an n-record estimate its unbiased
// draw quota (drawQuota) and its RNG stream src.Split(i); draws is the
// quotas' sum.
//
// Quotas and streams are derived serially in slot order (Split advances
// src), so the fills that consume them — the expensive part — may run in
// any order on any number of workers with bit-identical results.
func (e *Estimator) slotDraws(slots []*slotData, n int, src *rng.Source) (quotas []int, srcs []*rng.Source, draws int) {
	var totalDur timeutil.Millis
	for _, sd := range slots {
		totalDur += sd.hi - sd.lo
	}
	quotas = make([]int, len(slots))
	srcs = make([]*rng.Source, len(slots))
	for i, sd := range slots {
		quotas[i] = e.drawQuota(n, sd.hi-sd.lo, totalDur)
		draws += quotas[i]
		srcs[i] = src.Split(uint64(i))
	}
	return quotas, srcs, draws
}

// resetHist zeroes *h, allocating it over [0, MaxLatencyMS) at the given bin
// width on first use.
func (e *Estimator) resetHist(h **histogram.Histogram, width float64) {
	if *h == nil {
		*h = histogram.MustNew(0, e.opts.MaxLatencyMS, width)
	} else {
		(*h).Reset()
	}
}

// fillSlotBiased populates a slot's fine/coarse biased histograms.
func (e *Estimator) fillSlotBiased(sd *slotData) {
	e.resetHist(&sd.fine, e.opts.BinWidthMS)
	e.resetHist(&sd.coarse, e.opts.AlphaBinWidthMS)
	for _, v := range sd.lats {
		sd.fine.Add(v)
		sd.coarse.Add(v)
	}
}

// fillSlotBiasedIndexed is fillSlotBiased over records binned once: fine and
// coarse are the slot's records' bin indices.
func (e *Estimator) fillSlotBiasedIndexed(sd *slotData, fine, coarse []uint16) {
	e.resetHist(&sd.fine, e.opts.BinWidthMS)
	e.resetHist(&sd.coarse, e.opts.AlphaBinWidthMS)
	for k := range fine {
		sd.fine.AddIndex(int(fine[k]), 1)
		sd.coarse.AddIndex(int(coarse[k]), 1)
	}
}

// fillSlotUnbiased adds the given quota of unbiased draws over the slot's
// time range, batch-sweeping them into the fine and coarse histograms at
// once.
func (e *Estimator) fillSlotUnbiased(sd *slotData, draws int, src *rng.Source) {
	e.resetHist(&sd.fineU, e.opts.BinWidthMS)
	e.resetHist(&sd.coarseU, e.opts.AlphaBinWidthMS)
	sc := slotSweepPool.Get().(*sweepScratch)
	fillUnbiasedSweep(sd.times, sd.lats, sd.lo, sd.hi, draws, src, sc, sd.fineU, sd.coarseU)
	slotSweepPool.Put(sc)
}

// slotSweepPool recycles per-slot key buffers: slot fills fan out across
// the worker pool, a hundred to an estimate, each needing its keys only
// until its sweep is done.
var slotSweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// alphaAgainst estimates each slot's α relative to the reference slot,
// using the coarse histograms: α_T = mean over latency bins L of
// (c_T^L/f_T^L)/(c_R^L/f_R^L) over bins where both slots have at least
// minCount actions and unbiased support. Returns ok=false when the
// reference slot itself yields no usable bins.
func alphaAgainst(slots []*slotData, ref *slotData, minCount float64) ([]float64, bool) {
	refRate, refOK := binRates(ref.coarse, ref.coarseU, minCount)
	if !refOK {
		return nil, false
	}
	out := make([]float64, len(slots))
	for i, sd := range slots {
		if sd == ref {
			out[i] = 1
			continue
		}
		rate, ok := binRates(sd.coarse, sd.coarseU, minCount)
		if !ok {
			out[i] = math.NaN()
			continue
		}
		var ratios []float64
		for bin := range rate {
			if !math.IsNaN(rate[bin]) && !math.IsNaN(refRate[bin]) && refRate[bin] > 0 {
				ratios = append(ratios, rate[bin]/refRate[bin])
			}
		}
		if len(ratios) == 0 {
			out[i] = math.NaN()
			continue
		}
		m, err := stats.Mean(ratios)
		if err != nil || m <= 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = m
	}
	return out, true
}

// binRates returns the per-coarse-bin temporal action rate c^L/f^L of a
// slot's or a period's coarse biased and unbiased histograms (NaN where
// under-supported), and whether any bin is usable.
func binRates(b, u *histogram.Histogram, minCount float64) ([]float64, bool) {
	bins := b.Bins()
	out := make([]float64, bins)
	uTotal := u.Total()
	any := false
	for bin := 0; bin < bins; bin++ {
		c := b.Count(bin)
		uc := u.Count(bin)
		if c < minCount || uc < minCount || uTotal == 0 {
			out[bin] = math.NaN()
			continue
		}
		f := uc / uTotal
		out[bin] = c / f
		any = true
	}
	return out, any
}

// averageCurves pointwise-averages curves produced from the same binning
// (they differ in the α reference and therefore in which slots were
// pooled). NaN raw entries are skipped per bin; a bin is valid when it is
// valid under every reference.
func averageCurves(cs []*Curve) *Curve {
	first := cs[0]
	if len(cs) == 1 {
		return first
	}
	n := len(first.NLP)
	out := &Curve{
		BinCenters:  first.BinCenters,
		ReferenceMS: first.ReferenceMS,
		BiasedN:     first.BiasedN,
		UnbiasedN:   first.UnbiasedN,
		Biased:      make([]float64, n),
		Unbiased:    make([]float64, n),
		Raw:         make([]float64, n),
		Smoothed:    make([]float64, n),
		NLP:         make([]float64, n),
		Valid:       make([]bool, n),
	}
	for i := 0; i < n; i++ {
		var rawSum float64
		rawN := 0
		out.Valid[i] = true
		for _, c := range cs {
			out.Biased[i] += c.Biased[i] / float64(len(cs))
			out.Unbiased[i] += c.Unbiased[i] / float64(len(cs))
			out.Smoothed[i] += c.Smoothed[i] / float64(len(cs))
			out.NLP[i] += c.NLP[i] / float64(len(cs))
			out.Valid[i] = out.Valid[i] && c.Valid[i]
			if !math.IsNaN(c.Raw[i]) {
				rawSum += c.Raw[i]
				rawN++
			}
		}
		if rawN > 0 {
			out.Raw[i] = rawSum / float64(rawN)
		} else {
			out.Raw[i] = math.NaN()
		}
	}
	return out
}
