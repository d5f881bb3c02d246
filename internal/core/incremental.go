package core

import (
	"math"
	"slices"
	"sort"
	"time"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// Incremental is a fully delta-maintained plain NLP estimation: columns,
// biased histogram, unbiased draw schedule AND the unbiased histogram
// itself are all folded forward, so re-estimating after a fold of d records
// costs O(d·log n) maintenance plus curve finishing — not the O(n + draws)
// rescan-and-resweep of the batch path. Finish answers every Request with
// the bytes the stateless (*Estimator).Finish gives over the same columns.
//
// The unbiased histogram decomposes into a maintained "stable" part and a
// small volatile remainder:
//
//   - Every draw whose adopted latency is a deterministic function of the
//     columns (a unique nearest sample, no exact-midpoint tie) contributes
//     to the stable histogram. Folding a record at time t can only change
//     draws whose instants fall between t's old distinct-time neighbours —
//     anything farther already has a strictly closer sample — so the fold
//     subtracts the affected draws' old values and re-adds their new ones.
//     Weight-1 adds and subtracts are exact, so the stable histogram stays
//     bit-identical to a full resweep.
//   - Draws that consume tie-break randomness (exact midpoint, or an
//     equal-timestamp run of samples) depend on the plan's auxSeed, which
//     moves whenever the draw count grows. Their sorted ranks are tracked
//     in auxDep and the draws are re-evaluated per estimate against the
//     current auxSeed — typically a handful on millisecond-resolution data.
//
// When the data is tie-heavy (coarse timestamps put a large fraction of
// draws in auxDep) the per-estimate re-evaluation would approach full-sweep
// cost with worse constants, so the state degrades — permanently, per
// instance — to the batch sweep over the retained key plan. Results are
// identical either way.
//
// An Incremental is single-goroutine state; callers serialize access (the
// live engine pins one behind each combo's single-flight slot).
type Incremental struct {
	e    *Estimator
	sum  Summary
	plan UnbiasedPlan
	sc   Scratch

	stValid   bool // u/auxDep reflect (sum, plan)
	fullSweep bool // degenerate tie-heavy data: batch sweep per estimate
	u         *histogram.Histogram
	auxDep    []int32 // sorted ranks whose draws need per-estimate aux

	// Fold/estimate scratch, retained across calls.
	intervals [][2]uint64
	survivors []int32
	uOut      *histogram.Histogram

	// norm is the time-normalized estimator's per-slot state, built by the
	// first time-normalized Finish (see normState).
	norm *normState
}

// NewIncremental returns an empty delta-maintained estimation.
func (e *Estimator) NewIncremental() *Incremental {
	return &Incremental{
		e:    e,
		sum:  Summary{B: e.newHist()},
		u:    e.newHist(),
		uOut: e.newHist(),
	}
}

// Len returns the number of records folded in.
func (inc *Incremental) Len() int { return inc.sum.Len() }

// Columns exposes the maintained (time, seq)-sorted columns read-only.
func (inc *Incremental) Columns() ([]timeutil.Millis, []float64) {
	return inc.sum.Times, inc.sum.Lats
}

// Summary exposes the maintained summary read-only.
func (inc *Incremental) Summary() *Summary { return &inc.sum }

// Fold merges a (time, seq)-sorted delta of usable records. Deltas that
// keep the observation window unchanged are folded into the sweep state in
// O(d·log n); deltas that move the window (or the first fold) invalidate it
// for lazy rebuild at the next estimate.
func (inc *Incremental) Fold(dTimes []timeutil.Millis, dLats []float64, dSeqs []uint64) error {
	d := Columns{Times: dTimes, Lats: dLats, Seqs: dSeqs}
	if d.Len() == 0 {
		return nil
	}
	n := inc.sum.Len()
	windowKept := n > 0 &&
		d.Times[0] >= inc.sum.Times[0] &&
		d.Times[d.Len()-1] <= inc.sum.Times[n-1]
	if !inc.stValid || inc.fullSweep || !windowKept {
		if err := inc.sum.Fold(d); err != nil {
			return err
		}
		inc.stValid = false
		return nil
	}
	return inc.foldIncremental(d)
}

// foldIncremental updates the stable sweep state for a window-preserving
// delta. Order matters: old draw values are retracted against the OLD
// columns and OLD key schedule, then columns fold and the key schedule
// extends, then affected draws are re-evaluated against the new state.
func (inc *Incremental) foldIncremental(d Columns) error {
	lo := inc.sum.Times[0]
	span := inc.plan.span

	// 1. Affected key intervals [a, b] (inclusive, in offset space): for a
	// delta record at t, only draws between t's old distinct-time
	// neighbours can change assignment, midpoint status, or adopted-run
	// size. Delta times ascend, so intervals merge in one pass.
	inc.intervals = inc.intervals[:0]
	for _, t := range d.Times {
		a, b := neighborInterval(inc.sum.Times, lo, span, t)
		if k := len(inc.intervals); k > 0 && a <= inc.intervals[k-1][1] {
			if b > inc.intervals[k-1][1] {
				inc.intervals[k-1][1] = b
			}
			continue
		}
		inc.intervals = append(inc.intervals, [2]uint64{a, b})
	}

	// 2. OLD PASS: retract affected draws. Aux-independent draws subtract
	// their old adopted value from the stable histogram; aux-dependent
	// ranks inside an interval are consumed (re-classified in the new
	// pass), ranks outside survive with their dependence status intact.
	inc.survivors = inc.survivors[:0]
	dep := 0 // cursor into auxDep
	for _, iv := range inc.intervals {
		i1, i2 := keyRange(inc.plan.sorted, iv[0], iv[1])
		for ; dep < len(inc.auxDep) && int(inc.auxDep[dep]) < i1; dep++ {
			inc.survivors = append(inc.survivors, inc.auxDep[dep])
		}
		for ; dep < len(inc.auxDep) && int(inc.auxDep[dep]) < i2; dep++ {
		}
		classifyKeys(inc.sum.Times, inc.sum.Lats, lo, inc.plan.sorted[i1:i2], i1, inc.u, true, nil)
	}
	inc.survivors = append(inc.survivors, inc.auxDep[dep:]...)

	// 3. Stage the schedule extension for the grown draw count, then shift
	// surviving ranks by the staged keys inserted below them. Survivor
	// ranks ascend, hence so do their key values: one two-pointer pass.
	newDraws := drawCount(inc.sum.Len()+d.Len(), inc.e.opts.UnbiasedPerSample)
	tail := inc.plan.stageExtend(newDraws)
	tp := 0
	for i, r := range inc.survivors {
		v := inc.plan.sorted[r]
		for tp < len(tail) && tail[tp] < v {
			tp++
		}
		inc.survivors[i] = r + int32(tp)
	}

	// 4. Fold columns (+ biased histogram), commit the key merge.
	if err := inc.sum.Fold(d); err != nil {
		return err
	}
	inc.plan.commitExtend()

	// 5. NEW PASS: re-evaluate every key inside the affected intervals —
	// old keys and freshly staged ones alike — against the new columns.
	inc.auxDep = append(inc.auxDep[:0], inc.survivors...)
	for _, iv := range inc.intervals {
		i1, i2 := keyRange(inc.plan.sorted, iv[0], iv[1])
		classifyKeys(inc.sum.Times, inc.sum.Lats, lo, inc.plan.sorted[i1:i2], i1, inc.u, false, &inc.auxDep)
	}

	// 6. Staged keys OUTSIDE every interval land in unchanged
	// neighbourhoods: classify each distinct value's staged keys, which rank
	// after the retained duplicates of it.
	ivp := 0
	for i := 0; i < len(tail); {
		v := tail[i]
		m := 1
		for i+m < len(tail) && tail[i+m] == v {
			m++
		}
		i += m
		for ivp < len(inc.intervals) && inc.intervals[ivp][1] < v {
			ivp++
		}
		if ivp < len(inc.intervals) && inc.intervals[ivp][0] <= v {
			continue // inside an interval: already handled by the new pass
		}
		end := sort.Search(len(inc.plan.sorted), func(j int) bool { return inc.plan.sorted[j] > v })
		start := end - m // staged duplicates sort last
		classifyKeys(inc.sum.Times, inc.sum.Lats, lo, inc.plan.sorted[start:end], start, inc.u, false, &inc.auxDep)
	}
	slices.Sort(inc.auxDep)
	inc.checkDensity()
	return nil
}

// checkDensity degrades to the batch sweep when per-estimate aux
// re-evaluation would rival a full sweep.
func (inc *Incremental) checkDensity() {
	if len(inc.auxDep)*8 > len(inc.plan.sorted) {
		inc.fullSweep = true
		inc.stValid = false
	}
}

// Finish answers req over the folded records with the bytes — curve, band
// or refusal — that (*Estimator).Finish gives over the same columns. Plain
// curves and bands and time-normalized curves are delta-maintained. The
// biased baseline, and time-normalized bands, whose replicates re-partition
// resampled series into slots, run the stateless finisher over the
// maintained columns.
func (inc *Incremental) Finish(req Request) (*CurveCI, error) {
	switch {
	case req.CI:
		return inc.e.finishBand(req, &inc.sum, inc)
	case req.Mode == ModePlain:
		return pointOnly(inc.EstimatePlain())
	case req.Mode == ModeNormalized:
		return pointOnly(inc.estimateTimeNormalized())
	}
	return inc.e.Finish(req, &inc.sum, nil)
}

// EstimatePlain computes the plain pooled NLP curve over the folded
// records: Finish for a plain point estimate.
func (inc *Incremental) EstimatePlain() (*Curve, error) {
	defer observeEstimate(time.Now())
	n := inc.sum.Len()
	if n == 0 {
		return nil, errEmptyRecords
	}
	e := inc.e
	sp := e.trace.StartChild("estimate_incremental")
	defer sp.End()
	sp.SetAttr("records", n)

	lo := inc.sum.Times[0]
	hi := inc.sum.Times[n-1] + 1
	draws := drawCount(n, e.opts.UnbiasedPerSample)
	chunks := e.keyChunks(draws)
	inc.plan.update(e.opts.Seed, uint64(hi-lo), draws, chunks)
	sp.SetAttr("key_chunks", chunks)
	sp.SetAttr("stream_fallback", inc.plan.fallback)
	if inc.stValid && inc.plan.reused == 0 && draws > 0 {
		inc.stValid = false // plan regenerated under us: seed or span moved
	}

	if !inc.stValid && !inc.fullSweep {
		inc.rebuildSweep(chunks)
	}
	if inc.fullSweep {
		u := inc.sc.unbiased(e)
		e.sweepKeys(chunks, inc.sum.Times, inc.sum.Lats, lo, inc.plan.sorted, inc.plan.auxSeed, u)
		sp.SetAttr("sweep", "full")
		return e.finishCurve(sp, inc.sum.B, u, n, draws)
	}

	// Stable histogram + the volatile aux-dependent remainder.
	if err := inc.uOut.CopyFrom(inc.u); err != nil {
		return nil, err
	}
	// The tie-broken draws, resolved with the current seed on the records
	// the kernel finds for them, one forward scan over the ranks.
	j := 0
	for _, r := range inc.auxDep {
		t := lo + timeutil.Millis(inc.plan.sorted[r])
		j = nearestFrom(inc.sum.Times, j, t)
		inc.uOut.Add(inc.sum.Lats[pickAt(inc.sum.Times, j, t, rng.Mix64(inc.plan.auxSeed+uint64(r)))])
	}
	sp.SetAttr("aux_dep", len(inc.auxDep))
	return e.finishCurve(sp, inc.sum.B, inc.uOut, n, draws)
}

// rebuildSweep classifies the full schedule from scratch (first estimate,
// or a fold that moved the observation window), in chunks rank ranges.
func (inc *Incremental) rebuildSweep(chunks int) {
	if len(inc.plan.sorted) > math.MaxInt32 {
		inc.fullSweep = true
		return
	}
	inc.u.Reset()
	inc.auxDep = inc.auxDep[:0]
	times, lats, keys := inc.sum.Times, inc.sum.Lats, inc.plan.sorted
	inc.e.splitSweep(chunks, len(keys), inc.u, &inc.auxDep, func(i1, i2 int, u *histogram.Histogram, dep *[]int32) {
		classifyKeys(times, lats, times[0], keys[i1:i2], i1, u, false, dep)
	})
	inc.stValid = true
	inc.checkDensity()
}

// neighborInterval returns the inclusive offset interval [a, b] bounded by
// t's distinct-time neighbours in the sorted column (window edges clamp to
// the full span). Every draw whose assignment the insertion of t can change
// lies within it.
func neighborInterval(times []timeutil.Millis, lo timeutil.Millis, span uint64, t timeutil.Millis) (a, b uint64) {
	i := sort.Search(len(times), func(j int) bool { return times[j] >= t })
	if i > 0 {
		a = uint64(times[i-1] - lo)
	}
	j := sort.Search(len(times), func(k int) bool { return times[k] > t })
	if j < len(times) {
		b = uint64(times[j] - lo)
	} else {
		b = span - 1
	}
	return a, b
}

// keyRange returns the half-open index range of sorted keys within the
// inclusive value interval [a, b].
func keyRange(keys []uint64, a, b uint64) (int, int) {
	i1 := sort.Search(len(keys), func(i int) bool { return keys[i] >= a })
	i2 := sort.Search(len(keys), func(i int) bool { return keys[i] > b })
	return i1, i2
}

// classifyKeys sweeps sorted draw keys, the first of rank rank0, into the
// stable state: draws that adopt a record for certain are added to u (or,
// with sub, retracted from it) once per record, and the ranks of draws that
// consume tie-break randomness are appended to *dep (nil drops them) — the
// caller resolves those when the aux seed is known.
func classifyKeys(times []timeutil.Millis, lats []float64, lo timeutil.Millis, keys []uint64, rank0 int, u *histogram.Histogram, sub bool, dep *[]int32) {
	sweepNearest(times, lo, keys, 0, allDraws, rank0, addCounts(lats, sub, u),
		func(rank, _, _ int, _ timeutil.Millis) {
			if dep != nil {
				*dep = append(*dep, int32(rank))
			}
		})
}

// RetainedBytes approximates the heap the state holds between estimates:
// the folded columns (with their retired merge buffers), the draw-key
// schedule, the sweep bookkeeping and, once asked for, the time-normalized
// slot tables. The live engine bounds its windowed states by this figure;
// fixed-size histograms are counted by bin.
func (inc *Incremental) RetainedBytes() int {
	s := &inc.sum
	n := 8 * (cap(s.Times) + cap(s.Lats) + cap(s.Seqs) +
		cap(s.spare.Times) + cap(s.spare.Lats) + cap(s.spare.Seqs))
	n += inc.plan.RetainedBytes() + inc.sc.RetainedBytes()
	n += 4*(cap(inc.auxDep)+cap(inc.survivors)) + 16*cap(inc.intervals)
	n += 8 * 3 * inc.u.Bins() // B, u, uOut
	if inc.norm != nil {
		n += inc.norm.retainedBytes()
	}
	return n
}
