package core

import (
	"errors"
	"sort"

	"autosens/internal/histogram"
	"autosens/internal/parallel"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// unbiasedSampler draws latency values for the unbiased distribution U per
// Section 2.2: pick a uniformly random time in the window and adopt the
// latency of the sample nearest in time; when several samples are equally
// near (same timestamp, or an exact midpoint), pick one at random.
type unbiasedSampler struct {
	times     []timeutil.Millis
	latencies []float64
}

// newUnbiasedSampler indexes time-sorted records. The records MUST already
// be sorted by Time.
func newUnbiasedSampler(sorted []telemetry.Record) *unbiasedSampler {
	s := &unbiasedSampler{
		times:     make([]timeutil.Millis, len(sorted)),
		latencies: make([]float64, len(sorted)),
	}
	for i, r := range sorted {
		s.times[i] = r.Time
		s.latencies[i] = r.LatencyMS
	}
	return s
}

// draw picks one unbiased latency for a random time in [lo, hi).
func (s *unbiasedSampler) draw(lo, hi timeutil.Millis, src *rng.Source) float64 {
	t := lo + timeutil.Millis(src.Uint64n(uint64(hi-lo)))
	return s.nearest(t, src)
}

// nearest returns the latency of the sample closest in time to t, breaking
// ties uniformly at random.
func (s *unbiasedSampler) nearest(t timeutil.Millis, src *rng.Source) float64 {
	n := len(s.times)
	idx := sort.Search(n, func(i int) bool { return s.times[i] >= t })
	// Candidate on each side of the insertion point.
	switch {
	case idx == 0:
		return s.pickRun(0, src)
	case idx == n:
		return s.pickRun(n-1, src)
	}
	dRight := s.times[idx] - t
	dLeft := t - s.times[idx-1]
	switch {
	case dLeft < dRight:
		return s.pickRun(idx-1, src)
	case dRight < dLeft:
		return s.pickRun(idx, src)
	default:
		// Exact midpoint: both sides are equally near.
		if src.Bool(0.5) {
			return s.pickRun(idx-1, src)
		}
		return s.pickRun(idx, src)
	}
}

// Draw is one unbiased-sampling pick: the uniformly random instant chosen
// and the latency of the telemetry sample nearest to it.
type Draw struct {
	At        timeutil.Millis
	LatencyMS float64
}

// UnbiasedDraws exposes the unbiased-sampling procedure of Section 2.2 for
// inspection (Figure 3(a) of the paper illustrates it): n uniformly random
// instants over the records' time span, each paired with the latency of
// the nearest sample. Failed records are excluded. The result is sorted by
// draw time.
func UnbiasedDraws(records []telemetry.Record, n int, seed uint64) ([]Draw, error) {
	records = telemetry.Successful(records)
	if len(records) == 0 {
		return nil, errEmptyRecords
	}
	if n <= 0 {
		return nil, errNonPositiveDraws
	}
	telemetry.SortByTime(records)
	s := newUnbiasedSampler(records)
	src := rng.New(seed)
	lo := records[0].Time
	hi := records[len(records)-1].Time + 1
	out := make([]Draw, n)
	for i := range out {
		t := lo + timeutil.Millis(src.Uint64n(uint64(hi-lo)))
		out[i] = Draw{At: t, LatencyMS: s.nearest(t, src)}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out, nil
}

var (
	errEmptyRecords     = errors.New("core: no usable records")
	errNonPositiveDraws = errors.New("core: non-positive draw count")
)

// sweepScratch holds the reusable draw-key buffer (and the radix sort's
// ping-pong twin) for batch unbiased sampling. A nil scratch allocates per
// call.
type sweepScratch struct {
	keys, tmp []uint64
}

func (sc *sweepScratch) buf(n int) (keys []uint64, tmp *[]uint64) {
	if sc == nil {
		return make([]uint64, n), nil
	}
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
	}
	return sc.keys[:n], &sc.tmp
}

// fillUnbiasedSweep accumulates n unbiased draws over [lo, hi) into every
// histogram in hists. times/lats are the time-sorted sample instants and
// their latencies (times MUST be ascending).
//
// Semantically it matches the per-draw path (uniform random instant, adopt
// the nearest sample's latency, break ties uniformly at random) but batches
// the work: all n instants are generated up front, sorted once, and merged
// against the sorted sample times in a single linear sweep. That replaces n
// binary searches with poor cache locality (O(n·log m) scattered probes)
// with one primitive-slice sort plus an O(n + m) sequential pass.
//
// Tie-break randomness is derived per draw from auxSeed and the draw's rank
// with Mix64 rather than consumed from src in nearest-neighbour order, so
// the result is a pure function of (times, lats, lo, hi, n, src state) —
// independent of sweep order, which is what makes the parallel bootstrap
// bit-identical at any worker count.
func fillUnbiasedSweep(times []timeutil.Millis, lats []float64, lo, hi timeutil.Millis, n int, src *rng.Source, sc *sweepScratch, hists ...*histogram.Histogram) {
	if n <= 0 || len(times) == 0 || hi <= lo {
		return
	}
	keys, tmp := sc.buf(n)
	auxSeed := drawKeys(src, uint64(hi-lo), keys, tmp, false)
	sweepSortedKeys(times, lats, lo, keys, 0, auxSeed, hists...)
}

// nearestAt returns the sample nearest in time to the instant t, given idx,
// the first sample at or after t. mid reports an exact midpoint: samples
// idx-1 (the one returned) and idx are equally near, and tie-break
// randomness picks the side.
func nearestAt(times []timeutil.Millis, idx int, t timeutil.Millis) (j int, mid bool) {
	switch {
	case idx == 0:
		return 0, false
	case idx == len(times):
		return idx - 1, false
	}
	dLeft, dRight := t-times[idx-1], times[idx]-t
	switch {
	case dLeft < dRight:
		return idx - 1, false
	case dRight < dLeft:
		return idx, false
	}
	return idx - 1, true
}

// tied reports whether sample j shares its timestamp with a neighbour, so a
// draw adopting it picks within the equal-timestamp run at random.
func tied(times []timeutil.Millis, j int) bool {
	return (j > 0 && times[j-1] == times[j]) || (j+1 < len(times) && times[j+1] == times[j])
}

// pickTied resolves a draw that consumes tie-break randomness, from
// nearestAt's answer and the draw's aux word: the word's top bit picks the
// side of an exact midpoint, the word modulo the run size picks within the
// chosen sample's equal-timestamp run.
func pickTied(times []timeutil.Millis, j int, mid bool, aux uint64) int {
	if mid && aux>>63 != 0 {
		j++
	}
	tj := times[j]
	rLo, rHi := j, j
	for rLo > 0 && times[rLo-1] == tj {
		rLo--
	}
	for rHi+1 < len(times) && times[rHi+1] == tj {
		rHi++
	}
	return rLo + int(aux%uint64(rHi-rLo+1))
}

// sweepSortedKeys is the merge phase of the batch sweep: keys are sorted
// draw offsets from lo, and rank0 is the rank keys[0] holds in the whole
// sorted schedule — tie-break randomness is Mix64(auxSeed + rank), so a
// contiguous piece of a schedule swept on its own (the bootstrap's per-block
// split) adopts exactly what the whole sweep adopts there. It is read-only
// in keys.
//
// Sorted keys adopt samples in non-decreasing order, so consecutive
// tie-free draws landing on one sample are counted and added once with
// their multiplicity — weight-1 adds are integers in float64, so the sum is
// the same bits — instead of paying every histogram's bin lookup per draw.
func sweepSortedKeys(times []timeutil.Millis, lats []float64, lo timeutil.Millis, keys []uint64, rank0 int, auxSeed uint64, hists ...*histogram.Histogram) {
	if len(keys) == 0 || len(times) == 0 {
		return
	}
	nRec := len(times)
	// First sample with times[idx] >= t; monotone over the sweep.
	t0 := lo + timeutil.Millis(keys[0])
	idx := sort.Search(nRec, func(i int) bool { return times[i] >= t0 })
	run, m := 0, 0 // m pending tie-free draws adopting sample run
	for k, key := range keys {
		t := lo + timeutil.Millis(key)
		for idx < nRec && times[idx] < t {
			idx++
		}
		j, mid := nearestAt(times, idx, t)
		if mid || tied(times, j) {
			v := lats[pickTied(times, j, mid, rng.Mix64(auxSeed+uint64(rank0+k)))]
			for _, h := range hists {
				h.Add(v)
			}
			continue
		}
		if j != run && m > 0 {
			for _, h := range hists {
				h.AddWeighted(lats[run], float64(m))
			}
			m = 0
		}
		run = j
		m++
	}
	if m > 0 {
		for _, h := range hists {
			h.AddWeighted(lats[run], float64(m))
		}
	}
}

// splitSweep runs sweep over a sorted schedule of n keys cut into chunks
// contiguous rank ranges, one worker each. The first range sweeps into u and
// *dep themselves, every other one into a histogram and rank list of its own,
// added to them afterwards in rank order — exact, because every weight is an
// integer in float64. One chunk is the plain call.
func (e *Estimator) splitSweep(chunks, n int, u *histogram.Histogram, dep *[]int32, sweep func(i1, i2 int, u *histogram.Histogram, dep *[]int32)) {
	if chunks <= 1 {
		sweep(0, n, u, dep)
		return
	}
	us := make([]*histogram.Histogram, chunks)
	deps := make([][]int32, chunks)
	parallel.ForEach(chunks, chunks, func(w int) {
		uw, dw := u, dep
		if w > 0 {
			uw, dw = e.newHist(), &deps[w]
		}
		sweep(w*n/chunks, (w+1)*n/chunks, uw, dw)
		us[w] = uw
	})
	for w := 1; w < chunks; w++ {
		_ = u.AddHistogram(us[w]) // same binning by construction
		if dep != nil {
			*dep = append(*dep, deps[w]...)
		}
	}
}

// sweepKeys is sweepSortedKeys over a whole sorted schedule, split into
// chunks rank ranges.
func (e *Estimator) sweepKeys(chunks int, times []timeutil.Millis, lats []float64, lo timeutil.Millis, keys []uint64, auxSeed uint64, u *histogram.Histogram) {
	e.splitSweep(chunks, len(keys), u, nil, func(i1, i2 int, u *histogram.Histogram, _ *[]int32) {
		sweepSortedKeys(times, lats, lo, keys[i1:i2], i1, auxSeed, u)
	})
}

// pickRun returns a uniformly random latency among all samples sharing the
// timestamp of index i.
func (s *unbiasedSampler) pickRun(i int, src *rng.Source) float64 {
	t := s.times[i]
	lo, hi := i, i
	for lo > 0 && s.times[lo-1] == t {
		lo--
	}
	for hi+1 < len(s.times) && s.times[hi+1] == t {
		hi++
	}
	if lo == hi {
		return s.latencies[lo]
	}
	return s.latencies[lo+src.Intn(hi-lo+1)]
}
