package core

import (
	"errors"
	"math"
	"sort"
	"sync"

	"autosens/internal/histogram"
	"autosens/internal/parallel"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// Draw is one unbiased-sampling pick: the uniformly random instant chosen
// and the latency of the telemetry sample nearest to it.
type Draw struct {
	At        timeutil.Millis
	LatencyMS float64
}

// UnbiasedDraws exposes the unbiased sampling of Section 2.2 for
// inspection (Figure 3(a) of the paper illustrates it): n uniformly random
// instants over the span of the time-sorted columns, each paired with the
// latency of the nearest sample. The instants are drawn and swept as every
// estimate's are (drawKeys, sweepNearest), so they are the draws the
// unbiased distribution is built from. The result is sorted by draw time.
func UnbiasedDraws(times []timeutil.Millis, lats []float64, n int, seed uint64) ([]Draw, error) {
	if err := checkColumns(times, lats); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errNonPositiveDraws
	}
	lo := times[0]
	keys := make([]uint64, n)
	auxSeed := drawKeys(rng.New(seed), uint64(times[len(times)-1]+1-lo), keys, nil, false)
	out := make([]Draw, n)
	for k, key := range keys {
		out[k].At = lo + timeutil.Millis(key)
	}
	sweepNearest(times, lo, keys, 0, allDraws, 0,
		func(j0, k0 int, counts []uint64) {
			for i, c := range counts {
				for ; c > 0; c-- {
					out[k0].LatencyMS = lats[j0+i]
					k0++
				}
			}
		},
		func(rank, k, j int, t timeutil.Millis) {
			out[k].LatencyMS = lats[pickAt(times, j, t, rng.Mix64(auxSeed+uint64(rank)))]
		})
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
// Each draw is a uniform random instant that adopts the nearest sample's
// latency, ties broken uniformly at random, and the work is batched: all n
// instants are drawn up front (drawKeys), sorted once, and merged against
// the sorted sample times in one linear pass (sweepNearest) — a radix sort
// plus O(n + m) sequential work in place of n scattered binary searches.
// That per-draw form lives on only in the tests, as the distributional
// reference the sweep is checked against.
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

// midpoint reports whether the instant t is equally near records j-1 and j.
func midpoint(times []timeutil.Millis, j int, t timeutil.Millis) bool {
	return j > 0 && t-times[j-1] == times[j]-t
}

// pickAt resolves a draw at instant t that consumes tie-break randomness, j
// being the record it stays on (nearestFrom), from the draw's aux word: at
// an exact midpoint with record j-1 the word's top bit picks the side, and
// the word modulo the run size picks within the chosen sample's
// equal-timestamp run.
func pickAt(times []timeutil.Millis, j int, t timeutil.Millis, aux uint64) int {
	if midpoint(times, j, t) && aux>>63 == 0 {
		j--
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

// allDraws is the quota under which sweepNearest draws every key.
const allDraws = math.MaxUint32

// countPool recycles sweepNearest's batches of per-record counts.
var countPool = sync.Pool{New: func() any { return new([]uint64) }}

// sweepNearest is the package's one nearest-sample kernel: every unbiased
// draw of Section 2.2 adopts the sample nearest its instant lo+offset, and
// every sweep of sorted draw keys against time-sorted samples runs here. It
// reports the drawn keys as
//
//   - add(j0, k0, counts): counts[i] draws adopt record j0+i for certain;
//     the first of them is keys[k0], and with nothing filtered they are the
//     keys from k0 on, in record order. counts is valid during the call.
//   - tie(rank, k, j, t): the draw keys[k], at instant t, consumes
//     tie-break randomness (pickAt resolves it), j being the record it
//     stays on (nearestFrom) and rank its rank among the drawn keys, from
//     rank0.
//
// With tag = 32 the keys are drawKeys' offset<<32 | generation and only
// generations below quota are drawn; with tag = 0 every key is an offset,
// and drawn (pass allDraws).
//
// It walks the records once. A key at instant t stays on record j while
// 2t < t_j + t_{j+1}, so record j holds the keys below one bound, counted
// eight at a time without a branch on the data. Each record's count is
// added once, in batches; only records in an equal-timestamp run, or whose
// first key sits on an exact midpoint, take the tie path key by key. Every
// count is an integer in float64, so adding per record gives the bits of
// adding per draw in any order.
func sweepNearest(times []timeutil.Millis, lo timeutil.Millis, keys []uint64, tag uint, quota uint32, rank0 int,
	add func(j0, k0 int, counts []uint64), tie func(rank, k, j int, t timeutil.Millis)) {
	if len(keys) == 0 || len(times) == 0 {
		return
	}
	last := len(times) - 1
	at := func(k uint64) timeutil.Millis { return lo + timeutil.Millis(k>>tag) }
	// The generation, shifted into the low word (none untagged).
	drawn := func(k uint64) bool { return uint32(k<<(32-tag)) < quota }
	masked := tag != 0 && quota != allDraws
	cp := countPool.Get().(*[]uint64)
	defer countPool.Put(cp)
	counts := extend((*cp)[:0], countBatch)[:0]
	*cp = counts

	j := nearestFrom(times, 0, at(keys[0]))
	p, rank := 0, rank0 // the first key of record j, its rank if drawn
	j0, k0 := j, p      // the first record in counts, its first key
	flush := func() {
		if len(counts) > 0 {
			add(j0, k0, counts)
			counts = counts[:0]
		}
	}
	for ; p < len(keys); j++ {
		u := len(keys) - p // the keys on record j: all that are left on the last
		if j < last {
			u = keysBelow(keys[p:], stayBound(times[j], times[j+1], lo, tag))
		}
		// Branch-free: whether record j is in a run or its first key sits
		// on the midpoint with record j-1 (a key past the end, when j has
		// none, answers anything: u = 0 discards it).
		prev, next, tj := max(j-1, 0), min(j+1, last), times[j]
		t := at(keys[min(p, len(keys)-1)])
		run := b2u(j > 0)&b2u(times[prev] == tj) | b2u(j < last)&b2u(times[next] == tj)
		if b2u(u != 0)&(run|b2u(j > 0)&b2u(t-times[prev] == tj-t)) == 0 {
			m := uint64(u)
			if masked {
				m = 0
				for _, k := range keys[p : p+u] {
					m += b2u(drawn(k))
				}
			}
			if len(counts) == cap(counts) {
				flush()
			}
			if len(counts) == 0 {
				j0, k0 = j, p
			}
			counts = append(counts, m)
			rank += int(m)
			p += u
			continue
		}
		flush()
		c0, cm := 0, uint64(0)
		for k := p; k < p+u; k++ {
			if !drawn(keys[k]) {
				continue
			}
			if t := at(keys[k]); run != 0 || midpoint(times, j, t) {
				tie(rank, k, j, t)
			} else {
				if cm == 0 {
					c0 = k
				}
				cm++
			}
			rank++
		}
		if cm > 0 {
			add(j, c0, append(counts, cm))
		}
		p += u
	}
	flush()
}

// countBatch is how many records' counts sweepNearest adds at a time.
const countBatch = 512

// stayBound is the bound, in key units, below which a key stays on a record
// at tj rather than the next at tn: 2t < tj + tn for t = lo + key>>tag, so
// key>>tag < ⌈(tj + tn − 2·lo)/2⌉ (instants well inside ±2⁶² ms, as the
// per-draw comparison t − tj < tn − t also needs).
func stayBound(tj, tn, lo timeutil.Millis, tag uint) uint64 {
	c := max((tj+tn-2*lo+1)>>1, 0)
	if uint64(c) > math.MaxUint64>>tag {
		return math.MaxUint64
	}
	return uint64(c) << tag
}

// keysBelow counts the leading sorted keys below bd, eight at a time.
func keysBelow(keys []uint64, bd uint64) int {
	c := 0
	for ; c+8 <= len(keys); c += 8 {
		k := keys[c : c+8 : c+8]
		d := b2u(k[0] < bd) + b2u(k[1] < bd) + b2u(k[2] < bd) + b2u(k[3] < bd) +
			b2u(k[4] < bd) + b2u(k[5] < bd) + b2u(k[6] < bd) + b2u(k[7] < bd)
		if d < 8 {
			return c + int(d)
		}
	}
	for c < len(keys) && keys[c] < bd {
		c++
	}
	return c
}

// nearestFrom returns the record at or after j0 that the instant t stays
// on: the first one nearer to t than the next record is (the right one at
// an exact midpoint), or the last. It gallops out from j0, so a scan that
// moves forward pays for the distance it moves.
func nearestFrom(times []timeutil.Millis, j0 int, t timeutil.Millis) int {
	last := len(times) - 1
	on := func(j int) bool { return j == last || t-times[j] < times[j+1]-t }
	step := 1
	for j0+step < last && !on(j0+step) {
		j0, step = j0+step, 2*step
	}
	return j0 + sort.Search(min(step, last-j0), func(j int) bool { return on(j0 + j) })
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// addCounts is an add for sweepNearest that adds (or, with sub, retracts)
// the counted draws into every histogram in hists by the records' latencies.
func addCounts(lats []float64, sub bool, hists ...*histogram.Histogram) func(j0, k0 int, counts []uint64) {
	return func(j0, _ int, counts []uint64) {
		for _, h := range hists {
			if !sub {
				h.AddCounts(lats[j0:], counts)
				continue
			}
			for i, c := range counts {
				if c != 0 {
					h.SubWeighted(lats[j0+i], float64(c))
				}
			}
		}
	}
}

// sweepSortedKeys sweeps sorted draw offsets from lo into every histogram
// in hists: rank0 is the rank keys[0] holds in the whole sorted schedule —
// tie-break randomness is Mix64(auxSeed + rank), so a contiguous piece of a
// schedule swept on its own (the bootstrap's per-block split) adopts exactly
// what the whole sweep adopts there.
func sweepSortedKeys(times []timeutil.Millis, lats []float64, lo timeutil.Millis, keys []uint64, rank0 int, auxSeed uint64, hists ...*histogram.Histogram) {
	sweepNearest(times, lo, keys, 0, allDraws, rank0, addCounts(lats, false, hists...),
		func(rank, _, j int, t timeutil.Millis) {
			v := lats[pickAt(times, j, t, rng.Mix64(auxSeed+uint64(rank)))]
			for _, h := range hists {
				h.Add(v)
			}
		})
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
