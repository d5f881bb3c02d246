package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// tieRows is n time-sorted rows from seed with heavy timestamp ties and
// even and odd gaps, and integer latencies below 32.
func tieRows(seed uint64, n int) ([]timeutil.Millis, []float64) {
	gaps := [8]timeutil.Millis{0, 0, 0, 1, 2, 3, 4, 10}
	src := rng.New(seed)
	times, lats := make([]timeutil.Millis, n), make([]float64, n)
	t := timeutil.Millis(1000)
	for i := range times {
		t += gaps[src.Intn(len(gaps))]
		times[i], lats[i] = t, float64(src.Intn(32))
	}
	return times, lats
}

// midpointAfter is the exact midpoint of the first even gap between rows at
// or after row i.
func midpointAfter(times []timeutil.Millis, i int) timeutil.Millis {
	for ; ; i++ {
		if d := times[i+1] - times[i]; d > 0 && d%2 == 0 {
			return times[i] + d/2
		}
	}
}

// union is the length of ivs and each interval's offset in it.
func union(ivs []interval) (total timeutil.Millis, starts []timeutil.Millis) {
	for _, iv := range ivs {
		starts = append(starts, total)
		total += iv.hi - iv.lo
	}
	return total, starts
}

// TestSweepIntervalsMatchesReference holds sweepIntervals to the per-draw
// reference (nearestAt, pickTied) key by key, with each key's global rank as
// its tie-break rank, over a union of intervals with tie-heavy rows: one
// starting before the first row, one starting on a row's instant and ending
// on an exact midpoint, one left with no keys, and one starting on an exact
// midpoint and ending after the last row. The histograms must agree bit for
// bit.
func TestSweepIntervalsMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		times, lats := tieRows(seed, 3000)
		n := len(times)
		m1 := midpointAfter(times, n/3)
		m2 := midpointAfter(times, n/2)
		m3 := midpointAfter(times, 2*n/3)
		ivs := []interval{
			{times[0] - 25, times[n/10]},
			{times[n/5], m1},
			{m2, m2 + 40}, // emptied below
			{m3, times[n-1] + 30},
		}
		total, starts := union(ivs)
		keys := make([]uint64, 4*n)
		auxSeed := drawKeys(rng.New(seed), uint64(total), keys, nil, false)
		empty := func(k uint64) bool {
			return k >= uint64(starts[2]) && k < uint64(starts[2]+ivs[2].hi-ivs[2].lo)
		}
		before := len(keys)
		keys = slices.DeleteFunc(keys, empty)
		if len(keys) == before {
			t.Fatalf("seed %d: no keys fell in the interval to empty", seed)
		}

		want := histogram.MustNew(0, 32, 1)
		lateTies := 0
		for rank, k := range keys {
			i := sort.Search(len(starts), func(i int) bool { return starts[i] > timeutil.Millis(k) }) - 1
			at := ivs[i].lo + timeutil.Millis(k) - starts[i]
			idx := sort.Search(n, func(r int) bool { return times[r] >= at })
			j, mid := nearestAt(times, idx, at)
			if mid || tied(times, j) {
				j = pickTied(times, j, mid, rng.Mix64(auxSeed+uint64(rank)))
				if i > 0 {
					lateTies++
				}
			}
			want.Add(lats[j])
		}
		if lateTies == 0 {
			t.Fatalf("seed %d: no tie-path draw past the first interval; ranks go unchecked", seed)
		}

		got := histogram.MustNew(0, 32, 1)
		sweepIntervals(times, lats, ivs, keys, auxSeed, got)
		for b := 0; b < want.Bins(); b++ {
			if math.Float64bits(got.Count(b)) != math.Float64bits(want.Count(b)) {
				t.Fatalf("seed %d: bin %d holds %v draws, want %v", seed, b, got.Count(b), want.Count(b))
			}
		}
		if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
			t.Fatalf("seed %d: total %v, want %v", seed, got.Total(), want.Total())
		}
	}
}

// TestSweepIntervalsMatchesPerDrawDistribution checks sweepIntervals over an
// 8-interval union against the per-draw reference (intervalSampler's
// instants, unbiasedSampler's nearest sample): a two-sample KS statistic
// over the binned CDFs must stay under the large-sample 1% critical value.
func TestSweepIntervalsMatchesPerDrawDistribution(t *testing.T) {
	src := rng.New(98)
	var times []timeutil.Millis
	var lats []float64
	tms := timeutil.Millis(0)
	for i := 0; i < 4000; i++ {
		tms += timeutil.Millis(src.Exp(1.0/3000.0)) + 1
		lat := src.LogNormal(math.Log(400), 0.5)
		times, lats = append(times, tms), append(lats, lat)
		if i%7 == 0 { // duplicate timestamps exercise the tie-break path
			times, lats = append(times, tms), append(lats, lat*2)
		}
	}
	// Eight intervals of growing length with gaps between them, the first
	// starting before the first sample and the last ending after the last.
	var ivs []interval
	step := (times[len(times)-1] - times[0]) / 8
	for i := 0; i < 8; i++ {
		lo := times[0] - step/4 + timeutil.Millis(i)*step
		ivs = append(ivs, interval{lo, lo + step/4 + timeutil.Millis(i)*step/8})
	}
	ivs[7].hi = times[len(times)-1] + step/4
	total, _ := union(ivs)
	const n = 120000

	e, err := NewEstimator(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perDraw := e.newHist()
	s, instants := &unbiasedSampler{times: times, latencies: lats}, newIntervalSampler(ivs)
	src1 := rng.New(5)
	for k := 0; k < n; k++ {
		perDraw.Add(s.nearest(instants.draw(src1), src1))
	}
	sweep := e.newHist()
	keys := make([]uint64, n)
	auxSeed := drawKeys(rng.New(5), uint64(total), keys, nil, false)
	sweepIntervals(times, lats, ivs, keys, auxSeed, sweep)

	f1, err := perDraw.Fractions()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := sweep.Fractions()
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2, ks float64
	for i := range f1 {
		c1 += f1[i]
		c2 += f2[i]
		ks = max(ks, math.Abs(c1-c2))
	}
	// Two-sample KS critical value at alpha=0.01 for equal sample sizes.
	if crit := 1.63 * math.Sqrt(2.0/float64(n)); ks > crit {
		t.Fatalf("KS statistic %v exceeds critical value %v: the interval sweep is not distributionally faithful", ks, crit)
	}
}
