package core

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"testing"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

func smallCIOptions() CIOptions {
	o := DefaultCIOptions()
	o.Resamples = 12
	return o
}

func TestCIOptionsValidate(t *testing.T) {
	if err := DefaultCIOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*CIOptions){
		func(o *CIOptions) { o.Resamples = 1 },
		func(o *CIOptions) { o.BlockLen = 0 },
		func(o *CIOptions) { o.Confidence = 0 },
		func(o *CIOptions) { o.Confidence = 1 },
		func(o *CIOptions) { o.MinSupport = 1.5 },
		func(o *CIOptions) { o.Workers = -1 },
	}
	for i, mut := range mutations {
		o := DefaultCIOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestEstimateCIBasics(t *testing.T) {
	records := confoundedRecords(51)
	e := testEstimator(t, nil)
	ci, err := e.EstimateCI(records, smallCIOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ci.Replicates < 10 {
		t.Fatalf("only %d replicates succeeded", ci.Replicates)
	}
	// The point estimate must lie inside (or at least near) the band
	// wherever the band is defined; bounds must be ordered.
	inside, total := 0, 0
	for i := range ci.NLP {
		lo, hi := ci.Lower[i], ci.Upper[i]
		if math.IsNaN(lo) || math.IsNaN(hi) {
			continue
		}
		if lo > hi {
			t.Fatalf("bounds inverted at bin %d: [%v, %v]", i, lo, hi)
		}
		total++
		if ci.NLP[i] >= lo-0.1 && ci.NLP[i] <= hi+0.1 {
			inside++
		}
	}
	if total == 0 {
		t.Fatal("no bin has a confidence band")
	}
	if float64(inside)/float64(total) < 0.8 {
		t.Fatalf("point estimate outside band in %d of %d bins", total-inside, total)
	}
}

func TestEstimateCIBoundsAccessor(t *testing.T) {
	records := confoundedRecords(52)
	e := testEstimator(t, nil)
	ci, err := e.EstimateCI(records, smallCIOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := ci.Bounds(400)
	if !ok {
		t.Fatal("no band at a well-supported latency")
	}
	if !(lo <= hi) {
		t.Fatalf("Bounds(400) = [%v, %v]", lo, hi)
	}
}

func TestEstimateCIWindowTooShort(t *testing.T) {
	e := testEstimator(t, nil)
	// All records inside one block: cannot bootstrap blocks.
	rs := confoundedRecords(53)
	opts := smallCIOptions()
	opts.BlockLen = 365 * timeutil.MillisPerDay
	if _, err := e.EstimateCI(rs, opts); !errors.Is(err, ErrUnderIdentified) {
		t.Fatalf("single-block window: %v, want an ErrUnderIdentified refusal", err)
	}
}

func TestEstimateCIDeterministic(t *testing.T) {
	records := confoundedRecords(54)
	e := testEstimator(t, nil)
	a, err := e.EstimateCI(records, smallCIOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.EstimateCI(records, smallCIOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Lower {
		al, bl := a.Lower[i], b.Lower[i]
		if math.IsNaN(al) != math.IsNaN(bl) || (!math.IsNaN(al) && al != bl) {
			t.Fatalf("CI not deterministic at bin %d", i)
		}
	}
}

func TestEstimateCIWiderAtTail(t *testing.T) {
	// Sparse high-latency bins should carry wider (or absent) bands than
	// the well-populated core around the latency mode.
	records := confoundedRecords(55)
	e := testEstimator(t, nil)
	ci, err := e.EstimateCI(records, smallCIOptions())
	if err != nil {
		t.Fatal(err)
	}
	width := func(ms float64) float64 {
		lo, hi, ok := ci.Bounds(ms)
		if !ok {
			return math.Inf(1) // absent band counts as widest
		}
		return hi - lo
	}
	if width(400) > width(900) {
		t.Fatalf("band at mode (%v) wider than tail (%v)", width(400), width(900))
	}
}

// sameCounts requires two histograms to hold bitwise-identical counts.
func sameCounts(t *testing.T, what string, got, want *histogram.Histogram) {
	t.Helper()
	g, w := got.Counts(), want.Counts()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: bin %d holds %v, want %v", what, i, g[i], w[i])
		}
	}
	if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
		t.Fatalf("%s: total %v, want %v", what, got.Total(), want.Total())
	}
}

// TestBlockSumsEqualPointEstimate pins the identities the block-sum
// bootstrap rests on: splitting the point estimate's own draw schedule at
// the block edges loses and invents nothing, so the per-block histograms sum
// to the point estimate's B and U bit for bit — on millisecond times and on
// second-resolution times where most draws consume tie-break randomness (the
// global ranks must survive the split), with a block that holds no record
// and a partial last block.
func TestBlockSumsEqualPointEstimate(t *testing.T) {
	e := testEstimator(t, nil)
	const blockLen = timeutil.MillisPerHour
	for _, tc := range []struct {
		name string
		res  timeutil.Millis
	}{{"millisecond", 1}, {"second, tie-heavy", 1000}} {
		t.Run(tc.name, func(t *testing.T) {
			// 5.5 hours of records with hour 2 left empty.
			src := rng.New(61)
			horizon := 5*timeutil.MillisPerHour + timeutil.MillisPerHour/2
			var times []timeutil.Millis
			for len(times) < 6000 {
				tm := timeutil.Millis(src.Uint64n(uint64(horizon/tc.res))) * tc.res
				if tm/blockLen != 2 {
					times = append(times, tm)
				}
			}
			times = append(times, 0, horizon-tc.res)
			lats := make([]float64, len(times))
			for i := range lats {
				lats[i] = 50 + 2500*src.Float64()
			}
			sort.Sort(&colSorter{times, lats, make([]uint64, len(times))})
			n := len(times)

			wantB, wantU := e.newHist(), e.newHist()
			for _, v := range lats {
				wantB.Add(v)
			}
			draws := drawCount(n, e.opts.UnbiasedPerSample)
			fillUnbiasedSweep(times, lats, times[0], times[n-1]+1, draws, rng.New(e.opts.Seed), nil, wantU)

			bb, err := partitionBlocks(times, lats, blockLen)
			if err != nil {
				t.Fatal(err)
			}
			if len(bb.ranges) != 6 {
				t.Fatalf("%d blocks, want 6 (five whole hours and a partial one)", len(bb.ranges))
			}
			if r := bb.ranges[2]; r[0] != r[1] {
				t.Fatalf("block 2 holds %d records, want none", r[1]-r[0])
			}
			keys := make([]uint64, draws)
			auxSeed := drawKeys(rng.New(e.opts.Seed), uint64(times[n-1]+1-times[0]), keys, nil, false)
			e.sumBlocks(bb, keys, auxSeed)

			gotB, gotU := e.newHist(), e.newHist()
			records := 0
			for blk, r := range bb.ranges {
				if err := gotB.AddHistogram(bb.b[blk]); err != nil {
					t.Fatal(err)
				}
				if err := gotU.AddHistogram(bb.u[blk]); err != nil {
					t.Fatal(err)
				}
				if bb.b[blk].Total() != float64(r[1]-r[0]) {
					t.Fatalf("block %d: B holds %v, its range %d records", blk, bb.b[blk].Total(), r[1]-r[0])
				}
				records += r[1] - r[0]
			}
			if records != n {
				t.Fatalf("blocks hold %d records, want %d", records, n)
			}
			// The empty block still owns the draws whose instants fall in it:
			// they adopt neighbours across its edges.
			if bb.u[2].Total() == 0 {
				t.Fatal("the record-free block received no draws")
			}
			sameCounts(t, "sum of block B", gotB, wantB)
			sameCounts(t, "sum of block U", gotU, wantU)
			if gotU.Total() != float64(draws) {
				t.Fatalf("block U histograms hold %v draws, want %d", gotU.Total(), draws)
			}

			// And so the batch bootstrap's point curve is the plain estimate's.
			opts := smallCIOptions()
			opts.BlockLen = blockLen
			ci, err := e.Finish(bandRequest(opts), summaryOf(times, lats), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pointOf(e.Finish(Request{}, summaryOf(times, lats), nil))
			if err != nil {
				t.Fatal(err)
			}
			curvesEqual(t, "ci point vs plain point", want, ci.Curve)
		})
	}
}

// TestEstimateCISkipsEmptyReplicates pins how a replicate whose picks all
// land on record-free blocks is treated: skipped and counted out, one by
// one — found here by replaying the pick streams.
func TestEstimateCISkipsEmptyReplicates(t *testing.T) {
	e := testEstimator(t, nil)
	// Ten hour-long blocks, records in the first and the last only.
	src := rng.New(71)
	const numBlocks = 10
	times := []timeutil.Millis{0} // blocks count from the first record
	for i := 0; i < 3000; i++ {
		tm := timeutil.Millis(src.Uint64n(uint64(timeutil.MillisPerHour)))
		if i%2 == 1 {
			tm += (numBlocks - 1) * timeutil.MillisPerHour
		}
		times = append(times, tm)
	}
	lats := make([]float64, len(times))
	for i := range lats {
		lats[i] = 50 + 2500*src.Float64()
	}
	sort.Sort(&colSorter{times, lats, make([]uint64, len(times))})

	opts := DefaultCIOptions()
	opts.BlockLen = timeutil.MillisPerHour
	empty := 0
	base := rng.New(opts.Seed)
	for rep := 0; rep < opts.Resamples; rep++ {
		picks := base.Split(uint64(rep))
		n := 0
		for pos := 0; pos < numBlocks; pos++ {
			if pick := picks.Intn(numBlocks); pick == 0 || pick == numBlocks-1 {
				n++
			}
		}
		if n == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no replicate picks only record-free blocks; the fixture tests nothing")
	}
	ci, err := e.Finish(bandRequest(opts), summaryOf(times, lats), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Replicates != opts.Resamples-empty {
		t.Fatalf("%d replicates counted, want %d (%d of %d pick no record)",
			ci.Replicates, opts.Resamples-empty, empty, opts.Resamples)
	}
}

// TestEstimateCIIncrementalAllocations bounds what a ci=1 re-query
// allocates: per-block and per-replicate histograms and curves, O((blocks +
// resamples) × bins) — nothing that grows with the record count.
func TestEstimateCIIncrementalAllocations(t *testing.T) {
	e := testEstimator(t, nil)
	opts := DefaultCIOptions()
	opts.Workers = 1
	requery := func(n int) uint64 {
		g := newIncStream(29, 2*timeutil.MillisPerDay, 0)
		inc := e.NewIncremental()
		if err := inc.Fold(g.initial(n)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		// The first folds may still grow the retained schedule's capacity;
		// the third re-query is the steady state.
		for i := 0; i < 3; i++ {
			if err := inc.Fold(g.delta(1)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if _, err := inc.Finish(bandRequest(opts)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := requery(4000), requery(32000)
	t.Logf("ci re-query allocates %d B at 4k records, %d B at 32k", small, large)
	bins := e.newHist().Bins()
	if limit := uint64(24 * 8 * bins * (opts.Resamples + 2*8)); large > limit {
		t.Fatalf("re-query over 32k records allocates %d B, over the O((blocks+resamples)×bins) bound %d", large, limit)
	}
	if large > small+small/10 {
		t.Fatalf("re-query allocation grows with the record count: %d B at 4k records, %d B at 32k", small, large)
	}
}
