package core

import (
	"fmt"
	"slices"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// benchWorkload synthesizes the fixed estimator benchmark workload: four
// days of confounded traffic (busy/slow days, quiet/fast nights), ~65k
// records. The same seed is used everywhere so ns/op values are comparable
// across commits (see BENCH_core.json).
func benchWorkload() []telemetry.Record {
	src := rng.New(77)
	day := func(tm timeutil.Millis) bool {
		h := timeutil.HourOfDay(tm, 0)
		return h >= 8 && h < 20
	}
	return genBenchRecords(src, 4*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 {
			if day(tm) {
				return 550
			}
			return 280
		}, 0.45,
		func(tm timeutil.Millis) float64 {
			if day(tm) {
				return 20
			}
			return 2.5
		})
}

// genBenchRecords mirrors genRecords but lives here so benchmarks do not
// depend on test helpers ordering.
func genBenchRecords(src *rng.Source, horizon timeutil.Millis, latMedian func(timeutil.Millis) float64, sigma float64, ratePerMin func(timeutil.Millis) float64) []telemetry.Record {
	var out []telemetry.Record
	for m := timeutil.Millis(0); m < horizon; m += timeutil.MillisPerMinute {
		n := src.Poisson(ratePerMin(m))
		for i := 0; i < n; i++ {
			tt := m + timeutil.Millis(src.Intn(int(timeutil.MillisPerMinute)))
			lat := latMedian(tt) * src.LogNormal(0, sigma)
			out = append(out, mkRec(tt, lat))
		}
	}
	telemetry.SortByTime(out)
	return out
}

var benchRecs []telemetry.Record

func benchRecords(b *testing.B) []telemetry.Record {
	b.Helper()
	if benchRecs == nil {
		benchRecs = benchWorkload()
	}
	return benchRecs
}

func benchEstimator(b *testing.B) *Estimator {
	b.Helper()
	o := DefaultOptions()
	o.ReferenceMS = 300
	e, err := NewEstimator(o)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchCIOpts() CIOptions {
	o := DefaultCIOptions()
	o.Resamples = 16
	return o
}

// BenchmarkEstimate measures the pooled (no-α) estimator end to end.
func BenchmarkEstimate(b *testing.B) {
	records := benchRecords(b)
	e := benchEstimator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Estimate(records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateTimeNormalized measures the full method (slotting, α
// normalization over rotating references, averaging).
func BenchmarkEstimateTimeNormalized(b *testing.B) {
	records := benchRecords(b)
	e := benchEstimator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EstimateTimeNormalized(records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalNormalized is the delta-maintained counterpart of
// BenchmarkEstimateTimeNormalized over the same workload: fold the next
// five records past the data clock (the advancing arrival order — the last
// slot's bounds and every slot's quota move) and re-estimate from the
// retained slot tables.
func BenchmarkIncrementalNormalized(b *testing.B) {
	records := benchRecords(b)
	e := benchEstimator(b)
	times, lats := UsableColumns(records)
	seqs := make([]uint64, len(times))
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	inc := e.NewIncremental()
	if err := inc.Fold(times, lats, seqs); err != nil {
		b.Fatal(err)
	}
	if _, err := inc.Finish(Request{Mode: ModeNormalized}); err != nil {
		b.Fatal(err)
	}
	const batch = 5
	now, seq := times[len(times)-1], uint64(len(times))
	dt, dl, ds := make([]timeutil.Millis, batch), make([]float64, batch), make([]uint64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range dt {
			now += 3000
			seq++
			dt[k], dl[k], ds[k] = now, lats[(i*batch+k)%len(lats)], seq
		}
		if err := inc.Fold(dt, dl, ds); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Finish(Request{Mode: ModeNormalized}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalAdvancing is the plain dirty query under an advancing
// clock at the node's scale: 275 k records over six days, fold five records
// past the data clock, re-estimate. Every fold moves the span, so each
// estimate redraws, re-sorts and re-sweeps the whole 550 k-key schedule —
// split over the estimator's workers (GOMAXPROCS), into retained buffers.
func BenchmarkIncrementalAdvancing(b *testing.B) {
	const n, batch = 275_000, 5
	e := benchEstimator(b)
	src := rng.New(41)
	times := make([]timeutil.Millis, n)
	lats := make([]float64, n)
	seqs := make([]uint64, n)
	for i := range times {
		times[i] = timeutil.Millis(src.Uint64n(uint64(6 * timeutil.MillisPerDay)))
	}
	slices.Sort(times)
	for i := range lats {
		lats[i] = 280 * src.LogNormal(0, 0.45)
		seqs[i] = uint64(i + 1)
	}
	inc := e.NewIncremental()
	if err := inc.Fold(times, lats, seqs); err != nil {
		b.Fatal(err)
	}
	if _, err := inc.EstimatePlain(); err != nil {
		b.Fatal(err)
	}
	now, seq := times[n-1], uint64(n)
	dt, dl, ds := make([]timeutil.Millis, batch), make([]float64, batch), make([]uint64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range dt {
			now += 3000
			seq++
			dt[k], dl[k], ds[k] = now, lats[(i*batch+k)%n], seq
		}
		if err := inc.Fold(dt, dl, ds); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.EstimatePlain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateCI measures the bootstrap confidence-interval path (16
// replicates of 6 h blocks, plain estimator per replicate) at the default
// worker count (GOMAXPROCS).
func BenchmarkEstimateCI(b *testing.B) {
	benchmarkEstimateCI(b, 0)
}

// BenchmarkEstimateCISerial pins the bootstrap to one worker, isolating
// the algorithmic (non-parallel) part of the speedup.
func BenchmarkEstimateCISerial(b *testing.B) {
	benchmarkEstimateCI(b, 1)
}

// BenchmarkEstimateCIWorkers8 runs the bootstrap at eight workers (the
// acceptance configuration; on fewer cores the scheduler just multiplexes).
func BenchmarkEstimateCIWorkers8(b *testing.B) {
	benchmarkEstimateCI(b, 8)
}

// BenchmarkEstimateCINormalized measures the time-normalized band — the
// full method's point curve plus its replicates — serially and across
// GOMAXPROCS workers.
func BenchmarkEstimateCINormalized(b *testing.B) {
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchmarkEstimateCIMode(b, workers, true)
		})
	}
}

// BenchmarkEstimateCINormalizedOWA is the band of the batch CLI's -action
// SelectMail -ci over four simulated days of 200 business and 200 consumer
// users (about 144 k records): default options, 40 replicates of 6 h
// blocks, on GOMAXPROCS workers.
func BenchmarkEstimateCINormalizedOWA(b *testing.B) {
	times, lats := owasimColumns(b, 4, 200, 200, 23)
	e, err := NewEstimator(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultCIOptions()
	opts.TimeNormalized = true
	req, s := bandRequest(opts), summaryOf(times, lats)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Finish(req, s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkEstimateCI(b *testing.B, workers int) {
	benchmarkEstimateCIMode(b, workers, false)
}

func benchmarkEstimateCIMode(b *testing.B, workers int, normalized bool) {
	b.Helper()
	records := benchRecords(b)
	e := benchEstimator(b)
	opts := benchCIOpts()
	opts.Workers = workers
	opts.TimeNormalized = normalized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EstimateCI(records, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnbiasedSweep isolates the unbiased-distribution fill: 2×
// draws over the full window into one histogram, drawn, sorted and swept.
func BenchmarkUnbiasedSweep(b *testing.B) {
	times, lats := UsableColumns(benchRecords(b))
	e := benchEstimator(b)
	src := rng.New(3)
	lo := times[0]
	hi := times[len(times)-1] + 1
	draws := 2 * len(times)
	var sc sweepScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := e.newHist()
		fillUnbiasedSweep(times, lats, lo, hi, draws, src, &sc, u)
	}
}
