package core

import (
	"bytes"
	"math"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// curveBytes canonicalizes a curve for exact comparison (NaN travels as
// null, so equal bytes ⇒ bit-equal float columns).
func curveBytes(t *testing.T, c *Curve) []byte {
	t.Helper()
	b, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckColumns(t *testing.T) {
	if err := checkColumns([]timeutil.Millis{1, 2}, []float64{1}); err != errColumnLengths {
		t.Fatalf("length mismatch: %v", err)
	}
	if err := checkColumns(nil, nil); err != errEmptyRecords {
		t.Fatalf("empty: %v", err)
	}
	if err := checkColumns([]timeutil.Millis{2, 1}, []float64{1, 2}); err != errColumnsUnsorted {
		t.Fatalf("unsorted: %v", err)
	}
	if err := checkColumns([]timeutil.Millis{1, 1, 2}, []float64{1, 2, 3}); err != nil {
		t.Fatalf("valid columns rejected: %v", err)
	}
}

// TestUsableColumnsMatchesSortByTime: the records-to-columns helper keeps
// exactly the successful records, in telemetry.SortByTime's stable order,
// over sorted, reversed, tied and shuffled inputs.
func TestUsableColumnsMatchesSortByTime(t *testing.T) {
	src := rng.New(5)
	for _, n := range []int{0, 1, 2, 7, 20, 21, 300} {
		for shape := 0; shape < 4; shape++ {
			recs := make([]telemetry.Record, n)
			for i := range recs {
				tm := timeutil.Millis(i)
				switch shape {
				case 1:
					tm = timeutil.Millis(n - i)
				case 2:
					tm = timeutil.Millis(src.Intn(5)) // heavy ties
				case 3:
					tm = timeutil.Millis(src.Intn(1000)) - 500
				}
				recs[i] = telemetry.Record{Time: tm, LatencyMS: float64(i), Failed: src.Intn(4) == 0}
			}
			want := telemetry.Successful(recs)
			telemetry.SortByTime(want)
			times, lats := UsableColumns(recs)
			if len(times) != len(want) || len(lats) != len(want) {
				t.Fatalf("n=%d shape %d: %d/%d columns, want %d rows", n, shape, len(times), len(lats), len(want))
			}
			for i, r := range want {
				if times[i] != r.Time || math.Float64bits(lats[i]) != math.Float64bits(r.LatencyMS) {
					t.Fatalf("n=%d shape %d row %d: (%d, %v), want (%d, %v)", n, shape, i, times[i], lats[i], r.Time, r.LatencyMS)
				}
			}
		}
	}
}

// Column entry points must be bit-identical to their record-based
// counterparts — the live engine's byte-identity guarantee rests on this.
func TestEstimateColumnsMatchesEstimate(t *testing.T) {
	src := rng.New(20)
	records := genRecords(src, 3*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 { return 300 + 200*float64((tm/timeutil.MillisPerHour)%5) },
		0.3,
		func(timeutil.Millis) float64 { return 8 })
	e := testEstimator(t, nil)

	want, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	times, lats := UsableColumns(records)

	got, err := e.EstimateColumns(times, lats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
		t.Fatal("EstimateColumns differs from Estimate")
	}

	// Scratch reuse must not change results across repeated estimations.
	sc := &Scratch{}
	for i := 0; i < 3; i++ {
		got, err = e.EstimateColumns(times, lats, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
			t.Fatalf("EstimateColumns with reused scratch differs on pass %d", i)
		}
	}
}

// An incrementally maintained biased histogram (appends in arrival order,
// not time order) handed to EstimateSummary as Summary.B must produce the
// identical curve: weight-1.0 adds are exact integer arithmetic in float64,
// so the counts are order-independent.
func TestEstimateSummaryPrebuiltHistogram(t *testing.T) {
	src := rng.New(21)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.4,
		func(timeutil.Millis) float64 { return 10 })
	e := testEstimator(t, nil)
	times, lats := UsableColumns(records)

	want, err := e.EstimateColumns(times, lats, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Build B by appending latencies in a scrambled order, as a live shard
	// would (ack order, not time order).
	b := e.newHist()
	perm := src.Perm(len(lats))
	for _, i := range perm {
		b.Add(lats[i])
	}
	seqs := make([]uint64, len(times))
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	s := &Summary{Columns: Columns{Times: times, Lats: lats, Seqs: seqs}, B: b}
	got, err := e.EstimateSummary(s, &Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
		t.Fatal("EstimateSummary with incremental histogram differs")
	}
}

func TestEstimateTimeNormalizedColumnsMatches(t *testing.T) {
	src := rng.New(22)
	records := genRecords(src, 3*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 { return 250 + 150*float64((tm/(6*timeutil.MillisPerHour))%3) },
		0.3,
		func(tm timeutil.Millis) float64 { return 6 + float64((tm/timeutil.MillisPerHour)%4) })
	e := testEstimator(t, nil)

	want, err := e.EstimateTimeNormalized(records)
	if err != nil {
		t.Fatal(err)
	}
	times, lats := UsableColumns(records)
	got, err := e.EstimateTimeNormalizedColumns(times, lats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
		t.Fatal("EstimateTimeNormalizedColumns differs from EstimateTimeNormalized")
	}
}

func TestEstimateCIColumnsMatches(t *testing.T) {
	src := rng.New(23)
	records := genRecords(src, 3*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 350 }, 0.35,
		func(timeutil.Millis) float64 { return 8 })
	e := testEstimator(t, nil)
	opts := DefaultCIOptions()
	opts.Resamples = 8

	want, err := e.EstimateCI(records, opts)
	if err != nil {
		t.Fatal(err)
	}
	times, lats := UsableColumns(records)
	got, err := e.EstimateCIColumns(times, lats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, want.Curve), curveBytes(t, got.Curve)) {
		t.Fatal("EstimateCIColumns point estimate differs")
	}
	wb, err := want.MarshalBoundsJSON()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.MarshalBoundsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("EstimateCIColumns bounds differ")
	}
}
