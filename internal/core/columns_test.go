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

// The record form is the finisher over UsableColumns, and a reused
// scratch changes no byte across repeated estimations.
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
	sc := &Scratch{}
	for i := 0; i < 3; i++ {
		got, err := pointOf(e.Finish(Request{}, summaryOf(times, lats), sc))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
			t.Fatalf("Finish with a reused scratch differs from Estimate on pass %d", i)
		}
	}
}

// An incrementally maintained biased histogram (appends in arrival order,
// not time order) handed to Finish as Summary.B must produce the identical
// curve: weight-1.0 adds are exact integer arithmetic in float64, so the
// counts are order-independent.
func TestEstimateSummaryPrebuiltHistogram(t *testing.T) {
	src := rng.New(21)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.4,
		func(timeutil.Millis) float64 { return 10 })
	e := testEstimator(t, nil)
	times, lats := UsableColumns(records)

	want, err := pointOf(e.Finish(Request{}, summaryOf(times, lats), nil))
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
	s := &Summary{Columns: Columns{Times: times, Lats: lats}, B: b}
	got, err := pointOf(e.Finish(Request{}, s, &Scratch{}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
		t.Fatal("Finish with an incremental histogram differs")
	}
}

// TestFinishRequests pins the request surface: mode names round-trip, a
// point request carries no bounds, the band's estimator follows Mode
// whatever CIOptions.TimeNormalized says, and the requests no estimator
// answers are refused by both finishers with the same text.
func TestFinishRequests(t *testing.T) {
	for m := ModePlain; m < numModes; m++ {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("pooled"); err == nil {
		t.Fatal("ParseMode accepted an unknown name")
	}

	src := rng.New(23)
	records := genRecords(src, 3*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 350 }, 0.35,
		func(timeutil.Millis) float64 { return 8 })
	e := testEstimator(t, nil)
	times, lats := UsableColumns(records)
	s := summaryOf(times, lats)
	seqs := make([]uint64, len(times))
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	inc := e.NewIncremental()
	if err := inc.Fold(times, lats, seqs); err != nil {
		t.Fatal(err)
	}

	point, err := e.Finish(Request{Mode: ModeBiased}, s, nil)
	if err != nil || point.Lower != nil || point.Upper != nil || point.Replicates != 0 {
		t.Fatalf("point request: bounds %v/%v, %d replicates, err %v", point.Lower, point.Upper, point.Replicates, err)
	}

	opts := DefaultCIOptions()
	opts.Resamples = 4
	opts.TimeNormalized = true // Mode decides, not this
	plain, err := e.Finish(Request{Mode: ModePlain, CI: true, CIOptions: opts}, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.TimeNormalized = false
	if want, err := e.EstimateCI(records, opts); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(curveBytes(t, plain.Curve), curveBytes(t, want.Curve)) {
		t.Fatal("a plain band request ran the time-normalized estimator")
	}

	for _, req := range []Request{{Mode: ModeBiased, CI: true, CIOptions: opts}, {Mode: numModes}, {Mode: numModes, CI: true, CIOptions: opts}} {
		_, err := e.Finish(req, s, nil)
		_, incErr := inc.Finish(req)
		if err == nil || incErr == nil || err.Error() != incErr.Error() {
			t.Fatalf("%+v: stateless error %v, incremental error %v", req, err, incErr)
		}
	}
}

// summaryOf wraps sorted columns as the stateless finisher's input.
func summaryOf(times []timeutil.Millis, lats []float64) *Summary {
	return &Summary{Columns: Columns{Times: times, Lats: lats}}
}

// bandRequest is the band request opts describe, as EstimateCI makes it.
func bandRequest(opts CIOptions) Request {
	return Request{Mode: ModeOf(opts.TimeNormalized), CI: true, CIOptions: opts}
}
