package core

import (
	"math"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// rolling is RollingColumns over records' usable columns.
func rolling(e *Estimator, records []telemetry.Record, opts RollingOptions) (*RollingSeries, error) {
	times, lats := UsableColumns(records)
	return e.RollingColumns(times, lats, opts)
}

func rollingOpts() RollingOptions {
	return RollingOptions{
		Window:         2 * timeutil.MillisPerDay,
		Step:           timeutil.MillisPerDay,
		Probes:         []float64{800},
		TimeNormalized: false,
		MinRecords:     500,
	}
}

func TestRollingValidation(t *testing.T) {
	if err := DefaultRollingOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*RollingOptions){
		func(o *RollingOptions) { o.Window = 0 },
		func(o *RollingOptions) { o.Step = 0 },
		func(o *RollingOptions) { o.Probes = nil },
		func(o *RollingOptions) { o.MinRecords = -1 },
	}
	for i, mut := range bad {
		o := DefaultRollingOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	e := testEstimator(t, nil)
	if _, err := rolling(e, nil, rollingOpts()); err == nil {
		t.Fatal("empty records accepted")
	}
}

// driftRecords plants a preference regime change halfway through the
// window: the first half has no latency preference, the second half halves
// the rate whenever latency is high.
func driftRecords(seed uint64, days int) []telemetry.Record {
	src := rng.New(seed)
	horizon := timeutil.Millis(days) * timeutil.MillisPerDay
	half := horizon / 2
	regime := func(tm timeutil.Millis) bool { // true = slow latency period
		return (tm/(2*timeutil.MillisPerHour))%2 == 1
	}
	return genRecords(src, horizon,
		func(tm timeutil.Millis) float64 {
			if regime(tm) {
				return 800
			}
			return 300
		}, 0.25,
		func(tm timeutil.Millis) float64 {
			if regime(tm) && tm >= half {
				return 5 // second half: strong aversion to slow periods
			}
			return 10
		})
}

func TestRollingDetectsDrift(t *testing.T) {
	records := driftRecords(61, 8)
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 300 })
	series, err := rolling(e, records, rollingOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series.WindowStart) < 4 {
		t.Fatalf("only %d windows", len(series.WindowStart))
	}
	// Early windows: NLP(800) ~ 1. Late windows: ~0.5.
	first := series.NLP[0][0]
	last := series.NLP[len(series.NLP)-1][0]
	if math.IsNaN(first) || math.IsNaN(last) {
		t.Fatalf("NaN endpoints: %v, %v", first, last)
	}
	if first < 0.8 {
		t.Fatalf("early window NLP %v, want ~1 (no preference yet)", first)
	}
	if last > 0.7 {
		t.Fatalf("late window NLP %v, want ~0.5 (preference active)", last)
	}
	if series.MaxDrift(0) < 0.15 {
		t.Fatalf("MaxDrift %v did not flag the regime change", series.MaxDrift(0))
	}
}

func TestRollingStableSeries(t *testing.T) {
	// Without a regime change consecutive windows agree.
	src := rng.New(62)
	records := genRecords(src, 6*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 {
			if (tm/(2*timeutil.MillisPerHour))%2 == 1 {
				return 800
			}
			return 300
		}, 0.25,
		func(tm timeutil.Millis) float64 {
			if (tm/(2*timeutil.MillisPerHour))%2 == 1 {
				return 5
			}
			return 10
		})
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 300 })
	series, err := rolling(e, records, rollingOpts())
	if err != nil {
		t.Fatal(err)
	}
	if d := series.MaxDrift(0); d > 0.15 {
		t.Fatalf("stable stream drifted by %v", d)
	}
}

// TestRollingColumnsMatchesRolling pins each row of the series to a fresh
// Finish over that window's columns, ProbeN included (the watcher's drift
// thresholds consume it): the scratch the windows share changes no byte.
func TestRollingColumnsMatchesRolling(t *testing.T) {
	records := driftRecords(64, 6)
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 300 })
	times, lats := UsableColumns(records)
	opts := rollingOpts()
	got, err := e.RollingColumns(times, lats, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.WindowStart) < 2 {
		t.Fatalf("%d windows; the test needs several", len(got.WindowStart))
	}
	for i, start := range got.WindowStart {
		lo, hi := Columns{Times: times}.Range(start, start+opts.Window)
		if got.Records[i] != hi-lo {
			t.Fatalf("window %d: %d records, want %d", i, got.Records[i], hi-lo)
		}
		want, err := pointOf(e.Finish(Request{}, summaryOf(times[lo:hi], lats[lo:hi]), nil))
		if err != nil {
			t.Fatal(err)
		}
		for j, probe := range opts.Probes {
			wv, ok := want.At(probe)
			if !ok {
				wv = math.NaN()
			}
			if gv := got.NLP[i][j]; gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
				t.Fatalf("window %d probe %d NLP %v != %v", i, j, gv, wv)
			}
			if got.ProbeN[i][j] != want.EffectiveN(probe) {
				t.Fatalf("window %d probe %d ProbeN %v != %v", i, j, got.ProbeN[i][j], want.EffectiveN(probe))
			}
		}
	}
	// Unsorted columns must be rejected, not silently mis-windowed.
	if len(times) > 1 {
		times[0], times[1] = times[1], times[0]
		if _, err := e.RollingColumns(times, lats, rollingOpts()); err == nil {
			t.Fatal("unsorted columns accepted")
		}
	}
}

// TestRollingProbeNTracksBinThinness: the effective sample size behind a
// rarely-hit probe bin must be far below the window's record count, and a
// commonly-hit bin's must be larger — Records is NOT a CI denominator.
func TestRollingProbeNTracksBinThinness(t *testing.T) {
	records := driftRecords(65, 6)
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 300 })
	opts := rollingOpts()
	opts.Probes = []float64{300, 800}
	series, err := rolling(e, records, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range series.WindowStart {
		nCommon, nRare := series.ProbeN[i][0], series.ProbeN[i][1]
		if nRare <= 0 || nCommon <= 0 {
			continue // probe bin empty in this window
		}
		if nRare >= float64(series.Records[i]) {
			t.Fatalf("window %d: rare-probe ProbeN %v not below Records %d",
				i, nRare, series.Records[i])
		}
		if nCommon <= nRare {
			t.Fatalf("window %d: common probe ProbeN %v <= rare probe %v",
				i, nCommon, nRare)
		}
	}
}

// TestRollingSingleWindow: a stream exactly one window long yields exactly
// one row, anchored at the first record.
func TestRollingSingleWindow(t *testing.T) {
	src := rng.New(66)
	opts := rollingOpts()
	// Slightly over one window long: the stream's actual span (first to
	// last record) must cover Window, but stay short of Window+Step.
	records := genRecords(src, opts.Window+2*timeutil.MillisPerHour,
		func(tm timeutil.Millis) float64 { return 400 },
		0.25, func(tm timeutil.Millis) float64 { return 2 })
	e := testEstimator(t, nil)
	series, err := rolling(e, records, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.WindowStart) != 1 {
		t.Fatalf("%d windows, want 1", len(series.WindowStart))
	}
	sorted := telemetry.Successful(records)
	telemetry.SortByTime(sorted)
	if series.WindowStart[0] != sorted[0].Time {
		t.Fatalf("window anchored at %d, want first record time %d",
			series.WindowStart[0], sorted[0].Time)
	}
}

// TestRollingStepLargerThanWindow: gappy (non-overlapping, spaced) windows
// are legal; each record lands in at most one.
func TestRollingStepLargerThanWindow(t *testing.T) {
	src := rng.New(67)
	opts := rollingOpts()
	opts.Window = timeutil.MillisPerDay
	opts.Step = 2 * timeutil.MillisPerDay
	records := genRecords(src, 6*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 { return 400 },
		0.25, func(tm timeutil.Millis) float64 { return 2 })
	e := testEstimator(t, nil)
	series, err := rolling(e, records, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.WindowStart)+series.Skipped != 3 {
		t.Fatalf("%d windows + %d skipped, want 3 total",
			len(series.WindowStart), series.Skipped)
	}
	total := 0
	for _, n := range series.Records {
		total += n
	}
	if total >= len(records) {
		t.Fatalf("windows consumed %d of %d records; gaps missing", total, len(records))
	}
}

// TestRollingAllWindowsThin: when MinRecords filters every window the call
// errors rather than returning an empty series.
func TestRollingAllWindowsThin(t *testing.T) {
	var records []telemetry.Record
	for i := 0; i < 200; i++ {
		records = append(records,
			mkRec(timeutil.Millis(i)*timeutil.MillisPerHour/4, 300+float64(i%7)))
	}
	e := testEstimator(t, nil)
	if _, err := rolling(e, records, rollingOpts()); err == nil {
		t.Fatal("all-thin series accepted")
	}
}

// TestRollingBoundaryRegimeChange: a preference flip on an exact window
// boundary keeps both adjoining windows pure — the before window reads
// pre-change, the after window post-change, with the step between them.
func TestRollingBoundaryRegimeChange(t *testing.T) {
	src := rng.New(68)
	opts := rollingOpts() // 2d windows, 1d step
	boundary := 4 * timeutil.MillisPerDay
	slow := func(tm timeutil.Millis) bool {
		return (tm/(2*timeutil.MillisPerHour))%2 == 1
	}
	records := genRecords(src, 8*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 {
			if slow(tm) {
				return 800
			}
			return 300
		}, 0.25,
		func(tm timeutil.Millis) float64 {
			if slow(tm) && tm >= boundary {
				return 4
			}
			return 10
		})
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 300 })
	series, err := rolling(e, records, opts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64 = math.NaN(), math.NaN()
	for i, start := range series.WindowStart {
		if start+opts.Window <= boundary {
			before = series.NLP[i][0] // last fully pre-change window
		}
		if start >= boundary && math.IsNaN(after) {
			after = series.NLP[i][0] // first fully post-change window
		}
	}
	if math.IsNaN(before) || math.IsNaN(after) {
		t.Fatalf("boundary windows missing: before=%v after=%v", before, after)
	}
	if before < 0.85 {
		t.Fatalf("pre-boundary window NLP %v contaminated by the change", before)
	}
	if after > 0.65 {
		t.Fatalf("post-boundary window NLP %v does not reflect the change", after)
	}
}

func TestRollingSkipsThinWindows(t *testing.T) {
	// A burst of records followed by silence: later windows are skipped.
	var records []telemetry.Record
	src := rng.New(63)
	for i := 0; i < 3000; i++ {
		records = append(records, mkRec(timeutil.Millis(src.Intn(int(timeutil.MillisPerDay))), 300+src.Normal(0, 30)))
	}
	// One straggler far away so the sweep continues past the burst.
	records = append(records, mkRec(6*timeutil.MillisPerDay, 300))
	e := testEstimator(t, nil)
	series, err := rolling(e, records, rollingOpts())
	if err != nil {
		t.Fatal(err)
	}
	if series.Skipped == 0 {
		t.Fatal("no thin window skipped")
	}
	if len(series.WindowStart) == 0 {
		t.Fatal("burst window missing")
	}
}
