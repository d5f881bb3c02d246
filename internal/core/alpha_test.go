package core

import (
	"math"
	"slices"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func TestPaperTable1ExactValues(t *testing.T) {
	res, err := PaperTable1().Solve()
	if err != nil {
		t.Fatal(err)
	}
	// α per bin: (26/0.8)/(90/0.3) = 0.10833…, (4/0.2)/(140/0.7) = 0.1.
	if math.Abs(res.AlphaPerBin[1][0]-0.10833333333333334) > 1e-12 {
		t.Fatalf("alpha night/low = %v", res.AlphaPerBin[1][0])
	}
	if math.Abs(res.AlphaPerBin[1][1]-0.1) > 1e-12 {
		t.Fatalf("alpha night/high = %v", res.AlphaPerBin[1][1])
	}
	// α_night = 0.104166…; the paper rounds to 0.104.
	if math.Abs(res.Alpha[1]-0.10416666666666667) > 1e-12 {
		t.Fatalf("alpha night = %v", res.Alpha[1])
	}
	if res.Alpha[0] != 1 {
		t.Fatalf("alpha day = %v, want 1", res.Alpha[0])
	}
	// Normalized night counts ≈ 250 and 38 (paper's rounding).
	if math.Abs(res.NormalizedCounts[1][0]-249.6) > 0.5 {
		t.Fatalf("normalized low count = %v, want ~250", res.NormalizedCounts[1][0])
	}
	if math.Abs(res.NormalizedCounts[1][1]-38.4) > 0.5 {
		t.Fatalf("normalized high count = %v, want ~38", res.NormalizedCounts[1][1])
	}
	// Naive pooled rates: high > low (the paradox).
	if !(res.NaiveRate[1] > res.NaiveRate[0]) {
		t.Fatalf("naive rates %v should prefer high latency", res.NaiveRate)
	}
	if math.Abs(res.NaiveRate[1]-1.6) > 1e-9 {
		t.Fatalf("naive high rate = %v, want 1.6", res.NaiveRate[1])
	}
	// Normalized rates: low ≈ 3.09 > high ≈ 1.98 (paradox resolved).
	if math.Abs(res.NormalizedRate[0]-3.0872727272727276) > 1e-9 {
		t.Fatalf("normalized low rate = %v, want ~3.09", res.NormalizedRate[0])
	}
	if math.Abs(res.NormalizedRate[1]-1.9822222222222223) > 1e-9 {
		t.Fatalf("normalized high rate = %v, want ~1.98", res.NormalizedRate[1])
	}
	if !(res.NormalizedRate[0] > res.NormalizedRate[1]) {
		t.Fatal("normalization did not restore the low-latency preference")
	}
}

func TestWorkedExampleValidation(t *testing.T) {
	bad := WorkedExample{Slots: []string{"a"}, Bins: []string{"x"}, Counts: [][]float64{{1, 2}}, TimeFrac: [][]float64{{1}}}
	if _, err := bad.Solve(); err == nil {
		t.Fatal("ragged example accepted")
	}
	bad2 := PaperTable1()
	bad2.RefSlot = 9
	if _, err := bad2.Solve(); err == nil {
		t.Fatal("out-of-range reference accepted")
	}
	empty := WorkedExample{}
	if _, err := empty.Solve(); err == nil {
		t.Fatal("empty example accepted")
	}
}

func TestWorkedExampleZeroTimeFraction(t *testing.T) {
	w := WorkedExample{
		Slots:    []string{"a", "b"},
		Bins:     []string{"x", "y"},
		Counts:   [][]float64{{10, 10}, {5, 5}},
		TimeFrac: [][]float64{{0, 1}, {0.5, 0.5}},
		RefSlot:  0,
	}
	res, err := w.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.AlphaPerBin[1][0]) {
		t.Fatal("zero time fraction should yield NaN per-bin alpha")
	}
	if math.IsNaN(res.Alpha[1]) {
		t.Fatal("alpha mean should skip NaN bins")
	}
}

// periodRecords builds a stream with a planted diurnal activity factor and
// mild confounded latency, for AlphaByPeriod.
func periodRecords(seed uint64, tz timeutil.Millis) []telemetry.Record {
	src := rng.New(seed)
	var out []telemetry.Record
	rate := func(tm timeutil.Millis) float64 {
		switch timeutil.PeriodOf(tm, tz) {
		case timeutil.Period8am2pm:
			return 16
		case timeutil.Period2pm8pm:
			return 13
		case timeutil.Period8pm2am:
			return 6
		default:
			return 2.5
		}
	}
	lat := func(tm timeutil.Millis) float64 {
		h := timeutil.HourOfDay(tm, tz)
		if h >= 8 && h < 20 {
			return 430
		}
		return 330
	}
	for m := timeutil.Millis(0); m < 8*timeutil.MillisPerDay; m += timeutil.MillisPerMinute {
		n := src.Poisson(rate(m))
		for i := 0; i < n; i++ {
			tt := m + timeutil.Millis(src.Intn(int(timeutil.MillisPerMinute)))
			out = append(out, telemetry.Record{
				Time: tt, Action: telemetry.SelectMail,
				LatencyMS: lat(tt) * src.LogNormal(0, 0.4),
				UserID:    1, UserType: telemetry.Business, TZOffset: tz,
			})
		}
	}
	telemetry.SortByTime(out)
	return out
}

// periodColumns is records' usable rows, stably sorted by time, as the
// time, latency and timezone-offset columns AlphaByPeriod reads.
func periodColumns(records []telemetry.Record) (times []timeutil.Millis, lats []float64, tzs []timeutil.Millis) {
	records = telemetry.Successful(records)
	telemetry.SortByTime(records)
	for _, r := range records {
		times, lats, tzs = append(times, r.Time), append(lats, r.LatencyMS), append(tzs, r.TZOffset)
	}
	return times, lats, tzs
}

func TestAlphaByPeriodOrdering(t *testing.T) {
	times, lats, tzs := periodColumns(periodRecords(20, -6*timeutil.MillisPerHour))
	e := testEstimator(t, nil)
	prof, err := e.AlphaByPeriod(times, lats, tzs, timeutil.Period8am2pm)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Mean[timeutil.Period8am2pm] != 1 {
		t.Fatalf("reference period alpha = %v", prof.Mean[timeutil.Period8am2pm])
	}
	// Planted ordering: 8am-2pm (1.0) > 2pm-8pm (~0.8) > 8pm-2am (~0.38)
	// > 2am-8am (~0.16).
	m := prof.Mean
	if !(m[timeutil.Period2pm8pm] < 1 && m[timeutil.Period8pm2am] < m[timeutil.Period2pm8pm] && m[timeutil.Period2am8am] < m[timeutil.Period8pm2am]) {
		t.Fatalf("alpha ordering wrong: %v", m)
	}
	if math.Abs(m[timeutil.Period2pm8pm]-13.0/16) > 0.15 {
		t.Fatalf("2pm-8pm alpha = %v, want ~%v", m[timeutil.Period2pm8pm], 13.0/16)
	}
	if math.Abs(m[timeutil.Period2am8am]-2.5/16) > 0.08 {
		t.Fatalf("2am-8am alpha = %v, want ~%v", m[timeutil.Period2am8am], 2.5/16)
	}
}

func TestAlphaByPeriodFlatAcrossBins(t *testing.T) {
	// The activity factor is planted independent of latency, so the
	// per-bin α estimates should scatter around their mean without trend
	// — the property Figure 8 checks.
	times, lats, tzs := periodColumns(periodRecords(21, -5*timeutil.MillisPerHour))
	// Restrict the check to well-supported bins: sparsely populated tail
	// bins have arbitrarily noisy per-bin α.
	e := testEstimator(t, func(o *Options) { o.MinAlphaBinCount = 30 })
	prof, err := e.AlphaByPeriod(times, lats, tzs, timeutil.Period8am2pm)
	if err != nil {
		t.Fatal(err)
	}
	p := timeutil.Period2pm8pm
	mean := prof.Mean[p]
	var maxDev float64
	var used int
	for _, v := range prof.PerBin[p] {
		if math.IsNaN(v) {
			continue
		}
		used++
		if d := math.Abs(v-mean) / mean; d > maxDev {
			maxDev = d
		}
	}
	if used < 3 {
		t.Fatalf("only %d usable alpha bins", used)
	}
	if maxDev > 0.6 {
		t.Fatalf("alpha varies %.0f%% across bins; expected roughly flat", maxDev*100)
	}
}

// TestAlphaByPeriodDeterministic pins that α is a function of the input:
// repeated calls on one multi-timezone input give the same bits, whatever
// order the (period, tz) groups are held in.
func TestAlphaByPeriodDeterministic(t *testing.T) {
	records := append(periodRecords(22, -6*timeutil.MillisPerHour), periodRecords(23, 3*timeutil.MillisPerHour)...)
	times, lats, tzs := periodColumns(append(records, periodRecords(24, 0)...))
	e := testEstimator(t, nil)
	bits := func() []uint64 {
		prof, err := e.AlphaByPeriod(times, lats, tzs, timeutil.Period8am2pm)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for p := range prof.PerBin {
			out = append(out, math.Float64bits(prof.Mean[p]))
			for _, v := range prof.PerBin[p] {
				out = append(out, math.Float64bits(v))
			}
		}
		return out
	}
	want := bits()
	for i := 0; i < 5; i++ {
		if got := bits(); !slices.Equal(got, want) {
			t.Fatalf("call %d: alpha bits differ from the first call's", i+2)
		}
	}
}

func TestAlphaByPeriodEmpty(t *testing.T) {
	e := testEstimator(t, nil)
	if _, err := e.AlphaByPeriod(nil, nil, nil, timeutil.Period8am2pm); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := e.AlphaByPeriod([]timeutil.Millis{1}, []float64{1}, nil, timeutil.Period8am2pm); err == nil {
		t.Fatal("missing timezone column accepted")
	}
}

func TestPeriodIntervals(t *testing.T) {
	tz := -5 * timeutil.MillisPerHour
	day := timeutil.MillisPerDay
	ivs := periodIntervals(timeutil.Period8am2pm, tz, 0, 2*day)
	if len(ivs) == 0 {
		t.Fatal("no intervals")
	}
	var total timeutil.Millis
	for _, iv := range ivs {
		if iv.lo >= iv.hi {
			t.Fatalf("degenerate interval %+v", iv)
		}
		if iv.lo < 0 || iv.hi > 2*day {
			t.Fatalf("interval %+v outside window", iv)
		}
		// Every contained instant must map back to the period.
		for _, probe := range []timeutil.Millis{iv.lo, iv.hi - 1, (iv.lo + iv.hi) / 2} {
			if p := timeutil.PeriodOf(probe, tz); p != timeutil.Period8am2pm {
				t.Fatalf("instant %d classified as %v", probe, p)
			}
		}
		total += iv.hi - iv.lo
	}
	// Two days contain two 6-hour blocks of the period.
	if total != 12*timeutil.MillisPerHour {
		t.Fatalf("total covered = %v, want 12h", total)
	}
}

func TestPeriodIntervalsCoverWholeWindow(t *testing.T) {
	// Across all four periods the intervals must tile the window.
	tz := -8 * timeutil.MillisPerHour
	windowHi := 3 * timeutil.MillisPerDay
	var total timeutil.Millis
	for p := 0; p < timeutil.NumPeriods; p++ {
		for _, iv := range periodIntervals(timeutil.Period(p), tz, 0, windowHi) {
			total += iv.hi - iv.lo
		}
	}
	if total != windowHi {
		t.Fatalf("periods cover %v of %v", total, windowHi)
	}
}

// TestIntervalSamplerUniform checks the per-draw reference instant over a
// union of intervals that the kernel's sweepIntervals is held to.
func TestIntervalSamplerUniform(t *testing.T) {
	ivs := []interval{{0, 100}, {1000, 1300}}
	s := newIntervalSampler(ivs)
	src := rng.New(22)
	var first int
	const n = 40000
	for i := 0; i < n; i++ {
		tm := s.draw(src)
		in := false
		for _, iv := range ivs {
			if tm >= iv.lo && tm < iv.hi {
				in = true
			}
		}
		if !in {
			t.Fatalf("draw %d outside intervals", tm)
		}
		if tm < 100 {
			first++
		}
	}
	frac := float64(first) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("first interval frequency %v, want 0.25", frac)
	}
}

func TestLocalityDiagnostic(t *testing.T) {
	// A slowly drifting latency level with modest per-sample jitter: the
	// kind of series the paper's Figure 1 was computed on.
	src := rng.New(23)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 {
			phase := 2 * math.Pi * float64(tm) / float64(6*timeutil.MillisPerHour)
			return 400 * (1 + 0.6*math.Sin(phase))
		}, 0.15,
		func(timeutil.Millis) float64 { return 10 })
	e := testEstimator(t, nil)
	rep, err := e.Locality(UsableColumns(records))
	if err != nil {
		t.Fatal(err)
	}
	if !(rep.Sorted < rep.Actual && rep.Actual < rep.Shuffled) {
		t.Fatalf("locality ordering wrong: %+v", rep)
	}
	if rep.Actual > 0.9 {
		t.Fatalf("actual ratio %v shows no locality", rep.Actual)
	}
}

func TestActivityLatencySeries(t *testing.T) {
	times, lats := UsableColumns(confoundedRecords(24))
	ts, err := ActivityLatencySeries(times, lats, timeutil.MillisPerHour)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.WindowStart) == 0 || len(ts.WindowStart) != len(ts.Count) || len(ts.Count) != len(ts.MeanLatency) {
		t.Fatalf("series shape wrong: %d/%d/%d", len(ts.WindowStart), len(ts.MeanLatency), len(ts.Count))
	}
	lat, cnt := ts.Normalized()
	for i := range lat {
		if lat[i] < 0 || lat[i] > 1 || cnt[i] < 0 || cnt[i] > 1 {
			t.Fatalf("normalized values out of range at %d", i)
		}
	}
	if _, err := ActivityLatencySeries(times, lats, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestDensityLatencyCorrelationSign(t *testing.T) {
	// In the confounded stream, windows with high latency are the busy
	// ones, so the paper's density diagnostic is positive here; with a
	// preference-driven stream (regime alternation uncorrelated with
	// time) it must be negative.
	src := rng.New(25)
	regime := func(tm timeutil.Millis) bool { return (tm/(2*timeutil.MillisPerHour))%2 == 1 }
	pref := genRecords(src, 4*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 {
			if regime(tm) {
				return 900
			}
			return 250
		}, 0.25,
		func(tm timeutil.Millis) float64 {
			if regime(tm) {
				return 5
			}
			return 15
		})
	times, lats := UsableColumns(pref)
	r, err := DensityLatencyCorrelation(times, lats, timeutil.MillisPerMinute)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 0 {
		t.Fatalf("preference stream density correlation %v, want negative", r)
	}
}
