package owasim

import (
	"errors"
	"math"
	"testing"

	"autosens/internal/stats"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func smallConfig() Config {
	cfg := DefaultConfig(2*timeutil.MillisPerDay, 30, 30)
	cfg.Seed = 42
	return cfg
}

func TestValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Latency.Horizon = c.Horizon / 2 },
		func(c *Config) { c.FailureRate = 1 },
		func(c *Config) { c.FailureRate = -0.1 },
		func(c *Config) { c.EWMABeta = 1 },
		func(c *Config) { c.StalenessReset = -1 },
		func(c *Config) { c.Pop.NumBusiness, c.Pop.NumConsumer = 0, 0 },
	}
	for i, mut := range mutations {
		c := smallConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig()
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Records) == 0 {
		t.Fatal("no records generated")
	}
	if len(r1.Records) != len(r2.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(r1.Records), len(r2.Records))
	}
	for i := range r1.Records {
		if r1.Records[i] != r2.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestRecordsChronologicalAndValid(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var last timeutil.Millis = -1
	for i, r := range res.Records {
		if r.Time < last {
			t.Fatalf("record %d out of order", i)
		}
		last = r.Time
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if r.Time < 0 || r.Time >= smallConfig().Horizon {
			t.Fatalf("record %d outside horizon: %d", i, r.Time)
		}
		if r.LatencyMS <= 0 {
			t.Fatalf("record %d non-positive latency", i)
		}
	}
}

func TestAllUsersAndActionsRepresented(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	users := make(map[uint64]bool)
	var actions [telemetry.NumActionTypes]int
	var segs [telemetry.NumUserTypes]int
	for _, r := range res.Records {
		users[r.UserID] = true
		actions[r.Action]++
		segs[r.UserType]++
	}
	if len(users) < 55 { // 60 users, allow a few inactive
		t.Fatalf("only %d users active", len(users))
	}
	for a, n := range actions {
		if n == 0 {
			t.Fatalf("action %v never performed", telemetry.ActionType(a))
		}
	}
	for s, n := range segs {
		if n == 0 {
			t.Fatalf("segment %v absent", telemetry.UserType(s))
		}
	}
	// SelectMail dominates the mix.
	if actions[telemetry.SelectMail] <= actions[telemetry.Search] {
		t.Fatal("SelectMail should dominate Search")
	}
}

func TestFailureRateApproximate(t *testing.T) {
	cfg := smallConfig()
	cfg.FailureRate = 0.05
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for _, r := range res.Records {
		if r.Failed {
			failed++
		}
	}
	frac := float64(failed) / float64(len(res.Records))
	if math.Abs(frac-0.05) > 0.015 {
		t.Fatalf("failure fraction %v, want ~0.05", frac)
	}
}

func TestDiurnalActivityVisible(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var day, night int
	for _, r := range res.Records {
		h := timeutil.HourOfDay(r.Time, r.TZOffset)
		if h >= 9 && h < 17 {
			day++
		}
		if h >= 1 && h < 5 {
			night++
		}
	}
	// Both windows are 8h vs 4h: normalize per hour.
	if float64(day)/8 <= 2*float64(night)/4 {
		t.Fatalf("daytime rate (%d/8h) not clearly above night (%d/4h)", day, night)
	}
}

func TestLatencySeriesHasLocality(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel := telemetry.ByAction(telemetry.Successful(res.Records), telemetry.SelectMail)
	if len(sel) < 1000 {
		t.Fatalf("too few SelectMail records: %d", len(sel))
	}
	ratio, err := stats.MSDMADRatio(telemetry.Latencies(sel))
	if err != nil {
		t.Fatal(err)
	}
	if ratio >= 0.85 {
		t.Fatalf("observed latency MSD/MAD %v: no locality", ratio)
	}
}

func TestActivityAnticorrelatedWithLatencyGivenHour(t *testing.T) {
	// Figure 2's phenomenon: action counts move opposite to latency.
	// Raw windows are confounded by time of day (busy hours have both
	// more activity and higher latency — the very confounder Section
	// 2.4.1 corrects), so compare windows against other windows of the
	// same hour-of-day and correlate the residuals.
	cfg := DefaultConfig(6*timeutil.MillisPerDay, 40, 40)
	cfg.Seed = 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const window = timeutil.MillisPerHour
	n := int(cfg.Horizon / window)
	counts := make([]float64, n)
	sums := make([]float64, n)
	for _, r := range res.Records {
		w := int(r.Time / window)
		counts[w]++
		sums[w] += r.LatencyMS
	}
	// Residualize against hour-of-day means.
	type agg struct{ lat, cnt, n float64 }
	byHour := make(map[int]*agg)
	lat := make([]float64, n)
	for i := range counts {
		if counts[i] < 10 {
			continue
		}
		lat[i] = sums[i] / counts[i]
		h := i % 24
		a := byHour[h]
		if a == nil {
			a = &agg{}
			byHour[h] = a
		}
		a.lat += lat[i]
		a.cnt += counts[i]
		a.n++
	}
	var xs, ys []float64
	for i := range counts {
		if counts[i] < 10 {
			continue
		}
		a := byHour[i%24]
		if a.n < 2 {
			continue
		}
		xs = append(xs, lat[i]-a.lat/a.n)
		ys = append(ys, counts[i]-a.cnt/a.n)
	}
	r, err := stats.Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r >= -0.05 {
		t.Fatalf("hour-controlled latency/activity correlation %v, want clearly negative", r)
	}
}

func TestThinningEnvelopeHolds(t *testing.T) {
	// The thinning construction requires the instantaneous action rate
	// never to exceed the per-user envelope rate; if it did, Bool(p)
	// with p > 1 would silently clip and bias the workload. Verify
	// empirically: no user's busiest hour may exceed the envelope's
	// expected event budget by more than Poisson noise allows.
	cfg := smallConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rateByUser := make(map[uint64]float64)
	for _, u := range res.Users {
		rateByUser[u.ID] = u.RatePerHour * u.Diurnal.Max() * cfg.Truth.MaxEval
	}
	perUserHour := make(map[[2]uint64]float64)
	for _, r := range res.Records {
		key := [2]uint64{r.UserID, uint64(r.Time / timeutil.MillisPerHour)}
		perUserHour[key]++
	}
	for key, n := range perUserHour {
		envelope := rateByUser[key[0]]
		// Allow 6 sigma of Poisson noise above the envelope mean.
		if n > envelope+6*math.Sqrt(envelope)+3 {
			t.Fatalf("user %d produced %v actions in one hour, envelope %v", key[0], n, envelope)
		}
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	want := errors.New("sink full")
	err := RunTo(smallConfig(), func(telemetry.Record) error { return want }, nil)
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want sink error", err)
	}
}

// TestSinkRefusalStopsRun checks that a refusal ends the run: no user's
// candidate is handled after the candidate whose record the sink refused,
// though the unrefused run goes on to handle many more.
func TestSinkRefusalStopsRun(t *testing.T) {
	candidates := 0
	onCandidate = func(uint64, timeutil.Millis) { candidates++ }
	defer func() { onCandidate = nil }()

	if err := RunTo(smallConfig(), func(telemetry.Record) error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	all := candidates

	candidates = 0
	records, atRefusal := 0, -1
	err := RunTo(smallConfig(), func(telemetry.Record) error {
		if records++; records == 1000 {
			atRefusal = candidates
			return errRefuse
		}
		return nil
	}, nil)
	if !errors.Is(err, errRefuse) {
		t.Fatalf("RunTo = %v, want the sink's refusal", err)
	}
	if candidates != atRefusal {
		t.Fatalf("%d candidates handled after the refusal at candidate %d", candidates-atRefusal, atRefusal)
	}
	if records != 1000 || 2*atRefusal > all {
		t.Fatalf("refused at record %d, candidate %d of %d: want record 1000 early in the run", records, atRefusal, all)
	}
}

func TestMonths(t *testing.T) {
	day := timeutil.MillisPerDay
	mk := func(tm timeutil.Millis) telemetry.Record {
		return telemetry.Record{Time: tm, Action: telemetry.SelectMail, LatencyMS: 1, UserID: 1}
	}
	records := []telemetry.Record{
		mk(0), mk(30 * day), // January
		mk(31 * day), mk(58 * day), // February
	}
	ms := Months(records)
	if len(ms) != 2 {
		t.Fatalf("got %d months", len(ms))
	}
	if len(ms[0]) != 2 || len(ms[1]) != 2 {
		t.Fatalf("month sizes: %d, %d", len(ms[0]), len(ms[1]))
	}
}

func TestOracleModeRunsAndReacts(t *testing.T) {
	cfg := smallConfig()
	cfg.EWMABeta = 0 // oracle anticipation
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("oracle run produced no records")
	}
}

func TestTrueExpectedSeries(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	times, ms := TrueExpectedSeries(res.Model, telemetry.SelectMail, timeutil.MillisPerMinute, 2*timeutil.MillisPerDay)
	if len(times) != len(ms) || len(times) != 2*24*60 {
		t.Fatalf("series length %d", len(times))
	}
	for i, v := range ms {
		if v <= 0 {
			t.Fatalf("expected latency %v at index %d", v, i)
		}
	}
}

func BenchmarkRunOneDay(b *testing.B) {
	cfg := DefaultConfig(timeutil.MillisPerDay, 20, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWeekendEffectVisible(t *testing.T) {
	// Business users must be much quieter on weekends; consumers must
	// not be. The window starts on a Friday, so days 1-2 are a weekend.
	cfg := DefaultConfig(7*timeutil.MillisPerDay, 60, 60)
	cfg.Seed = 99
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := timeutil.MillisPerDay
	count := func(ut telemetry.UserType, lo, hi timeutil.Millis) float64 {
		n := 0.0
		for _, r := range res.Records {
			if r.UserType == ut && r.Time >= lo && r.Time < hi {
				n++
			}
		}
		return n
	}
	// Compare Saturday+Sunday against Monday+Tuesday (days 3-4).
	bizWeekend := count(telemetry.Business, day, 3*day)
	bizWeekdays := count(telemetry.Business, 3*day, 5*day)
	if bizWeekend > 0.6*bizWeekdays {
		t.Fatalf("business weekend %v not clearly below weekdays %v", bizWeekend, bizWeekdays)
	}
	conWeekend := count(telemetry.Consumer, day, 3*day)
	conWeekdays := count(telemetry.Consumer, 3*day, 5*day)
	if conWeekend < 0.8*conWeekdays {
		t.Fatalf("consumer weekend %v dropped too much vs weekdays %v", conWeekend, conWeekdays)
	}
}
