package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// randomColumns is k time-sorted rows at random instants in [0, span],
// with distinct random latencies so a latency names its sample.
func randomColumns(src *rng.Source, k, span int) ([]timeutil.Millis, []float64) {
	times, lats := make([]timeutil.Millis, k), make([]float64, k)
	for i := range times {
		times[i] = timeutil.Millis(src.Intn(span + 1))
		lats[i] = 10 + float64(i) + src.Float64()
	}
	SortColumns(times, lats)
	return times, lats
}

// TestUnbiasedDrawAlwaysFromInput: every unbiased draw must return a
// latency value that exists in the input sample set.
func TestUnbiasedDrawAlwaysFromInput(t *testing.T) {
	src := rng.New(31)
	f := func(n uint8, span uint16) bool {
		times, lats := randomColumns(src, int(n)%200+1, int(span))
		draws, err := UnbiasedDraws(times, lats, 20, src.Uint64())
		if err != nil {
			return false
		}
		for _, d := range draws {
			if !slices.Contains(lats, d.LatencyMS) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnbiasedDrawsAPI(t *testing.T) {
	times, lats := []timeutil.Millis{0, 100, 500}, []float64{100, 200, 300}
	draws, err := UnbiasedDraws(times, lats, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(draws) != 50 {
		t.Fatalf("%d draws", len(draws))
	}
	var last timeutil.Millis = -1
	for _, d := range draws {
		if d.At < last {
			t.Fatal("draws not sorted by time")
		}
		last = d.At
		if d.At < 0 || d.At > 500 {
			t.Fatalf("draw time %d outside span", d.At)
		}
		if d.LatencyMS != 100 && d.LatencyMS != 200 && d.LatencyMS != 300 {
			t.Fatalf("draw latency %v not from input", d.LatencyMS)
		}
	}
	if _, err := UnbiasedDraws(nil, nil, 10, 1); err == nil {
		t.Fatal("empty columns accepted")
	}
	if _, err := UnbiasedDraws(times, lats, 0, 1); err == nil {
		t.Fatal("zero draws accepted")
	}
	if _, err := UnbiasedDraws([]timeutil.Millis{5, 1}, []float64{1, 2}, 10, 1); err == nil {
		t.Fatal("unsorted times accepted")
	}
	// Determinism.
	again, err := UnbiasedDraws(times, lats, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(draws, again) {
		t.Fatal("draws not deterministic")
	}
}

// TestNearestIsActuallyNearest: for every draw, no sample may be strictly
// closer in time to its instant than the one it adopted.
func TestNearestIsActuallyNearest(t *testing.T) {
	src := rng.New(32)
	f := func(n uint8, seed uint16) bool {
		times, lats := randomColumns(src, int(n)%50+1, 999)
		draws, err := UnbiasedDraws(times, lats, 20, uint64(seed))
		if err != nil {
			return false
		}
		dist := func(i int, at timeutil.Millis) timeutil.Millis {
			return max(times[i]-at, at-times[i])
		}
		for _, d := range draws {
			got := dist(slices.Index(lats, d.LatencyMS), d.At)
			for i := range times {
				if dist(i, d.At) < got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateScaleInvariance: multiplying every user's activity uniformly
// (by duplicating the record stream with jittered user ids) must not change
// the NLP curve materially — the estimator works on distributions, not
// volumes.
func TestEstimateScaleInvariance(t *testing.T) {
	src := rng.New(33)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 {
			phase := 2 * math.Pi * float64(tm) / float64(8*timeutil.MillisPerHour)
			return 450 * (1 + 0.5*math.Sin(phase))
		}, 0.2,
		func(timeutil.Millis) float64 { return 8 })
	doubled := make([]telemetry.Record, 0, 2*len(records))
	for _, r := range records {
		doubled = append(doubled, r)
		r2 := r
		r2.UserID++
		doubled = append(doubled, r2)
	}
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 450 })
	c1, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.Estimate(doubled)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []float64{300, 450, 600, 700} {
		v1, ok1 := c1.At(probe)
		v2, ok2 := c2.At(probe)
		if !ok1 || !ok2 {
			continue
		}
		if math.Abs(v1-v2) > 0.08 {
			t.Fatalf("NLP at %v changed from %v to %v when volume doubled", probe, v1, v2)
		}
	}
}

// TestNLPNonNegative: the reported NLP can never be negative over valid
// bins (it is a ratio of non-negative masses after smoothing; smoothing can
// only undershoot zero on invalid, interpolated stretches).
func TestNLPNonNegativeOnValidBins(t *testing.T) {
	records := confoundedRecords(34)
	e := testEstimator(t, nil)
	for _, mode := range []func([]telemetry.Record) (*Curve, error){e.Estimate, e.EstimateTimeNormalized} {
		c, err := mode(records)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range c.NLP {
			if c.Valid[i] && v < -1e-9 {
				t.Fatalf("negative NLP %v at valid bin %d", v, i)
			}
		}
	}
}

// TestCurveBiasedFractionsSumToOne: the reported biased/unbiased fractions
// are proper distributions.
func TestCurveFractionsSumToOne(t *testing.T) {
	records := confoundedRecords(35)
	e := testEstimator(t, nil)
	c, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	var b, u float64
	for i := range c.Biased {
		b += c.Biased[i]
		u += c.Unbiased[i]
	}
	if math.Abs(b-1) > 1e-9 || math.Abs(u-1) > 1e-9 {
		t.Fatalf("fractions sum to %v / %v", b, u)
	}
}

// TestSeedChangesOnlyNoise: two different estimator seeds on the same data
// must agree closely (the unbiased draws are Monte Carlo; the signal is
// not).
func TestSeedChangesOnlyNoise(t *testing.T) {
	records := confoundedRecords(36)
	e1 := testEstimator(t, func(o *Options) { o.Seed = 1 })
	e2 := testEstimator(t, func(o *Options) { o.Seed = 2 })
	c1, err := e1.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e2.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []float64{300, 400, 500, 600} {
		v1, ok1 := c1.At(probe)
		v2, ok2 := c2.At(probe)
		if ok1 && ok2 && math.Abs(v1-v2) > 0.1 {
			t.Fatalf("seeds disagree at %v: %v vs %v", probe, v1, v2)
		}
	}
}
