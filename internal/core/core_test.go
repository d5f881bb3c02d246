package core

import (
	"math"
	"slices"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	mutations := []func(*Options){
		func(o *Options) { o.BinWidthMS = 0 },
		func(o *Options) { o.MaxLatencyMS = o.BinWidthMS },
		func(o *Options) { o.ReferenceMS = -1 },
		func(o *Options) { o.ReferenceMS = o.MaxLatencyMS },
		func(o *Options) { o.SGWindow = 100 },
		func(o *Options) { o.SGDegree = -1 },
		func(o *Options) { o.UnbiasedPerSample = 0 },
		func(o *Options) { o.MinUnbiasedCount = -1 },
		func(o *Options) { o.SlotDuration = 0 },
		func(o *Options) { o.ReferenceSlots = 0 },
		func(o *Options) { o.MinSlotActions = 0 },
		func(o *Options) { o.AlphaBinWidthMS = 0 },
		func(o *Options) { o.MinAlphaBinCount = -1 },
		func(o *Options) { o.Workers = -1 },
	}
	for i, mut := range mutations {
		o := DefaultOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestNewEstimatorRejectsBadOptions(t *testing.T) {
	o := DefaultOptions()
	o.SGWindow = 4
	if _, err := NewEstimator(o); err == nil {
		t.Fatal("bad options accepted")
	}
}

func TestInterpolateHoles(t *testing.T) {
	nan := math.NaN()
	xs := []float64{nan, 2, nan, nan, 8, nan}
	valid := []bool{false, true, false, false, true, false}
	out := interpolateHoles(xs, valid)
	want := []float64{2, 2, 4, 6, 8, 8}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("interpolated = %v, want %v", out, want)
		}
	}
}

func TestInterpolateHolesAllInvalid(t *testing.T) {
	if out := interpolateHoles([]float64{1, 2}, []bool{false, false}); out != nil {
		t.Fatalf("all-invalid returned %v", out)
	}
}

func TestInterpolateHolesNoHoles(t *testing.T) {
	xs := []float64{1, 2, 3}
	out := interpolateHoles(xs, []bool{true, true, true})
	for i := range xs {
		if out[i] != xs[i] {
			t.Fatal("no-hole case altered values")
		}
	}
}

// mkRec builds a minimal valid record.
func mkRec(tm timeutil.Millis, lat float64) telemetry.Record {
	return telemetry.Record{Time: tm, Action: telemetry.SelectMail, LatencyMS: lat, UserID: 1, UserType: telemetry.Business}
}

// TestUnbiasedSamplerNearest: every draw adopts the latency of the sample
// nearest its instant, either one at an exact midpoint.
func TestUnbiasedSamplerNearest(t *testing.T) {
	times, lats := []timeutil.Millis{0, 100, 1000}, []float64{100, 200, 300}
	draws, err := UnbiasedDraws(times, lats, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range draws {
		want := []float64{100}
		switch {
		case d.At == 50:
			want = []float64{100, 200}
		case d.At == 550:
			want = []float64{200, 300}
		case d.At > 550:
			want = []float64{300}
		case d.At > 50:
			want = []float64{200}
		}
		if !slices.Contains(want, d.LatencyMS) {
			t.Fatalf("draw at %d adopted %v, want one of %v", d.At, d.LatencyMS, want)
		}
	}
}

// TestUnbiasedSamplerTieAtMidpointSplits: samples at 0 and 2 leave the
// instant 1, a third of the draws, equally near both; those split evenly.
func TestUnbiasedSamplerTieAtMidpointSplits(t *testing.T) {
	draws, err := UnbiasedDraws([]timeutil.Millis{0, 2}, []float64{1, 2}, 30000, 2)
	if err != nil {
		t.Fatal(err)
	}
	var left, mid int
	for _, d := range draws {
		if d.At == 1 {
			mid++
			if d.LatencyMS == 1 {
				left++
			}
		}
	}
	frac := float64(left) / float64(mid)
	if mid < 9000 || math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("midpoint tie split %v over %d draws, want ~0.5", frac, mid)
	}
}

// TestUnbiasedSamplerSameTimeRandomPick: three samples at one instant share
// every draw evenly.
func TestUnbiasedSamplerSameTimeRandomPick(t *testing.T) {
	const n = 30000
	draws, err := UnbiasedDraws([]timeutil.Millis{10, 10, 10}, []float64{1, 2, 3}, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for _, d := range draws {
		counts[d.LatencyMS]++
	}
	if len(counts) != 3 {
		t.Fatalf("drew %v, want all three samples", counts)
	}
	for v, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/3) > 0.02 {
			t.Fatalf("value %v drawn with frequency %v", v, frac)
		}
	}
}

func TestUnbiasedSamplerTimeWeighting(t *testing.T) {
	// 100 dense samples (latency 100) in [0,1000); one isolated sample
	// (latency 900) at t=100000. Uniform draws over the span [0, 100001)
	// should assign the isolated sample its Voronoi cell [50495, 100001),
	// about half the mass, whereas its biased share is under 1%.
	var times []timeutil.Millis
	var lats []float64
	for i := 0; i < 100; i++ {
		times, lats = append(times, timeutil.Millis(i*10)), append(lats, 100)
	}
	times, lats = append(times, 100000), append(lats, 900)
	const n = 50000
	draws, err := UnbiasedDraws(times, lats, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	var slow int
	for _, d := range draws {
		if d.LatencyMS == 900 {
			slow++
		}
	}
	frac := float64(slow) / n
	want := (100001.0 - 50495.0) / 100001.0
	if math.Abs(frac-want) > 0.02 {
		t.Fatalf("isolated-sample unbiased mass %v, want ~%v", frac, want)
	}
}

// genRecords synthesizes one record stream from a latency-median function
// and an action-rate function, minute by minute.
func genRecords(src *rng.Source, horizon timeutil.Millis, latMedian func(timeutil.Millis) float64, sigma float64, ratePerMin func(timeutil.Millis) float64) []telemetry.Record {
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

func testEstimator(t *testing.T, mutate func(*Options)) *Estimator {
	t.Helper()
	o := DefaultOptions()
	o.ReferenceMS = 250
	if mutate != nil {
		mutate(&o)
	}
	e, err := NewEstimator(o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Planted preference, no time confounder: latency regime alternates every
// two hours (so it is uncorrelated with any diurnal pattern), and users act
// at half the rate in the slow regime. The estimated NLP at the slow
// latency must be ≈ 0.5 relative to the fast latency.
func TestEstimateRecoversPlantedPreference(t *testing.T) {
	src := rng.New(10)
	fastLat, slowLat := 250.0, 900.0
	regime := func(tm timeutil.Millis) bool { // true = slow
		return (tm/(2*timeutil.MillisPerHour))%2 == 1
	}
	records := genRecords(src, 4*timeutil.MillisPerDay,
		func(tm timeutil.Millis) float64 {
			if regime(tm) {
				return slowLat
			}
			return fastLat
		}, 0.25,
		func(tm timeutil.Millis) float64 {
			if regime(tm) {
				return 6
			}
			return 12
		})
	e := testEstimator(t, nil)
	c, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	atSlow, ok := c.At(slowLat)
	if !ok {
		t.Fatal("slow latency bin invalid")
	}
	atFast, ok := c.At(fastLat)
	if !ok {
		t.Fatal("fast latency bin invalid")
	}
	ratio := atSlow / atFast
	if math.Abs(ratio-0.5) > 0.1 {
		t.Fatalf("recovered preference ratio %v, want ~0.5", ratio)
	}
}

// No planted preference, strong time confounder: days are busy AND slow,
// nights quiet AND fast. The naive pooled estimate must report a spurious
// preference for high latency; the time-normalized estimate must be ≈ flat.
func confoundedRecords(seed uint64) []telemetry.Record {
	src := rng.New(seed)
	day := func(tm timeutil.Millis) bool {
		h := timeutil.HourOfDay(tm, 0)
		return h >= 8 && h < 20
	}
	return genRecords(src, 6*timeutil.MillisPerDay,
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

func TestTimeNormalizationRemovesConfounder(t *testing.T) {
	records := confoundedRecords(11)
	e := testEstimator(t, func(o *Options) {
		o.ReferenceMS = 300
	})

	naive, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := e.EstimateTimeNormalized(records)
	if err != nil {
		t.Fatal(err)
	}

	// Probe the NLP at a clearly-daytime latency level.
	probe := 650.0
	nv, ok := naive.At(probe)
	if !ok {
		t.Fatal("naive probe bin invalid")
	}
	tv, ok := norm.At(probe)
	if !ok {
		t.Fatal("normalized probe bin invalid")
	}
	if nv < 1.5 {
		t.Fatalf("naive NLP at %vms = %v; expected strong spurious preference (>1.5)", probe, nv)
	}
	if math.Abs(tv-1) > 0.3 {
		t.Fatalf("time-normalized NLP at %vms = %v; expected ~1 (no planted preference)", probe, tv)
	}
}

func TestEstimateEmptyInput(t *testing.T) {
	e := testEstimator(t, nil)
	if _, err := e.Estimate(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := e.EstimateTimeNormalized(nil); err == nil {
		t.Fatal("empty input accepted (normalized)")
	}
	failed := []telemetry.Record{{Time: 1, Action: telemetry.SelectMail, LatencyMS: 5, Failed: true}}
	if _, err := e.Estimate(failed); err == nil {
		t.Fatal("all-failed input accepted")
	}
}

func TestEstimateExcludesFailedRecords(t *testing.T) {
	src := rng.New(12)
	records := genRecords(src, timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 300 }, 0.3,
		func(timeutil.Millis) float64 { return 10 })
	// Poison with failed records at an extreme latency.
	for i := 0; i < len(records)/2; i++ {
		records = append(records, telemetry.Record{
			Time: records[i].Time, Action: telemetry.SelectMail,
			LatencyMS: 2900, UserID: 9, Failed: true,
		})
	}
	e := testEstimator(t, nil)
	c, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	// The 2900ms bin must hold no biased mass.
	idx := len(c.Biased) - 10 // bin centered at 2905
	for i := idx; i < len(c.Biased); i++ {
		if c.Biased[i] > 0 {
			t.Fatalf("failed records leaked into bin %d", i)
		}
	}
}

func TestCurveAtClampsRange(t *testing.T) {
	src := rng.New(13)
	records := genRecords(src, timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 300 }, 0.3,
		func(timeutil.Millis) float64 { return 10 })
	e := testEstimator(t, nil)
	c, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c.At(-100); math.IsNaN(v) {
		t.Fatal("below-range At returned NaN")
	}
	if v, _ := c.At(1e9); math.IsNaN(v) {
		t.Fatal("above-range At returned NaN")
	}
}

func TestCurveNLPIsOneAtReference(t *testing.T) {
	src := rng.New(14)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 350 }, 0.5,
		func(timeutil.Millis) float64 { return 10 })
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 350 })
	c, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c.At(350)
	if !ok {
		t.Fatal("reference bin invalid")
	}
	if math.Abs(v-1) > 1e-9 {
		t.Fatalf("NLP at reference = %v", v)
	}
}

func TestCurvePrefCurveAndValidRange(t *testing.T) {
	src := rng.New(15)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.4,
		func(timeutil.Millis) float64 { return 8 })
	e := testEstimator(t, nil)
	c, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := c.ValidRange()
	if !ok || lo >= hi {
		t.Fatalf("ValidRange = %v, %v, %v", lo, hi, ok)
	}
	pc, err := c.PrefCurve()
	if err != nil {
		t.Fatal(err)
	}
	mid := (lo + hi) / 2
	if v := pc.Eval(mid); v <= 0 {
		t.Fatalf("PrefCurve(%v) = %v", mid, v)
	}
}

func TestBiasedOnlyReflectsRawDistribution(t *testing.T) {
	// The biased-only baseline of a latency-stationary series peaks at
	// the latency mode regardless of activity, so its NLP curve just
	// mirrors B.
	src := rng.New(16)
	records := genRecords(src, timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 300 }, 0.2,
		func(timeutil.Millis) float64 { return 10 })
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 300 })
	c, err := pointOf(e.finishRecords(Request{Mode: ModeBiased}, records))
	if err != nil {
		t.Fatal(err)
	}
	// Mass far from the mode is tiny, so the NLP there collapses toward
	// zero — the known pathology of skipping the U correction.
	v, _ := c.At(1500)
	if v > 0.2 {
		t.Fatalf("biased-only NLP(1500) = %v, expected near zero", v)
	}
}

func TestDeterministicEstimates(t *testing.T) {
	records := confoundedRecords(17)
	e := testEstimator(t, nil)
	c1, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.Estimate(records)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.NLP {
		if c1.NLP[i] != c2.NLP[i] {
			t.Fatalf("estimate not deterministic at bin %d", i)
		}
	}
}
