package core

import (
	"math"
	"runtime"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// curvesEqual asserts two curves are bitwise identical in every derived
// series (not merely close: worker scheduling must not leak into results).
func curvesEqual(t *testing.T, name string, a, b *Curve) {
	t.Helper()
	if len(a.NLP) != len(b.NLP) {
		t.Fatalf("%s: bin count differs: %d vs %d", name, len(a.NLP), len(b.NLP))
	}
	for i := range a.NLP {
		if a.NLP[i] != b.NLP[i] && !(math.IsNaN(a.NLP[i]) && math.IsNaN(b.NLP[i])) {
			t.Fatalf("%s: NLP[%d] differs: %v vs %v", name, i, a.NLP[i], b.NLP[i])
		}
		if a.Valid[i] != b.Valid[i] {
			t.Fatalf("%s: Valid[%d] differs", name, i)
		}
		if a.Biased[i] != b.Biased[i] || a.Unbiased[i] != b.Unbiased[i] {
			t.Fatalf("%s: distribution bin %d differs", name, i)
		}
	}
}

func workerVariants() []int {
	return []int{1, 4, 8, runtime.GOMAXPROCS(0)}
}

// TestEstimateWorkerInvariance pins the estimator outputs to be bitwise
// identical at any worker count, for both the pooled and the
// time-normalized levels.
func TestEstimateWorkerInvariance(t *testing.T) {
	records := confoundedRecords(5)
	var basePlain, baseNorm *Curve
	for _, w := range workerVariants() {
		e := testEstimator(t, func(o *Options) {
			o.ReferenceMS = 300
			o.Workers = w
		})
		plain, err := e.Estimate(records)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := e.EstimateTimeNormalized(records)
		if err != nil {
			t.Fatal(err)
		}
		if basePlain == nil {
			basePlain, baseNorm = plain, norm
			continue
		}
		curvesEqual(t, "estimate", basePlain, plain)
		curvesEqual(t, "estimate_time_normalized", baseNorm, norm)
	}
}

// TestEstimateCIWorkerInvariance pins the bootstrap bounds to be bitwise
// identical at any worker count (plain and time-normalized replicates).
func TestEstimateCIWorkerInvariance(t *testing.T) {
	records := confoundedRecords(5)
	for _, normalized := range []bool{false, true} {
		var base *CurveCI
		for _, w := range workerVariants() {
			e := testEstimator(t, func(o *Options) {
				o.ReferenceMS = 300
				o.Workers = w
			})
			opts := smallCIOptions()
			opts.TimeNormalized = normalized
			opts.Workers = w
			ci, err := e.EstimateCI(records, opts)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = ci
				continue
			}
			if ci.Replicates != base.Replicates {
				t.Fatalf("normalized=%v workers=%d: replicates %d vs %d",
					normalized, w, ci.Replicates, base.Replicates)
			}
			curvesEqual(t, "ci point", base.Curve, ci.Curve)
			for i := range base.Lower {
				sameLo := base.Lower[i] == ci.Lower[i] || (math.IsNaN(base.Lower[i]) && math.IsNaN(ci.Lower[i]))
				sameHi := base.Upper[i] == ci.Upper[i] || (math.IsNaN(base.Upper[i]) && math.IsNaN(ci.Upper[i]))
				if !sameLo || !sameHi {
					t.Fatalf("normalized=%v workers=%d: bounds bin %d differ: [%v,%v] vs [%v,%v]",
						normalized, w, i, base.Lower[i], base.Upper[i], ci.Lower[i], ci.Upper[i])
				}
			}
		}
	}
}

// TestEstimateCIRerunReproducible guards the basic same-config determinism
// the worker invariance builds on.
func TestEstimateCIRerunReproducible(t *testing.T) {
	records := confoundedRecords(9)
	e := testEstimator(t, func(o *Options) { o.ReferenceMS = 300 })
	a, err := e.EstimateCI(records, smallCIOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.EstimateCI(records, smallCIOptions())
	if err != nil {
		t.Fatal(err)
	}
	curvesEqual(t, "rerun point", a.Curve, b.Curve)
	for i := range a.Lower {
		if a.Lower[i] != b.Lower[i] && !(math.IsNaN(a.Lower[i]) && math.IsNaN(b.Lower[i])) {
			t.Fatalf("rerun bounds differ at bin %d", i)
		}
	}
}

// TestSweepMatchesPerDrawDistribution checks the batch sweep sampler is
// distributionally faithful to the per-draw reference implementation: a
// two-sample KS statistic over the binned CDFs must stay under the
// large-sample 1% critical value.
func TestSweepMatchesPerDrawDistribution(t *testing.T) {
	src := rng.New(99)
	var recs []timeutil.Millis
	var lats []float64
	tms := timeutil.Millis(0)
	for i := 0; i < 4000; i++ {
		tms += timeutil.Millis(src.Exp(1.0/3000.0)) + 1
		lat := src.LogNormal(math.Log(400), 0.5)
		recs = append(recs, tms)
		lats = append(lats, lat)
		if i%7 == 0 { // duplicate timestamps exercise the tie-break path
			recs = append(recs, tms)
			lats = append(lats, lat*2)
		}
	}
	s := &unbiasedSampler{times: recs, latencies: lats}
	lo := recs[0]
	hi := recs[len(recs)-1] + 1
	const n = 120000

	e, err := NewEstimator(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perDraw := e.newHist()
	src1 := rng.New(5)
	for k := 0; k < n; k++ {
		perDraw.Add(s.draw(lo, hi, src1))
	}
	sweep := e.newHist()
	src2 := rng.New(5)
	fillUnbiasedSweep(s.times, s.latencies, lo, hi, n, src2, nil, sweep)

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
		if d := math.Abs(c1 - c2); d > ks {
			ks = d
		}
	}
	// Two-sample KS critical value at alpha=0.01 for equal sample sizes.
	crit := 1.63 * math.Sqrt(2.0/float64(n))
	if ks > crit {
		t.Fatalf("KS statistic %v exceeds critical value %v: sweep sampler is not distributionally faithful", ks, crit)
	}
}
