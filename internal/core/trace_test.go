package core

import (
	"testing"
	"time"

	"autosens/internal/obs"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

func TestEstimateRecordsStageSpans(t *testing.T) {
	src := rng.New(7)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.3,
		func(timeutil.Millis) float64 { return 3 })

	est := testEstimator(t, nil)
	tr := obs.NewTracer("test")
	est.SetTrace(tr.Root())
	if _, err := est.Estimate(records); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()

	sp := root.Find("estimate")
	if sp == nil {
		t.Fatal("no estimate span recorded")
	}
	for _, stage := range []string{"build_biased_histogram", "sample_unbiased", "savitzky_golay_smooth"} {
		if sp.Find(stage) == nil {
			t.Fatalf("stage span %q missing", stage)
		}
	}
	if v, ok := sp.Attr("records"); !ok || v.(int) != len(records) {
		t.Fatalf("records attr = %v, %v", v, ok)
	}
	if v, ok := sp.Find("sample_unbiased").Attr("draws"); !ok || v.(int) <= 0 {
		t.Fatalf("draws attr = %v, %v", v, ok)
	}
	// Stage durations must fit inside their parent.
	var sum time.Duration
	for _, c := range sp.Children() {
		sum += c.Duration()
	}
	if sum > sp.Duration() {
		t.Fatalf("children (%v) exceed parent (%v)", sum, sp.Duration())
	}
}

func TestEstimateTimeNormalizedStageSpans(t *testing.T) {
	src := rng.New(9)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.3,
		func(timeutil.Millis) float64 { return 3 })

	est := testEstimator(t, func(o *Options) { o.MinSlotActions = 10 })
	tr := obs.NewTracer("test")
	est.SetTrace(tr.Root())
	if _, err := est.EstimateTimeNormalized(records); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()

	sp := root.Find("estimate_time_normalized")
	if sp == nil {
		t.Fatal("no estimate_time_normalized span")
	}
	for _, stage := range []string{"partition_slots", "build_biased_histograms",
		"sample_unbiased", "alpha_reference", "savitzky_golay_smooth", "average_curves"} {
		if sp.Find(stage) == nil {
			t.Fatalf("stage span %q missing", stage)
		}
	}
	// One alpha_reference span per reference slot actually used.
	refs := 0
	for _, c := range sp.Children() {
		if c.Name() == "alpha_reference" {
			refs++
			if _, ok := c.Attr("pooled_slots"); !ok {
				t.Fatal("alpha_reference span lacks pooled_slots attr")
			}
		}
	}
	if refs == 0 || refs > est.Options().ReferenceSlots {
		t.Fatalf("%d alpha_reference spans", refs)
	}
}

func TestEstimateCIBootstrapSpan(t *testing.T) {
	src := rng.New(11)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.3,
		func(timeutil.Millis) float64 { return 2 })

	for _, normalized := range []bool{false, true} {
		est := testEstimator(t, nil)
		tr := obs.NewTracer("test")
		est.SetTrace(tr.Root())
		opts := DefaultCIOptions()
		opts.Resamples = 4
		opts.TimeNormalized = normalized
		band, err := est.EstimateCI(records, opts)
		if err != nil {
			t.Fatal(err)
		}
		root := tr.Finish()

		ci := root.Find("estimate_ci")
		if ci == nil {
			t.Fatal("no estimate_ci span")
		}
		boot := ci.Find("bootstrap")
		if boot == nil {
			t.Fatal("no bootstrap span")
		}
		if v, ok := boot.Attr("replicates"); !ok || v.(int) != band.Replicates {
			t.Fatalf("replicates attr = %v, want %d", v, band.Replicates)
		}
		// Replicates run untraced: the bootstrap span must not accumulate
		// per-replicate stage children.
		if len(boot.Children()) != 0 {
			t.Fatalf("bootstrap span has %d children", len(boot.Children()))
		}
		// The point estimate is traced under estimate_ci.
		point := "estimate"
		if normalized {
			point = "estimate_time_normalized"
		}
		if ci.Find(point) == nil {
			t.Fatalf("point estimate span %s missing under estimate_ci", point)
		}

		// Normalized replicate slots, summed over the 4 replicates: 48
		// hourly slots each, drawn from the shared tables but for the edge
		// slots clipped to a replicate's window (one replicate's last block
		// runs past its last retained hour, which is then full). The window
		// starts 36 ms past an hour, so each of the 8 block positions holds 5
		// whole hours, whose biased histograms are reused. Those that are
		// full (all but the 3 clipped last hours) are filled from the sweeps
		// of 118 (rank, hour) pairs; the 28 hours across block edges sweep
		// their tables themselves, and the 15 of those that hold records of
		// both picked blocks copy their rows. Every replicate is slotted
		// from its block picks.
		want := map[string]int{"table_slots": 28, "pair_slots": 157, "fallback_slots": 7, "biased_reused": 160,
			"pairs_swept": 118, "pairs_tied": 0, "slots_joined": 15, "replicates_resampled": 0}
		for name, n := range want {
			v, ok := boot.Attr(name)
			switch {
			case !normalized && ok:
				t.Fatalf("plain bootstrap span carries %s", name)
			case normalized && (!ok || v.(int) != n):
				t.Fatalf("%s attr = %v, want %d", name, v, n)
			}
		}
	}
}

// TestUntracedEstimatorUnchanged pins that tracing is purely additive: the
// same seed with and without a trace produces the identical curve.
func TestUntracedEstimatorUnchanged(t *testing.T) {
	src := rng.New(13)
	records := genRecords(src, 2*timeutil.MillisPerDay,
		func(timeutil.Millis) float64 { return 400 }, 0.3,
		func(timeutil.Millis) float64 { return 3 })

	plain := testEstimator(t, func(o *Options) { o.MinSlotActions = 10 })
	traced := testEstimator(t, func(o *Options) { o.MinSlotActions = 10 })
	traced.SetTrace(obs.NewTracer("t").Root())

	a, err := plain.EstimateTimeNormalized(records)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.EstimateTimeNormalized(records)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.NLP {
		if a.NLP[i] != b.NLP[i] || a.Valid[i] != b.Valid[i] {
			t.Fatalf("bin %d diverged: %v vs %v", i, a.NLP[i], b.NLP[i])
		}
	}
}
