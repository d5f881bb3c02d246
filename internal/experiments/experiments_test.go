package experiments

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

var (
	ctxOnce sync.Once
	ctxVal  *Context
	ctxErr  error
)

// sharedContext builds the small-scale simulation once for all tests.
func sharedContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		ctxVal, ctxErr = NewContext(ScaleSmall, 99)
	})
	if ctxErr != nil {
		t.Fatalf("context: %v", ctxErr)
	}
	return ctxVal
}

func runExp(t *testing.T, id string) *Outcome {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	out, err := e.Run(sharedContext(t), &sb)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if sb.Len() == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation-naive", "ablation-references", "ablation-smoothing", "ext-abtest", "ext-coverage", "ext-queueing", "ext-samplesize", "ext-seeds", "ext-sessions", "ext-window", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "gt-recovery", "table1"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestFig1LocalityOrdering(t *testing.T) {
	out := runExp(t, "fig1")
	a, s, so := out.Values["actual"], out.Values["shuffled"], out.Values["sorted"]
	if !(so < a && a < s) {
		t.Fatalf("ordering violated: sorted %v, actual %v, shuffled %v", so, a, s)
	}
	if a > 0.8 {
		t.Fatalf("actual ratio %v: locality too weak", a)
	}
	if math.Abs(s-1) > 0.1 {
		t.Fatalf("shuffled ratio %v, want ~1", s)
	}
}

func TestFig2SeriesPresent(t *testing.T) {
	out := runExp(t, "fig2")
	if len(out.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(out.Series))
	}
	if _, ok := out.Values["latency_activity_correlation"]; !ok {
		t.Fatal("correlation value missing")
	}
}

func TestFig3SmoothingReducesNoise(t *testing.T) {
	out := runExp(t, "fig3")
	if len(out.Series) != 4 {
		t.Fatalf("want 4 series, got %d", len(out.Series))
	}
	if out.Values["smoothing_residual"] <= 0 {
		t.Fatal("smoothing residual should be positive (raw ratio is noisy)")
	}
}

func TestTable1Exact(t *testing.T) {
	out := runExp(t, "table1")
	if math.Abs(out.Values["alpha_night"]-0.104166666) > 1e-6 {
		t.Fatalf("alpha_night = %v", out.Values["alpha_night"])
	}
	if !(out.Values["naive_high"] > out.Values["naive_low"]) {
		t.Fatal("naive paradox missing")
	}
	if !(out.Values["normalized_low"] > out.Values["normalized_high"]) {
		t.Fatal("normalization did not restore preference")
	}
}

func TestFig4ActionTypeOrdering(t *testing.T) {
	out := runExp(t, "fig4")
	// ComposeSend is the fastest action (asynchronous ack), so at small
	// scale its distribution rarely reaches 1000 ms; probe it at 700.
	sm := out.Values["SelectMail@1000"]
	sf := out.Values["SwitchFolder@1000"]
	se := out.Values["Search@1000"]
	sm700 := out.Values["SelectMail@700"]
	cs700 := out.Values["ComposeSend@700"]
	if math.IsNaN(sm) || math.IsNaN(sf) || math.IsNaN(se) || math.IsNaN(cs700) {
		t.Fatalf("NaN probe values: %v %v %v %v", sm, sf, se, cs700)
	}
	// SelectMail most sensitive; Search mild; ComposeSend ~flat.
	if !(sm < se) {
		t.Fatalf("SelectMail (%.3f) should drop below Search (%.3f)", sm, se)
	}
	if !(sm700 < cs700) {
		t.Fatalf("SelectMail (%.3f) should drop below ComposeSend (%.3f) at 700ms", sm700, cs700)
	}
	if cs700 < 0.8 {
		t.Fatalf("ComposeSend NLP at 700ms = %.3f; should stay near 1 (asynchronous)", cs700)
	}
	if sm > 0.85 {
		t.Fatalf("SelectMail NLP at 1000ms = %.3f; expected a clear drop", sm)
	}
	// Section 3.5: drop factors per doubling well under 2x.
	if f := out.Values["drop_1000_to_2000"]; !math.IsNaN(f) && f > 1.8 {
		t.Fatalf("drop factor 1000->2000 = %.2f suggests pure bottleneck", f)
	}
}

func TestFig5SegmentOrdering(t *testing.T) {
	out := runExp(t, "fig5")
	b := out.Values["SelectMail/business@1000"]
	c := out.Values["SelectMail/consumer@1000"]
	if math.IsNaN(b) || math.IsNaN(c) {
		t.Fatalf("NaN probes: %v %v", b, c)
	}
	if !(b < c) {
		t.Fatalf("business (%.3f) should be more sensitive than consumer (%.3f)", b, c)
	}
}

func TestFig6QuartileOrdering(t *testing.T) {
	out := runExp(t, "fig6")
	q1 := out.Values["SelectMail/Q1@700"]
	q4 := out.Values["SelectMail/Q4@700"]
	if math.IsNaN(q1) || math.IsNaN(q4) {
		t.Fatalf("NaN probes: %v %v", q1, q4)
	}
	if !(q1 < q4) {
		t.Fatalf("Q1 (%.3f) should be more sensitive than Q4 (%.3f)", q1, q4)
	}
}

func TestFig7PeriodOrdering(t *testing.T) {
	out := runExp(t, "fig7")
	// The deep-night slice sees little high-latency traffic at small
	// scale, so compare at the largest probe where both are valid.
	for _, probe := range []string{"1000", "700", "500"} {
		day := out.Values["SelectMail/8am-2pm@"+probe]
		night := out.Values["SelectMail/2am-8am@"+probe]
		if math.IsNaN(day) || math.IsNaN(night) {
			continue
		}
		if !(day < night) {
			t.Fatalf("at %sms: daytime (%.3f) should be more sensitive than deep night (%.3f)", probe, day, night)
		}
		return
	}
	t.Fatal("no probe latency had valid day and night values")
}

func TestFig8AlphaOrdering(t *testing.T) {
	out := runExp(t, "fig8")
	ref := out.Values["alpha_8am-2pm"]
	night := out.Values["alpha_2am-8am"]
	if ref != 1 {
		t.Fatalf("reference alpha = %v", ref)
	}
	if math.IsNaN(night) || night >= 0.7 {
		t.Fatalf("night alpha = %v, want well below 1", night)
	}
	// Flat in latency: coefficient of variation below 50% for the
	// evening period.
	if cv, ok := out.Values["alpha_cv_2pm-8pm"]; ok && cv > 0.5 {
		t.Fatalf("alpha varies too much across bins: cv=%v", cv)
	}
}

func TestFig9Stability(t *testing.T) {
	out := runExp(t, "fig9")
	// At small scale only SelectMail (the dominant action) has enough
	// records per half-window for a stable comparison; the paper-scale
	// run checks both actions over full months.
	checked := false
	for k, v := range out.Values {
		if strings.HasPrefix(k, "max_month_gap_SelectMail") {
			checked = true
			if v > 0.25 {
				t.Fatalf("%s = %v: periods disagree too much", k, v)
			}
		}
	}
	if !checked {
		t.Fatal("no SelectMail stability value reported")
	}
}

func TestGTRecovery(t *testing.T) {
	out := runExp(t, "gt-recovery")
	// Thresholds are set from the ensemble error's spread across
	// simulator and estimator seeds (mean 0.04–0.11, max 0.13–0.20 at
	// this scale), not from any one stream: the NLP scale runs 1.0 at the
	// reference down to ~0.4, so a mean bin error around 0.1 still pins
	// the recovered curve to the planted one.
	if out.Values["mean_abs_error"] > 0.14 {
		t.Fatalf("mean recovery error %v too large", out.Values["mean_abs_error"])
	}
	if out.Values["max_abs_error"] > 0.25 {
		t.Fatalf("max recovery error %v too large", out.Values["max_abs_error"])
	}
}

func TestAblationNaive(t *testing.T) {
	out := runExp(t, "ablation-naive")
	biased := out.Values["biased-only@1000"]
	normalized := out.Values["normalized@1000"]
	if math.IsNaN(biased) || math.IsNaN(normalized) {
		t.Fatalf("NaN probes: %v %v", biased, normalized)
	}
	// The biased-only estimate collapses at rarely-seen latencies; the
	// normalized estimate reflects the planted moderate preference.
	if !(biased < normalized) {
		t.Fatalf("biased-only (%.3f) should undershoot normalized (%.3f) at 1000ms", biased, normalized)
	}
}

func TestExtABTestAgreement(t *testing.T) {
	out := runExp(t, "ext-abtest")
	for _, d := range []string{"200", "500"} {
		measured := out.Values["measured@+"+d]
		predicted := out.Values["predicted@+"+d]
		if math.IsNaN(measured) || math.IsNaN(predicted) {
			t.Fatalf("+%sms: NaN values %v / %v", d, measured, predicted)
		}
		if measured >= 1 {
			t.Fatalf("+%sms: injection did not suppress activity (%v)", d, measured)
		}
		if out.Values["abs_error@+"+d] > 0.2 {
			t.Fatalf("+%sms: passive prediction off by %v (measured %v, predicted %v)",
				d, out.Values["abs_error@+"+d], measured, predicted)
		}
		// The natural-experiment estimate is conservative: prediction
		// above (milder than) the true measured suppression. The slack
		// covers the prediction's residual seed spread (about ±0.02
		// around measured−0.03 at the small injection even after the
		// experiment's seed ensemble).
		if predicted < measured-0.1 {
			t.Fatalf("+%sms: prediction %v should not exceed the measured drop %v", d, predicted, measured)
		}
	}
	// Larger injections must suppress more.
	if out.Values["measured@+500"] >= out.Values["measured@+200"] {
		t.Fatalf("dose-response inverted: %v at +200 vs %v at +500",
			out.Values["measured@+200"], out.Values["measured@+500"])
	}
}

func TestExtQueueingRobustness(t *testing.T) {
	out := runExp(t, "ext-queueing")
	gap := out.Values["max_substrate_gap"]
	if math.IsNaN(gap) || gap == 0 {
		t.Fatalf("no substrate comparison computed (gap=%v)", gap)
	}
	if gap > 0.15 {
		t.Fatalf("substrate changed the estimate by %v NLP", gap)
	}
	// Both variants must show a real preference drop by 1000 ms.
	for _, name := range []string{"parametric", "mmc-queueing"} {
		v := out.Values[name+"@1000"]
		if math.IsNaN(v) || v > 0.9 {
			t.Fatalf("%s NLP@1000 = %v: planted preference not visible", name, v)
		}
	}
}

func TestExtSampleSizeConvergence(t *testing.T) {
	out := runExp(t, "ext-samplesize")
	if len(out.Series) == 0 || len(out.Series[0].X) < 2 {
		t.Fatal("no convergence series")
	}
	// The longest prefix must be closer to the full estimate than a
	// trivially short one would reasonably be, and all deviations finite.
	last := out.Series[0].Y[len(out.Series[0].Y)-1]
	if math.IsNaN(last) || last > 0.15 {
		t.Fatalf("longest prefix still deviates by %v", last)
	}
}

func TestExtSeedsStability(t *testing.T) {
	out := runExp(t, "ext-seeds")
	for _, p := range []string{"500", "700"} {
		spread, ok := out.Values["spread@"+p]
		if !ok {
			t.Fatalf("no spread at %sms", p)
		}
		if spread > 0.1 {
			t.Fatalf("NLP at %sms varies by %v across seeds", p, spread)
		}
		mean := out.Values["mean@"+p]
		if math.IsNaN(mean) || mean <= 0 || mean > 1.2 {
			t.Fatalf("implausible mean NLP %v at %sms", mean, p)
		}
	}
}

func TestExtSessionsMechanism(t *testing.T) {
	out := runExp(t, "ext-sessions")
	if out.Values["sessions"] < 100 {
		t.Fatalf("only %v sessions", out.Values["sessions"])
	}
	fast := out.Values["continue@300"]
	slow := out.Values["continue@1000"]
	if math.IsNaN(fast) {
		t.Fatal("no continuation estimate at 300ms")
	}
	if fast <= 0.5 || fast > 1 {
		t.Fatalf("continuation at 300ms = %v", fast)
	}
	// Slower actions must be followed less often (when supported).
	if !math.IsNaN(slow) && slow >= fast {
		t.Fatalf("continuation should fall with latency: %v at 300ms vs %v at 1000ms", fast, slow)
	}
}

func TestExtWindowBias(t *testing.T) {
	out := runExp(t, "ext-window")
	if len(out.Series) == 0 || len(out.Series[0].X) < 3 {
		t.Fatal("no window-bias series")
	}
	// Every window at or past half a day must sit in the converged band:
	// close to the estimator's clean-conditions recovery floor, so a
	// deployment clamping history away (retention, window=) loses nothing.
	for i, hours := range out.Series[0].X {
		err := out.Series[0].Y[i]
		if math.IsNaN(err) {
			t.Fatalf("%gh window: NaN error", hours)
		}
		if hours >= 12 && err > 0.15 {
			t.Fatalf("%gh window deviates from planted truth by %v", hours, err)
		}
	}
	// The starved end must be visibly worse than the best converged
	// window — otherwise the experiment isn't resolving the effect.
	starved := out.Series[0].Y[0]
	best := math.Inf(1)
	for i, hours := range out.Series[0].X {
		if hours >= 12 && out.Series[0].Y[i] < best {
			best = out.Series[0].Y[i]
		}
	}
	if starved <= best {
		t.Fatalf("starved %gh window (err %v) not worse than best converged window (%v)",
			out.Series[0].X[0], starved, best)
	}
}

func TestFebruaryOrAll(t *testing.T) {
	ctx := sharedContext(t)
	recs := ctx.Records
	// Small scale: 7 days => single month => whole window returned.
	if got := ctx.FebruaryOrAll(recs); len(got) != len(recs) {
		t.Fatalf("FebruaryOrAll returned %d of %d records", len(got), len(recs))
	}
}

func TestSimConfigScales(t *testing.T) {
	small := SimConfig(ScaleSmall, 1)
	paper := SimConfig(ScalePaper, 1)
	if small.Horizon >= paper.Horizon {
		t.Fatal("small horizon should be below paper horizon")
	}
	if paper.Horizon != 59*timeutil.MillisPerDay {
		t.Fatalf("paper horizon = %v, want 59 days (Jan+Feb)", paper.Horizon)
	}
}

func TestAllExperimentsRunToCompletion(t *testing.T) {
	ctx := sharedContext(t)
	for _, e := range All() {
		if e.ID == "ext-coverage" {
			continue // a minute-long ensemble; TestCoverageGate runs it reduced
		}
		if _, err := e.Run(ctx, io.Discard); err != nil {
			t.Fatalf("%s failed: %v", e.ID, err)
		}
	}
}

func TestBusinessActionFiltering(t *testing.T) {
	ctx := sharedContext(t)
	recs := ctx.BusinessAction(telemetry.Search)
	if len(recs) == 0 {
		t.Fatal("no business Search records")
	}
	for _, r := range recs[:10] {
		if r.Action != telemetry.Search || r.UserType != telemetry.Business {
			t.Fatalf("mis-filtered record %+v", r)
		}
	}
}

// coverageGateConfig is the reduced ensemble `make coverage` runs: one cell
// of the ext-coverage table — the clean regime, plain mode, the 6 h default
// block — over the 32 realizations the shared test context seeds.
func coverageGateConfig() CoverageConfig {
	cfg := DefaultCoverageConfig()
	cfg.Regimes = []string{"clean"}
	cfg.BlockHours = []float64{6}
	cfg.Normalized = []bool{false}
	return cfg
}

// coverageGateParent is the leave-one-out ensemble-mean coverage of the
// plain 6 h band at PR 20 (re-timed replicates), measured by this same file
// on coverageGateConfig's realizations; see EXPERIMENTS.md "ext-coverage".
const coverageGateParent = 0.883

// TestCoverageGate is `make coverage`: the plain 6 h band must hold the
// estimator's own ensemble mean no more than 0.03 less often than the
// re-timed bootstrap it replaced did on the same realizations.
func TestCoverageGate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 32-realization ensemble; skipped with -short")
	}
	var sb strings.Builder
	out, err := RunCoverage(sharedContext(t), coverageGateConfig(), &sb)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + sb.String())
	got, ok := out.Values["clean/plain/6h/mean"]
	if !ok {
		t.Fatal("no plain 6 h cell")
	}
	if got < coverageGateParent-0.03 {
		t.Fatalf("plain 6 h ensemble-mean coverage %.3f is more than 0.03 below the parent's %.3f", got, coverageGateParent)
	}
}
