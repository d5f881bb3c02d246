package experiments

import (
	"fmt"
	"io"
	"math"

	"autosens/internal/core"
	"autosens/internal/owasim"
	"autosens/internal/report"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func init() {
	register(Experiment{
		ID:    "gt-recovery",
		Title: "Validation: AutoSens recovers a planted ground-truth preference curve",
		Run:   runGTRecovery,
	})
	register(Experiment{
		ID:    "ablation-naive",
		Title: "Ablation: biased-only vs pooled B/U vs time-normalized estimation",
		Run:   runAblationNaive,
	})
}

// gtRecoveryEnsemble is the number of independent simulation realizations
// the ground-truth recovery experiment averages over. A single realization
// at test scale carries enough sampling noise that the headline error
// swings by ±0.05 with the simulator or estimator seed; averaging the
// recovered curves isolates the estimator's bias, which is what the
// experiment is meant to measure.
const gtRecoveryEnsemble = 3

// runGTRecovery simulates a clean population — oracle latency anticipation,
// homogeneous network quality, negligible per-request jitter, and no
// segment/period/conditioning modifiers — so the planted base curve is
// exactly what a perfect estimator should return, then measures how close
// the estimate gets. The recovered curve is averaged over a small ensemble
// of independent realizations so the reported error reflects estimator
// bias rather than one realization's noise. This validates the estimator
// end to end in a way the paper (with unknown real-world ground truth)
// could not.
func runGTRecovery(ctx *Context, w io.Writer) (*Outcome, error) {
	days := timeutil.Millis(10)
	users := 120
	if ctx.Scale == ScaleSmall {
		days, users = 6, 60
	}
	var sumNLP []float64
	var validIn []int
	var centers []float64
	var truth interface{ Eval(float64) float64 }
	for rep := uint64(0); rep < gtRecoveryEnsemble; rep++ {
		cfg := owasim.DefaultConfig(days*timeutil.MillisPerDay, users, 0)
		cfg.Seed = ctx.Sim.Seed + 777 + rep
		cfg.EWMABeta = 0 // oracle anticipation
		cfg.Pop.NetSigma = 0
		cfg.Latency.NoiseSigma = 0.01
		cfg.Truth.CalibrationGamma = 1
		cfg.Truth.ConditioningK = 0
		for p := range cfg.Truth.PeriodGamma {
			cfg.Truth.PeriodGamma[p] = 1
		}
		res, err := owasim.Run(cfg)
		if err != nil {
			return nil, err
		}
		recs := telemetry.ByAction(telemetry.Successful(res.Records), telemetry.SelectMail)
		est, err := ctx.Estimator()
		if err != nil {
			return nil, err
		}
		curve, err := est.EstimateTimeNormalized(recs)
		if err != nil {
			return nil, err
		}
		if sumNLP == nil {
			sumNLP = make([]float64, len(curve.NLP))
			validIn = make([]int, len(curve.NLP))
			centers = curve.BinCenters
			truth = cfg.Truth.Base[telemetry.SelectMail]
		}
		for i, v := range curve.NLP {
			if curve.Valid[i] {
				sumNLP[i] += v
				validIn[i]++
			}
		}
	}

	var xs, measured, planted []float64
	var worst, sum float64
	var n int
	for i := range sumNLP {
		ms := centers[i]
		// Score bins supported by a majority of the ensemble.
		if validIn[i] <= gtRecoveryEnsemble/2 || ms < 200 || ms > 1500 {
			continue
		}
		v := sumNLP[i] / float64(validIn[i])
		tv := truth.Eval(ms)
		xs = append(xs, ms)
		measured = append(measured, v)
		planted = append(planted, tv)
		d := math.Abs(v - tv)
		sum += d
		n++
		if d > worst {
			worst = d
		}
	}
	if n == 0 {
		return nil, errNoData
	}
	mx, my := report.Downsample(xs, measured, 70)
	px, py := report.Downsample(xs, planted, 70)
	mSeries := report.Series{Name: "measured NLP", X: mx, Y: my}
	pSeries := report.Series{Name: "planted truth", X: px, Y: py}
	chart := report.LineChart{
		Title:  "Ground-truth recovery under clean conditions (SelectMail)",
		XLabel: "latency (ms)", YLabel: "preference",
		Width: 72, Height: 16,
	}
	if err := chart.Render(w, mSeries, pSeries); err != nil {
		return nil, err
	}
	mean := sum / float64(n)
	fmt.Fprintf(w, "\nRecovery error over %d bins in [200, 1500] ms (%d-run ensemble): mean %.3f, max %.3f\n",
		n, gtRecoveryEnsemble, mean, worst)
	return &Outcome{
		Series: []report.Series{mSeries, pSeries},
		Values: map[string]float64{
			"mean_abs_error": mean,
			"max_abs_error":  worst,
		},
	}, nil
}

// runAblationNaive contrasts the three estimator levels on the same data,
// generalizing Table 1: the biased-only estimate is dominated by where
// latency mass sits; the pooled B/U estimate inherits the time confounder;
// the α-normalized estimate corrects it.
func runAblationNaive(ctx *Context, w io.Writer) (*Outcome, error) {
	recs := ctx.BusinessAction(telemetry.SelectMail)
	if len(recs) == 0 {
		return nil, errNoData
	}
	est, err := ctx.Estimator()
	if err != nil {
		return nil, err
	}
	times, lats := core.UsableColumns(recs)
	biased, err := est.Finish(core.Request{Mode: core.ModeBiased}, &core.Summary{Columns: core.Columns{Times: times, Lats: lats}}, nil)
	if err != nil {
		return nil, err
	}
	biasedOnly := biased.Curve
	pooled, err := est.Estimate(recs)
	if err != nil {
		return nil, err
	}
	normalized, err := est.EstimateTimeNormalized(recs)
	if err != nil {
		return nil, err
	}
	series := []report.Series{
		nlpSeries("biased-only", biasedOnly, 70),
		nlpSeries("pooled B/U", pooled, 70),
		nlpSeries("time-normalized", normalized, 70),
	}
	chart := report.LineChart{
		Title:  "Estimator ablation on business SelectMail (reference 300 ms)",
		XLabel: "latency (ms)", YLabel: "NLP",
		Width: 72, Height: 18,
	}
	if err := chart.Render(w, series...); err != nil {
		return nil, err
	}
	out := &Outcome{Series: series, Values: map[string]float64{}}
	rows := [][]string{}
	for _, lvl := range []struct {
		name  string
		curve interface{ At(float64) (float64, bool) }
	}{
		{"biased-only", biasedOnly},
		{"pooled", pooled},
		{"normalized", normalized},
	} {
		row := []string{lvl.name}
		for _, p := range probes {
			v, ok := lvl.curve.At(p)
			if !ok {
				v = math.NaN()
			}
			out.Values[fmt.Sprintf("%s@%.0f", lvl.name, p)] = v
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, row)
	}
	headers := []string{"estimator"}
	for _, p := range probes {
		headers = append(headers, fmt.Sprintf("NLP@%.0fms", p))
	}
	fmt.Fprintln(w)
	if err := (report.Table{Headers: headers}).Render(w, rows); err != nil {
		return nil, err
	}
	return out, nil
}
