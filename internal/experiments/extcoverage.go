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
		ID:    "ext-coverage",
		Title: "Extension: measured coverage of the bootstrap bands vs ensemble mean and planted truth",
		Run: func(ctx *Context, w io.Writer) (*Outcome, error) {
			return RunCoverage(ctx, DefaultCoverageConfig(), w)
		},
	})
}

// CoverageConfig sizes the ext-coverage ensemble.
type CoverageConfig struct {
	// Realizations is the number of independently seeded simulation runs
	// per regime.
	Realizations int
	// Regimes are the owasim regimes to measure: "clean", "incident",
	// "pref-shift".
	Regimes []string
	// BlockHours are the bootstrap block lengths under study.
	BlockHours []float64
	// Normalized lists the estimator modes: false is the plain pooled
	// estimate, true the time-normalized one.
	Normalized []bool
}

// DefaultCoverageConfig is the full table committed in EXPERIMENTS.md.
func DefaultCoverageConfig() CoverageConfig {
	return CoverageConfig{
		Realizations: 32,
		Regimes:      []string{"clean", "incident", "pref-shift"},
		BlockHours:   []float64{1, 3, 6, 12},
		Normalized:   []bool{false, true},
	}
}

// coverageRegime returns the scheduled regimes planted on top of the clean
// gt-recovery configuration: a fleet-wide 12 h latency regression in the
// middle of the window, or a sensitivity steepening over its second half.
// Both leave the planted base curve as the reference the truth column is
// scored against, so that column reads "how far the regime drags the band
// from the stationary answer", not a time-averaged truth.
func coverageRegime(name string, horizon timeutil.Millis) (*owasim.RegimeSchedule, error) {
	switch name {
	case "clean":
		return nil, nil
	case "incident":
		return &owasim.RegimeSchedule{LatencyIncidents: []owasim.LatencyIncident{{
			Start: horizon/2 - 6*timeutil.MillisPerHour, End: horizon/2 + 6*timeutil.MillisPerHour,
			Severity: 2.5, UserFraction: 1,
		}}}, nil
	case "pref-shift":
		return &owasim.RegimeSchedule{PrefShifts: []owasim.PrefShift{{
			Start: horizon / 2, End: horizon, GammaScale: 1.6,
		}}}, nil
	}
	return nil, fmt.Errorf("experiments: unknown coverage regime %q", name)
}

// coverageName is the stable key prefix of one table cell.
func coverageName(regime string, normalized bool, blockHours float64) string {
	mode := "plain"
	if normalized {
		mode = "normalized"
	}
	return fmt.Sprintf("%s/%s/%gh", regime, mode, blockHours)
}

// RunCoverage measures what the bootstrap bands of EstimateCI actually
// cover. A nominal-90 % band is an interval for the estimator's sampling
// spread, so the natural yardstick is the estimator's own mean: over an
// ensemble of independently seeded realizations of one configuration, the
// leave-one-out ensemble-mean curve stands in for the estimator's
// expectation, and the band of each realization should hold it at about
// the nominal rate. Planted truth is reported beside it: the gap between
// the two columns is estimator bias, which no resampling of one realization
// can see.
//
// Per cell (regime × mode × block length) it reports, over every
// realization and every bin in [200, 1500] ms where that realization's
// band is defined: (i) the share holding the leave-one-out ensemble mean,
// (ii) the share holding the planted base curve, (iii) the mean band width.
// It is written against the public EstimateCI only, so the same file
// measures any commit's bootstrap.
func RunCoverage(ctx *Context, cfg CoverageConfig, w io.Writer) (*Outcome, error) {
	const days, users = 6, 60
	horizon := timeutil.Millis(days) * timeutil.MillisPerDay
	est, err := ctx.Estimator()
	if err != nil {
		return nil, err
	}
	out := &Outcome{Values: map[string]float64{}}
	var rows [][]string
	for _, regime := range cfg.Regimes {
		schedule, err := coverageRegime(regime, horizon)
		if err != nil {
			return nil, err
		}
		// points[m][r] is realization r's point curve in mode m;
		// bands[m][b][r] its band at block length b (nil where refused).
		points := make([][]*core.Curve, len(cfg.Normalized))
		bands := make([][][]*core.CurveCI, len(cfg.Normalized))
		for m := range cfg.Normalized {
			points[m] = make([]*core.Curve, cfg.Realizations)
			bands[m] = make([][]*core.CurveCI, len(cfg.BlockHours))
			for b := range cfg.BlockHours {
				bands[m][b] = make([]*core.CurveCI, cfg.Realizations)
			}
		}
		var truth interface{ Eval(float64) float64 }
		for r := 0; r < cfg.Realizations; r++ {
			sim := owasim.DefaultConfig(horizon, users, 0)
			sim.Seed = ctx.Sim.Seed + 9001 + uint64(r)*7919
			sim.EWMABeta = 0 // oracle anticipation
			sim.Pop.NetSigma = 0
			sim.Latency.NoiseSigma = 0.01
			sim.Truth.CalibrationGamma = 1
			sim.Truth.ConditioningK = 0
			for p := range sim.Truth.PeriodGamma {
				sim.Truth.PeriodGamma[p] = 1
			}
			sim.Regimes = schedule
			res, err := owasim.Run(sim)
			if err != nil {
				return nil, err
			}
			truth = sim.Truth.Base[telemetry.SelectMail]
			recs := telemetry.ByAction(telemetry.Successful(res.Records), telemetry.SelectMail)
			for m, normalized := range cfg.Normalized {
				for b, hours := range cfg.BlockHours {
					opts := core.DefaultCIOptions()
					opts.BlockLen = timeutil.Millis(hours * float64(timeutil.MillisPerHour))
					opts.TimeNormalized = normalized
					ci, err := est.EstimateCI(recs, opts)
					if err != nil {
						continue // refused: the cell's realization count shows it
					}
					points[m][r] = ci.Curve
					bands[m][b][r] = ci
				}
			}
		}

		for m, normalized := range cfg.Normalized {
			// Ensemble sums for the leave-one-out mean.
			var sum []float64
			var count []int
			for _, c := range points[m] {
				if c == nil {
					continue
				}
				if sum == nil {
					sum = make([]float64, len(c.NLP))
					count = make([]int, len(c.NLP))
				}
				for i, v := range c.NLP {
					if c.Valid[i] {
						sum[i] += v
						count[i]++
					}
				}
			}
			for b, hours := range cfg.BlockHours {
				var probes, holdsMean, holdsTruth, withBand int
				var width float64
				for r, band := range bands[m][b] {
					if band == nil {
						continue
					}
					withBand++
					c := points[m][r]
					for i, ms := range c.BinCenters {
						lo, hi := band.Lower[i], band.Upper[i]
						if ms < 200 || ms > 1500 || math.IsNaN(lo) || math.IsNaN(hi) {
							continue
						}
						// Leave realization r out of the mean it is scored
						// against; require a majority of the others.
						s, n := sum[i], count[i]
						if c.Valid[i] {
							s -= c.NLP[i]
							n--
						}
						if n <= (cfg.Realizations-1)/2 {
							continue
						}
						probes++
						if mean := s / float64(n); lo <= mean && mean <= hi {
							holdsMean++
						}
						if tv := truth.Eval(ms); lo <= tv && tv <= hi {
							holdsTruth++
						}
						width += hi - lo
					}
				}
				name := coverageName(regime, normalized, hours)
				if probes == 0 {
					rows = append(rows, []string{name, fmt.Sprintf("%d", withBand), "0", "-", "-", "-"})
					continue
				}
				covMean := float64(holdsMean) / float64(probes)
				covTruth := float64(holdsTruth) / float64(probes)
				meanWidth := width / float64(probes)
				out.Values[name+"/mean"] = covMean
				out.Values[name+"/truth"] = covTruth
				out.Values[name+"/width"] = meanWidth
				rows = append(rows, []string{
					name,
					fmt.Sprintf("%d", withBand),
					fmt.Sprintf("%d", probes),
					fmt.Sprintf("%.3f", covMean),
					fmt.Sprintf("%.3f", covTruth),
					fmt.Sprintf("%.3f", meanWidth),
				})
			}
		}
	}
	if len(out.Values) == 0 {
		return nil, errNoData
	}
	if err := (report.Table{
		Title: fmt.Sprintf("Nominal-90%% bootstrap bands over %d realizations per regime (SelectMail, bins in [200, 1500] ms)",
			cfg.Realizations),
		Headers: []string{"regime/mode/block", "bands", "probes", "holds LOO mean", "holds truth", "mean width"},
	}).Render(w, rows); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nThe band is an interval for sampling spread around the estimator's own\n")
	fmt.Fprintf(w, "expectation (the leave-one-out ensemble mean); where the estimator is biased\n")
	fmt.Fprintf(w, "against the planted curve, as plain mode is on time-confounded data, the truth\n")
	fmt.Fprintf(w, "column falls far below it and no choice of block length repairs that.\n")
	return out, nil
}
