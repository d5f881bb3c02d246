package experiments

import (
	"fmt"
	"io"
	"math"

	"autosens/internal/pipeline"
	"autosens/internal/report"
	"autosens/internal/stats"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: NLP across times of day (SelectMail, business users)",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8: time-based activity factor alpha per 6-hour period",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: stability across months (SelectMail and SwitchFolder)",
		Run:   runFig9,
	})
}

func runFig7(ctx *Context, w io.Writer) (*Outcome, error) {
	recs := ctx.FebruaryOrAll(telemetry.ByUserType(ctx.Records, telemetry.Business))
	return runSlices(ctx, w, "NLP for SelectMail by local time-of-day period (business users)",
		pipeline.NewPartition(recs).ByPeriod(telemetry.SelectMail))
}

// periodColumns is recs' usable rows, stably sorted by time, as the time,
// latency and timezone-offset columns AlphaByPeriod reads.
func periodColumns(recs []telemetry.Record) (times []timeutil.Millis, lats []float64, tzs []timeutil.Millis) {
	recs = telemetry.Successful(recs)
	telemetry.SortByTime(recs)
	for _, r := range recs {
		times, lats, tzs = append(times, r.Time), append(lats, r.LatencyMS), append(tzs, r.TZOffset)
	}
	return times, lats, tzs
}

func runFig8(ctx *Context, w io.Writer) (*Outcome, error) {
	recs := ctx.FebruaryOrAll(ctx.BusinessAction(telemetry.SelectMail))
	if len(recs) == 0 {
		return nil, errNoData
	}
	est, err := ctx.Estimator()
	if err != nil {
		return nil, err
	}
	times, lats, tzs := periodColumns(recs)
	prof, err := est.AlphaByPeriod(times, lats, tzs, timeutil.Period8am2pm)
	if err != nil {
		return nil, err
	}
	var series []report.Series
	out := &Outcome{Values: map[string]float64{}}
	for p := 0; p < timeutil.NumPeriods; p++ {
		period := timeutil.Period(p)
		var xs, ys []float64
		for i, v := range prof.PerBin[p] {
			if math.IsNaN(v) {
				continue
			}
			xs = append(xs, prof.BinCenters[i])
			ys = append(ys, v)
		}
		if len(xs) == 0 {
			continue
		}
		series = append(series, report.Series{Name: period.String(), X: xs, Y: ys})
		out.Values["alpha_"+period.String()] = prof.Mean[p]
		// Flatness: coefficient of variation of per-bin alpha over the
		// well-supported range (sparse tail bins are pure noise).
		var core []float64
		for i := range xs {
			if xs[i] <= 1000 {
				core = append(core, ys[i])
			}
		}
		if m, err := stats.Mean(core); err == nil && m > 0 && len(core) > 1 {
			if sd, err := stats.StdDev(core); err == nil {
				out.Values["alpha_cv_"+period.String()] = sd / m
			}
		}
	}
	chart := report.LineChart{
		Title:  "Time-based activity factor alpha per latency bin (reference: 8am-2pm)",
		XLabel: "latency (ms)", YLabel: "alpha",
		Width: 72, Height: 16,
	}
	if err := chart.Render(w, series...); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)
	rows := [][]string{}
	for p := 0; p < timeutil.NumPeriods; p++ {
		rows = append(rows, []string{
			timeutil.Period(p).String(),
			fmt.Sprintf("%.3f", prof.Mean[p]),
		})
	}
	if err := (report.Table{Headers: []string{"period", "mean alpha"}}).Render(w, rows); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nAlpha is lower at night (less activity regardless of latency) and roughly flat across\n")
	fmt.Fprintf(w, "latency bins, supporting the per-period averaging in Section 2.4.1.\n")
	out.Series = series
	return out, nil
}

func runFig9(ctx *Context, w io.Writer) (*Outcome, error) {
	var slices []pipeline.Slice
	for _, a := range []telemetry.ActionType{telemetry.SelectMail, telemetry.SwitchFolder} {
		recs := telemetry.ByUserType(telemetry.ByAction(ctx.Records, a), telemetry.Business)
		monthly := pipeline.NewPartition(recs).ByMonth(a)
		if len(monthly) >= 2 {
			slices = append(slices, monthly[0], monthly[1])
			continue
		}
		// Short window: split into halves to test stability anyway.
		if len(recs) == 0 {
			return nil, errNoData
		}
		mid := recs[len(recs)/2].Time
		slices = append(slices,
			pipeline.SliceOf(fmt.Sprintf("%s/H1", a), telemetry.ByTimeRange(recs, 0, mid)),
			pipeline.SliceOf(fmt.Sprintf("%s/H2", a), telemetry.ByTimeRange(recs, mid, 1<<62)),
		)
	}
	out, err := runSlices(ctx, w, "NLP stability across months (business users)", slices)
	if err != nil {
		return nil, err
	}
	// Quantify consistency: max |difference| across the two periods at
	// the well-supported probe latencies (≤ 1000 ms; the sparse tail is
	// dominated by sampling noise rather than behavioural drift).
	for i := 0; i+1 < len(slices); i += 2 {
		var worst float64
		for _, p := range probes {
			if p > 1000 {
				continue
			}
			a := out.Values[fmt.Sprintf("%s@%.0f", slices[i].Name, p)]
			b := out.Values[fmt.Sprintf("%s@%.0f", slices[i+1].Name, p)]
			if math.IsNaN(a) || math.IsNaN(b) {
				continue
			}
			if d := math.Abs(a - b); d > worst {
				worst = d
			}
		}
		out.Values["max_month_gap_"+slices[i].Name] = worst
		fmt.Fprintf(w, "\nMax NLP gap between periods for %s: %.3f\n", slices[i].Name, worst)
	}
	return out, nil
}
