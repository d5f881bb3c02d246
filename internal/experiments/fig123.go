package experiments

import (
	"fmt"
	"io"

	"autosens/internal/core"
	"autosens/internal/report"
	"autosens/internal/stats"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: MSD/MAD locality ratio — actual vs shuffled vs sorted",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: latency and user-activity rate over a 2-day period (normalized)",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: biased (B) and unbiased (U) PDFs, and the raw vs smoothed B/U preference",
		Run:   runFig3,
	})
}

// twoDaySlice extracts the 2-day business SelectMail window that figures 1
// and 2 are computed on.
func (c *Context) twoDaySlice() []telemetry.Record {
	recs := c.BusinessAction(telemetry.SelectMail)
	return telemetry.ByTimeRange(recs, 0, 2*timeutil.MillisPerDay)
}

func runFig1(ctx *Context, w io.Writer) (*Outcome, error) {
	recs := ctx.twoDaySlice()
	if len(recs) < 2 {
		return nil, errNoData
	}
	est, err := ctx.Estimator()
	if err != nil {
		return nil, err
	}
	times, lats := core.UsableColumns(recs)
	rep, err := est.Locality(times, lats)
	if err != nil {
		return nil, err
	}
	names := []string{"actual", "shuffled", "sorted"}
	values := []float64{rep.Actual, rep.Shuffled, rep.Sorted}
	bar := report.BarChart{Title: "MSD/MAD ratio of the SelectMail latency series (2 days, business users)", Width: 50}
	if err := bar.Render(w, names, values); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nLocality is present: actual %.3f << shuffled %.3f; sorting collapses the ratio to %.2g.\n",
		rep.Actual, rep.Shuffled, rep.Sorted)

	corr, err := core.DensityLatencyCorrelation(times, lats, timeutil.MillisPerMinute)
	if err == nil {
		fmt.Fprintf(w, "Per-minute sample density vs mean latency correlation: %.3f\n", corr)
	}
	outcome := &Outcome{
		Series: []report.Series{{Name: "msd_mad", X: []float64{0, 1, 2}, Y: values}},
		Values: map[string]float64{
			"actual":   rep.Actual,
			"shuffled": rep.Shuffled,
			"sorted":   rep.Sorted,
		},
	}
	if ac, err := stats.Autocorrelation(telemetry.Latencies(recs), 1); err == nil {
		fmt.Fprintf(w, "Lag-1 autocorrelation of the latency series: %.3f\n", ac)
		outcome.Values["lag1_autocorrelation"] = ac
	}
	return outcome, nil
}

func runFig2(ctx *Context, w io.Writer) (*Outcome, error) {
	recs := ctx.twoDaySlice()
	if len(recs) == 0 {
		return nil, errNoData
	}
	times, lats := core.UsableColumns(recs)
	ts, err := core.ActivityLatencySeries(times, lats, 10*timeutil.MillisPerMinute)
	if err != nil {
		return nil, err
	}
	lat, cnt := ts.Normalized()
	hours := make([]float64, len(ts.WindowStart))
	for i, ws := range ts.WindowStart {
		hours[i] = float64(ws) / float64(timeutil.MillisPerHour)
	}
	latX, latY := report.Downsample(hours, lat, 70)
	cntX, cntY := report.Downsample(hours, cnt, 70)
	chart := report.LineChart{
		Title:  "Latency level and user-activity rate over 2 days (both normalized to their max)",
		XLabel: "hours since window start",
		YLabel: "normalized value",
		Width:  70, Height: 16,
	}
	latSeries := report.Series{Name: "latency", X: latX, Y: latY}
	cntSeries := report.Series{Name: "activity", X: cntX, Y: cntY}
	if err := chart.Render(w, latSeries, cntSeries); err != nil {
		return nil, err
	}
	corr, err := core.DensityLatencyCorrelation(times, lats, 10*timeutil.MillisPerMinute)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nWindow-level latency/activity Pearson correlation: %.3f\n", corr)
	return &Outcome{
		Series: []report.Series{latSeries, cntSeries},
		Values: map[string]float64{"latency_activity_correlation": corr},
	}, nil
}

func runFig3(ctx *Context, w io.Writer) (*Outcome, error) {
	recs := ctx.BusinessAction(telemetry.SelectMail)
	if len(recs) == 0 {
		return nil, errNoData
	}
	est, err := ctx.Estimator()
	if err != nil {
		return nil, err
	}

	// Panel (a): the unbiased-sampling construction over a 30-minute
	// excerpt — actual samples as one series, the latencies adopted at
	// random instants as the other.
	excerpt := telemetry.ByTimeRange(recs, 10*timeutil.MillisPerHour, 10*timeutil.MillisPerHour+30*timeutil.MillisPerMinute)
	if len(excerpt) >= 10 {
		times, lats := core.UsableColumns(excerpt)
		draws, err := core.UnbiasedDraws(times, lats, 40, ctx.Opts.Seed)
		if err != nil {
			return nil, err
		}
		var sx, sy, dx, dy []float64
		for _, r := range excerpt {
			sx = append(sx, float64(r.Time)/float64(timeutil.MillisPerMinute))
			sy = append(sy, r.LatencyMS)
		}
		for _, d := range draws {
			dx = append(dx, float64(d.At)/float64(timeutil.MillisPerMinute))
			dy = append(dy, d.LatencyMS)
		}
		sx, sy = report.Downsample(sx, sy, 70)
		panelA := report.LineChart{
			Title:  "(a) Unbiased sampling: user-action samples and the latencies adopted at random instants",
			XLabel: "minutes", YLabel: "latency (ms)", Width: 70, Height: 12,
		}
		if err := panelA.Render(w,
			report.Series{Name: "action samples", X: sx, Y: sy},
			report.Series{Name: "random-time draws", X: dx, Y: dy}); err != nil {
			return nil, err
		}
		fmt.Fprintln(w)
	}

	curve, err := est.Estimate(recs)
	if err != nil {
		return nil, err
	}

	// Panel (b): B and U PDFs.
	var bx, by, ux, uy []float64
	for i := range curve.BinCenters {
		if curve.BinCenters[i] > 1500 {
			break
		}
		bx = append(bx, curve.BinCenters[i])
		by = append(by, curve.Biased[i])
		ux = append(ux, curve.BinCenters[i])
		uy = append(uy, curve.Unbiased[i])
	}
	bx, by = report.Downsample(bx, by, 70)
	ux, uy = report.Downsample(ux, uy, 70)
	bSeries := report.Series{Name: "B (biased)", X: bx, Y: by}
	uSeries := report.Series{Name: "U (unbiased)", X: ux, Y: uy}
	pdfChart := report.LineChart{
		Title:  "(b) Biased vs unbiased latency PDFs (bin mass)",
		XLabel: "latency (ms)", YLabel: "fraction", Width: 70, Height: 14,
	}
	if err := pdfChart.Render(w, bSeries, uSeries); err != nil {
		return nil, err
	}

	// Panel (c): raw vs smoothed B/U.
	var rx, rawY, smoothY []float64
	for i := range curve.BinCenters {
		if curve.BinCenters[i] > 1500 || !curve.Valid[i] {
			continue
		}
		rx = append(rx, curve.BinCenters[i])
		rawY = append(rawY, curve.Raw[i])
		smoothY = append(smoothY, curve.Smoothed[i])
	}
	rxD, rawD := report.Downsample(rx, rawY, 70)
	sxD, smoothD := report.Downsample(rx, smoothY, 70)
	rawSeries := report.Series{Name: "raw B/U", X: rxD, Y: rawD}
	smoothSeries := report.Series{Name: "smoothed", X: sxD, Y: smoothD}
	ratioChart := report.LineChart{
		Title:  "(c) Latency preference: raw B/U ratio and Savitzky-Golay smoothed",
		XLabel: "latency (ms)", YLabel: "B/U", Width: 70, Height: 14,
	}
	if err := ratioChart.Render(w, rawSeries, smoothSeries); err != nil {
		return nil, err
	}

	// Quantify the noise reduction from smoothing.
	var rawVar, n float64
	for i := range rx {
		d := rawY[i] - smoothY[i]
		rawVar += d * d
		n++
	}
	residual := 0.0
	if n > 0 {
		residual = rawVar / n
	}
	fmt.Fprintf(w, "\nMean squared raw-vs-smoothed residual: %.4g (over %d valid bins <= 1500ms)\n", residual, int(n))
	return &Outcome{
		Series: []report.Series{bSeries, uSeries, rawSeries, smoothSeries},
		Values: map[string]float64{"smoothing_residual": residual},
	}, nil
}
