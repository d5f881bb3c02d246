package experiments

import (
	"fmt"
	"io"

	"autosens/internal/pipeline"
	"autosens/internal/report"
	"autosens/internal/telemetry"
)

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Figure 4: normalized latency preference across action types (business users)",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: business vs consumer users (SelectMail)",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Figure 6: conditioning to speed — median-latency quartiles (SelectMail)",
		Run:   runFig6,
	})
}

// probes are the latencies at which headline NLP values are reported.
var probes = []float64{500, 700, 1000, 1500, 2000}

// runSlices estimates each slice with the full (time-normalized) method and
// renders the NLP chart plus a probe-value table.
func runSlices(ctx *Context, w io.Writer, title string, slices []pipeline.Slice) (*Outcome, error) {
	for i := range slices {
		if slices[i].Rows == 0 {
			return nil, fmt.Errorf("experiments: slice %q is empty: %w", slices[i].Name, errNoData)
		}
	}
	results, err := pipeline.Run(pipeline.Request{
		Options:        ctx.Opts,
		TimeNormalized: true,
		Slices:         slices,
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{Values: map[string]float64{}}
	var series []report.Series
	rows := [][]string{}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		series = append(series, nlpSeries(r.Name, r.Curve, 70))
		row := []string{r.Name}
		for _, p := range probes {
			v := curveValue(r.Curve, p)
			out.Values[fmt.Sprintf("%s@%.0f", r.Name, p)] = v
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, row)
	}
	chart := report.LineChart{
		Title:  title,
		XLabel: "latency (ms)", YLabel: "normalized latency preference",
		Width: 72, Height: 18,
	}
	if err := chart.Render(w, series...); err != nil {
		return nil, err
	}
	headers := []string{"slice"}
	for _, p := range probes {
		headers = append(headers, fmt.Sprintf("NLP@%.0fms", p))
	}
	fmt.Fprintln(w)
	if err := (report.Table{Headers: headers}).Render(w, rows); err != nil {
		return nil, err
	}
	out.Series = series
	return out, nil
}

func runFig4(ctx *Context, w io.Writer) (*Outcome, error) {
	recs := ctx.FebruaryOrAll(telemetry.ByUserType(ctx.Records, telemetry.Business))
	out, err := runSlices(ctx, w, "NLP by action type (business users, reference 300 ms)",
		pipeline.NewPartition(recs).ByActionType())
	if err != nil {
		return nil, err
	}
	// Section 3.5's bottleneck argument: report the drop factors across
	// latency doublings for SelectMail.
	at500 := out.Values["SelectMail@500"]
	at1000 := out.Values["SelectMail@1000"]
	at2000 := out.Values["SelectMail@2000"]
	if at1000 > 0 && at2000 > 0 {
		f1 := at500 / at1000
		f2 := at1000 / at2000
		out.Values["drop_500_to_1000"] = f1
		out.Values["drop_1000_to_2000"] = f2
		fmt.Fprintf(w, "\nSection 3.5 check: SelectMail NLP drops by %.2fx from 500ms to 1000ms and a further %.2fx\n", f1, f2)
		fmt.Fprintf(w, "from 1000ms to 2000ms — far less than the 2x per doubling a pure latency bottleneck would cause.\n")
	}
	return out, nil
}

func runFig5(ctx *Context, w io.Writer) (*Outcome, error) {
	return runSlices(ctx, w, "NLP for SelectMail: business vs consumer (reference 300 ms)",
		ctx.SharedPartition().BySegment(telemetry.SelectMail))
}

func runFig6(ctx *Context, w io.Writer) (*Outcome, error) {
	// The paper uses consumer users for the conditioning analysis. At
	// small scale, pooling both segments keeps the quartile slices
	// statistically usable — and lets the figure share the context's
	// cached partition with fig5.
	p := ctx.SharedPartition()
	if ctx.Scale == ScalePaper {
		recs := telemetry.ByUserType(ctx.FebruaryOrAll(ctx.Records), telemetry.Consumer)
		p = pipeline.NewPartition(recs)
	}
	slices, err := p.ByQuartile(telemetry.SelectMail)
	if err != nil {
		return nil, err
	}
	return runSlices(ctx, w, "NLP for SelectMail by median-latency quartile (Q1 fastest users)", slices)
}
