// Actiontypes: reproduce the shape of the paper's Figure 4 — how latency
// sensitivity differs across user action types. SelectMail and SwitchFolder
// (interactions users expect to be instantaneous) drop sharply; Search is
// tolerated at higher latency; ComposeSend is asynchronous and nearly flat.
//
//	go run ./examples/actiontypes
package main

import (
	"fmt"
	"log"
	"os"

	"autosens/internal/core"
	"autosens/internal/owasim"
	"autosens/internal/pipeline"
	"autosens/internal/report"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func main() {
	cfg := owasim.DefaultConfig(7*timeutil.MillisPerDay, 80, 0) // business users only
	cfg.Seed = 7
	res, err := owasim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	records := telemetry.Successful(res.Records)
	fmt.Printf("simulated %d actions over 7 days\n", len(records))

	opts := core.DefaultOptions()
	opts.MinSlotActions = 10
	results, err := pipeline.Run(pipeline.Request{
		Options:        opts,
		TimeNormalized: true,
		Slices:         pipeline.NewPartition(records).ByActionType(),
	})
	if err != nil {
		log.Fatal(err)
	}

	var series []report.Series
	rows := [][]string{}
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		var xs, ys []float64
		for i, v := range r.Curve.NLP {
			if r.Curve.Valid[i] {
				xs = append(xs, r.Curve.BinCenters[i])
				ys = append(ys, v)
			}
		}
		xs, ys = report.Downsample(xs, ys, 70)
		series = append(series, report.Series{Name: r.Name, X: xs, Y: ys})

		row := []string{r.Name}
		for _, p := range []float64{500, 1000, 1500} {
			v, _ := r.Curve.At(p)
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		rows = append(rows, row)
	}

	chart := report.LineChart{
		Title:  "Normalized latency preference by action type (reference 300 ms)",
		XLabel: "latency (ms)", YLabel: "NLP", Width: 72, Height: 18,
	}
	if err := chart.Render(os.Stdout, series...); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	tab := report.Table{Headers: []string{"action", "NLP@500ms", "NLP@1000ms", "NLP@1500ms"}}
	if err := tab.Render(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nExpected ordering: SelectMail drops most, then SwitchFolder; Search is")
	fmt.Println("shallower; ComposeSend (asynchronous UI) stays near 1.0.")
}
