// Conditioning: reproduce the shape of the paper's Figure 6 — users who
// are accustomed to fast responses (quartile Q1 of per-user median latency)
// are more sensitive to latency than users conditioned to slow responses
// (Q4), when compared at the same latency.
//
//	go run ./examples/conditioning
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
	cfg := owasim.DefaultConfig(7*timeutil.MillisPerDay, 80, 80)
	cfg.Seed = 11
	res, err := owasim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	records := telemetry.Successful(res.Records)

	// Show the quartile construction explicitly: per-user median latency
	// over the whole window, split at the population quartiles.
	assign, cuts, err := telemetry.AssignQuartiles(records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d users; median-latency quartile cuts at %.0f / %.0f / %.0f ms\n",
		len(assign), cuts[0], cuts[1], cuts[2])

	opts := core.DefaultOptions()
	opts.MinSlotActions = 10
	slices, err := pipeline.NewPartition(records).ByQuartile(telemetry.SelectMail)
	if err != nil {
		log.Fatal(err)
	}
	results, err := pipeline.Run(pipeline.Request{
		Options:        opts,
		TimeNormalized: true,
		Slices:         slices,
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
		v700, _ := r.Curve.At(700)
		v1000, _ := r.Curve.At(1000)
		rows = append(rows, []string{r.Name, fmt.Sprintf("%.3f", v700), fmt.Sprintf("%.3f", v1000)})
	}

	chart := report.LineChart{
		Title:  "NLP for SelectMail by median-latency quartile (Q1 = fastest users)",
		XLabel: "latency (ms)", YLabel: "NLP", Width: 72, Height: 18,
	}
	if err := chart.Render(os.Stdout, series...); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	tab := report.Table{Headers: []string{"quartile", "NLP@700ms", "NLP@1000ms"}}
	if err := tab.Render(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nExpected: sensitivity decreases from Q1 to Q4 — users used to low")
	fmt.Println("latency react more strongly to slowness, as in the paper's Figure 6.")
}
