// Package examples shows the AutoSens library end to end. Each example is
// a Go Example whose Output block go test checks, so the numbers README
// quotes are the numbers the code prints:
//
//	go test -run Example ./examples/
//
// Every example loads records the way the autosens CLI does, through a
// pipeline partition, and estimates through pipeline.Run or
// (*core.Estimator).Finish.
package examples

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"

	"autosens/internal/cell"
	"autosens/internal/collector"
	"autosens/internal/core"
	"autosens/internal/owasim"
	"autosens/internal/pipeline"
	"autosens/internal/prefcurve"
	"autosens/internal/report"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// smallOptions are the paper's defaults with thinner hour slots accepted,
// as every dataset here is small.
func smallOptions() core.Options {
	opts := core.DefaultOptions()
	opts.MinSlotActions = 10
	return opts
}

// normalized estimates one slice with the full method: biased-vs-unbiased
// latency distributions plus the time-confounder (alpha) normalization.
func normalized(s pipeline.Slice) *core.Curve {
	est, err := core.NewEstimator(smallOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := est.Finish(core.Request{Mode: core.ModeNormalized},
		&core.Summary{Columns: core.Columns{Times: s.Times, Lats: s.Lats}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return res.Curve
}

// printProbes prints the curve's NLP at each latency. NLP(L) = 0.8 means
// users are 20% less active at latency L than at the 300 ms reference.
func printProbes(c *core.Curve, probes ...float64) {
	for _, ms := range probes {
		v, ok := c.At(ms)
		note := ""
		if !ok {
			note = "  (low support)"
		}
		fmt.Printf("%6.0f ms -> %.3f%s\n", ms, v, note)
	}
}

// compare runs the full method on every slice, prints NLP at the probes
// as a table, and then the slices ordered by NLP at the last probe,
// lowest (most sensitive) first.
func compare(header string, slices []pipeline.Slice, probes ...float64) {
	results, err := pipeline.Run(pipeline.Request{
		Options:        smallOptions(),
		TimeNormalized: true,
		Slices:         slices,
	})
	if err != nil {
		log.Fatal(err)
	}
	headers := []string{header}
	for _, ms := range probes {
		headers = append(headers, fmt.Sprintf("NLP@%.0fms", ms))
	}
	last := probes[len(probes)-1]
	rows := make([][]string, len(results))
	names := make([]string, len(results))
	atLast := make(map[string]float64, len(results))
	for i, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		rows[i] = []string{r.Name}
		for _, ms := range probes {
			v, _ := r.Curve.At(ms)
			rows[i] = append(rows[i], fmt.Sprintf("%.3f", v))
		}
		names[i] = r.Name
		atLast[r.Name], _ = r.Curve.At(last)
	}
	if err := (report.Table{Headers: headers}).Render(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
	sort.SliceStable(names, func(i, j int) bool { return atLast[names[i]] < atLast[names[j]] })
	fmt.Printf("by NLP@%.0fms, lowest first: %s\n", last, strings.Join(names, ", "))
}

// Example_quickstart simulates three days of telemetry for a small
// population, estimates the SelectMail action's normalized latency
// preference and reads the curve. On real data the records would be web
// access logs: one record per user action with a timestamp and its
// client-measured latency.
func Example_quickstart() {
	cfg := owasim.DefaultConfig(3*timeutil.MillisPerDay, 50, 50)
	cfg.Seed = 2024
	res, err := owasim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d user actions\n", len(res.Records))

	// The partition holds the records as columns; a slice is one action's
	// successful records, sorted by time.
	s := pipeline.NewPartition(res.Records).Action(telemetry.SelectMail)
	fmt.Printf("analyzing %d SelectMail actions\n", len(s.Times))

	curve := normalized(s)
	fmt.Println("normalized latency preference (reference 300 ms):")
	printProbes(curve, 300, 500, 700, 1000, 1500)
	if lo, hi, ok := curve.ValidRange(); ok {
		fmt.Printf("well supported from %.0f to %.0f ms (%d biased / %d unbiased samples)\n",
			lo, hi, curve.BiasedN, curve.UnbiasedN)
	}
	// Output:
	// simulated 61052 user actions
	// analyzing 28047 SelectMail actions
	// normalized latency preference (reference 300 ms):
	//    300 ms -> 1.000
	//    500 ms -> 0.895
	//    700 ms -> 0.776
	//   1000 ms -> 0.714
	//   1500 ms -> 0.601
	// well supported from 15 to 2995 ms (28047 biased / 56153 unbiased samples)
}

// Example_actiontypes compares latency sensitivity across the four action
// types, the comparison of the paper's Figure 4, over a week of business
// users.
func Example_actiontypes() {
	cfg := owasim.DefaultConfig(7*timeutil.MillisPerDay, 80, 0)
	cfg.Seed = 7
	res, err := owasim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	part, seen := pipeline.Load{}.Records(res.Records)
	fmt.Printf("simulated %d successful actions over 7 days\n", seen.Successful)
	compare("action", part.ByActionType(), 500, 1000, 1500)
	// Output:
	// simulated 83616 successful actions over 7 days
	// | action       | NLP@500ms | NLP@1000ms | NLP@1500ms |
	// | ------------ | --------- | ---------- | ---------- |
	// | SelectMail   | 0.929     | 0.702      | 0.716      |
	// | SwitchFolder | 0.873     | 0.669      | 0.540      |
	// | Search       | 0.938     | 0.926      | 0.917      |
	// | ComposeSend  | 1.037     | 1.217      | 1.059      |
	// by NLP@1500ms, lowest first: SwitchFolder, SelectMail, Search, ComposeSend
}

// Example_conditioning splits SelectMail by the user's median-latency
// quartile over the whole week (Q1 = the users used to the fastest
// responses), the segregation of the paper's Figure 6. As in the CLI's
// -quartile, users are ranked over every successful record.
func Example_conditioning() {
	cfg := owasim.DefaultConfig(7*timeutil.MillisPerDay, 80, 80)
	cfg.Seed = 11
	res, err := owasim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	part, _ := pipeline.Load{Keep: cell.All.Set()}.Records(res.Records)
	slices, err := part.ByQuartile(telemetry.SelectMail)
	if err != nil {
		log.Fatal(err)
	}
	cuts, err := part.QuartileCuts()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d users; median-latency quartile cuts at %.0f / %.0f / %.0f ms\n",
		part.QuartileUsers(), cuts[0], cuts[1], cuts[2])
	compare("quartile", slices, 700, 1000)
	// Output:
	// 160 users; median-latency quartile cuts at 408 / 448 / 493 ms
	// | quartile      | NLP@700ms | NLP@1000ms |
	// | ------------- | --------- | ---------- |
	// | SelectMail/Q1 | 0.772     | 0.667      |
	// | SelectMail/Q2 | 0.869     | 0.850      |
	// | SelectMail/Q3 | 0.832     | 0.696      |
	// | SelectMail/Q4 | 1.027     | 1.013      |
	// by NLP@1000ms, lowest first: SelectMail/Q1, SelectMail/Q3, SelectMail/Q2, SelectMail/Q4
}

// Example_nonsticky runs the estimator unchanged on a search-like service,
// the paper's §4 outlook: users of a non-sticky service can abandon to a
// competitor the moment it feels slow. The simulator's consumer users
// get a planted Search preference that drops sharply past ~500 ms; only
// the telemetry changes, as AutoSens consumes (time, action, latency)
// tuples alone.
func Example_nonsticky() {
	cfg := owasim.DefaultConfig(7*timeutil.MillisPerDay, 0, 120)
	cfg.Seed = 99
	cfg.Truth.Base[telemetry.Search] = prefcurve.MustPiecewiseLinear([]prefcurve.Anchor{
		{Latency: 0, Value: 1.05}, {Latency: 300, Value: 1.0}, {Latency: 500, Value: 0.82},
		{Latency: 800, Value: 0.55}, {Latency: 1200, Value: 0.35}, {Latency: 2000, Value: 0.25},
		{Latency: 3000, Value: 0.22},
	})
	res, err := owasim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := pipeline.NewPartition(res.Records).Action(telemetry.Search)
	fmt.Printf("simulated %d query actions over 7 days\n", len(s.Times))
	printProbes(normalized(s), 300, 500, 800, 1200)
	// Output:
	// simulated 31527 query actions over 7 days
	//    300 ms -> 1.000
	//    500 ms -> 0.849
	//    800 ms -> 0.678
	//   1200 ms -> 0.537
}

// Example_collector runs the network path in one process: a beacon
// collection server sinking a TBIN log, two days of simulated beacons
// posted to it over HTTP, and the analysis of the collected log through
// the CLI's TBIN load. One goroutine posts the batches in order, so the
// log, and the curve, are the same on every run.
func Example_collector() {
	var sink bytes.Buffer
	srv, err := collector.NewServer(collector.ServerConfig{
		Sink: collector.NewWriterSink(telemetry.NewWriter(&sink, telemetry.TBIN)),
	})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	url := "http://" + addr + "/v1/beacons"
	// post ships one batch as a JSON array; the server acks it with 202
	// once the sink has taken it.
	post := func(batch []telemetry.Record) error {
		body, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
		}
		return nil
	}
	cfg := owasim.DefaultConfig(2*timeutil.MillisPerDay, 60, 60)
	cfg.Seed = 5
	batch := make([]telemetry.Record, 0, 400)
	err = owasim.RunTo(cfg, func(r telemetry.Record) error {
		if batch = append(batch, r); len(batch) < cap(batch) {
			return nil
		}
		err := post(batch)
		batch = batch[:0]
		return err
	}, nil)
	if err == nil && len(batch) > 0 {
		err = post(batch)
	}
	if err != nil {
		log.Fatal(err)
	}
	// Shutdown waits for the sink writer and flushes the log.
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	batches, accepted, rejected, _ := srv.Stats()
	fmt.Printf("shipped %d beacons in %d batches (%d rejected)\n", accepted, batches, rejected)

	part, _, err := pipeline.Load{}.TBIN(sink.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("NLP for SelectMail from the collected log (reference 300 ms):")
	printProbes(normalized(part.Action(telemetry.SelectMail)), 300, 500, 700, 1000)
	// Output:
	// shipped 44160 beacons in 111 batches (0 rejected)
	// NLP for SelectMail from the collected log (reference 300 ms):
	//    300 ms -> 1.000
	//    500 ms -> 0.959
	//    700 ms -> 0.856
	//   1000 ms -> 0.828
}
