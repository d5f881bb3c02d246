// Command autosens runs the AutoSens analysis on a telemetry log and
// reports the normalized latency preference curve for a selected slice.
//
// Examples:
//
//	autosens -in telemetry.jsonl -action SelectMail -usertype business
//	autosens -in telemetry.jsonl -action Search -mode plain -csv out.csv
//	autosens -in telemetry.jsonl -action SelectMail -quartile Q1
//	autosens -in telemetry.jsonl -action Search -trace -trace-out trace.json
//	autosens -in /var/lib/sensd/wal -action SelectMail   (replay a sensd WAL directory)
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"autosens/internal/cell"
	"autosens/internal/core"
	"autosens/internal/obs"
	"autosens/internal/pipeline"
	"autosens/internal/report"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// logger carries progress reporting; run() replaces it per -log-level.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "autosens:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args and writes the chart and probe
// table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("autosens", flag.ExitOnError)
	in := fs.String("in", "", "telemetry input path (required), - for stdin, or a WAL directory")
	format := telemetry.NewFormatFlag(telemetry.JSONL)
	fs.Var(format, "format", "input format: "+format.Choices()+" (ignored when -in is a WAL directory)")
	action := fs.String("action", "", "restrict to an action type (SelectMail, SwitchFolder, Search, ComposeSend)")
	usertype := fs.String("usertype", "", "restrict to a user segment (business, consumer)")
	period := fs.String("period", "", "restrict to a local time-of-day period (8am-2pm, 2pm-8pm, 8pm-2am, 2am-8am)")
	quartile := fs.String("quartile", "", "restrict to a median-latency user quartile (Q1..Q4)")
	mode := fs.String("mode", "normalized", "estimator: normalized (full method), plain (no alpha), biased (no correction)")
	ref := fs.Float64("ref", 300, "reference latency in ms (NLP(ref) = 1)")
	binWidth := fs.Float64("binwidth", 10, "latency bin width in ms")
	maxLatency := fs.Float64("maxlatency", 3000, "largest latency bin edge in ms")
	csvOut := fs.String("csv", "", "also write the curve as CSV to this path")
	jsonOut := fs.String("json", "", "also write the curve as JSON to this path")
	probesFlag := fs.String("probes", "500,700,1000,1500,2000", "comma-separated probe latencies for the summary table")
	noChart := fs.Bool("nochart", false, "suppress the ASCII chart")
	by := fs.String("by", "", "compare slices on one chart: action, usertype, quartile, or period (normalized estimator)")
	ci := fs.Bool("ci", false, "compute bootstrap confidence bounds (moving 6h blocks, 40 replicates, 90%)")
	workers := fs.Int("workers", 0, "worker goroutines for TBIN decoding, estimation and bootstrap (0 = GOMAXPROCS)")
	stream := fs.Bool("stream", false, "read the input twice instead of loading it; same curve, memory of the open slots (normalized mode only; -in must be a file or WAL directory; incompatible with -quartile, -ci and -by)")
	traceFlag := fs.Bool("trace", false, "print a stage-timing span tree to stderr when done")
	traceOut := fs.String("trace-out", "", "also write the span tree as JSON to this path")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	_ = fs.Parse(args) // ExitOnError: -h exits 0 and a bad flag exits 2

	// Every refusal comes before any input is read.
	estMode, modeErr := core.ParseMode(*mode)
	switch {
	case modeErr != nil:
		return fmt.Errorf("unknown mode %q", *mode)
	case *stream && *in == "-":
		return fmt.Errorf("-stream reads its input twice and cannot read stdin")
	case *stream && *mode != "normalized":
		return fmt.Errorf("-stream supports -mode normalized only")
	case *stream && *quartile != "":
		return fmt.Errorf("-stream cannot compute quartiles (needs a full pass over users)")
	case *stream && *ci:
		return fmt.Errorf("-stream and -ci are mutually exclusive")
	case *stream && *by != "":
		return fmt.Errorf("-stream and -by are mutually exclusive")
	case *ci && *mode == "biased":
		return fmt.Errorf("-ci supports -mode normalized or plain, not biased")
	case *by != "" && *ci:
		return fmt.Errorf("-by and -ci are mutually exclusive")
	case *by != "" && *mode != "normalized":
		return fmt.Errorf("-by compares normalized curves only, not -mode %s", *mode)
	}

	log, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		return err
	}
	logger = log

	// When tracing is requested every stage below hangs its spans off root;
	// a nil root (the default) makes all span calls no-ops.
	var tr *obs.Tracer
	var root *obs.Span
	if *traceFlag || *traceOut != "" {
		tr = obs.NewTracer("autosens")
		root = tr.Root()
		defer func() {
			done := tr.Finish()
			if *traceFlag {
				fmt.Fprintln(os.Stderr)
				if err := done.WriteTree(os.Stderr); err != nil {
					logger.Error("trace render failed", "err", err)
				}
			}
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					logger.Error("trace output failed", "err", err)
					return
				}
				defer f.Close()
				if err := done.WriteJSON(f); err != nil {
					logger.Error("trace output failed", "err", err)
					return
				}
				logger.Info("trace written", "path", *traceOut)
			}
		}()
	}

	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f := format.Format()
	// iterate streams the input records: a file or stdin through a
	// telemetry.Reader, or — when -in names a directory — a sensd WAL
	// replayed frame by frame.
	var iterate func(fn func(telemetry.Record) error) error
	fi, statErr := os.Stat(*in)
	walDir := *in != "-" && statErr == nil && fi.IsDir()
	if walDir {
		iterate = func(fn func(telemetry.Record) error) error {
			return wal.Replay(nil, *in, fn)
		}
	} else {
		// A file is reopened on every call, so -stream can read it twice.
		iterate = func(fn func(telemetry.Record) error) error {
			src := io.Reader(os.Stdin)
			if *in != "-" {
				file, err := os.Open(*in)
				if err != nil {
					return err
				}
				defer file.Close()
				src = file
			}
			r := telemetry.NewReader(src, f)
			defer r.Close()
			for {
				rec, err := r.Read()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if err := fn(rec); err != nil {
					return err
				}
			}
		}
	}

	// The slice's row filter, shared by every input path: the successful
	// records of the selected action, user type and period. The -by
	// families that slice one action slice this one.
	key := cell.All
	familyAction := telemetry.SelectMail
	if *action != "" {
		if familyAction, err = telemetry.ParseActionType(*action); err != nil {
			return err
		}
		key.Action = familyAction
	}
	if *usertype != "" {
		if key.UserType, err = telemetry.ParseUserType(*usertype); err != nil {
			return err
		}
	}
	if *period != "" {
		if key.Period, err = timeutil.ParsePeriod(*period); err != nil {
			return fmt.Errorf("unknown period %q", *period)
		}
	}
	keep := key.Set()

	opts := core.DefaultOptions()
	opts.ReferenceMS = *ref
	opts.BinWidthMS = *binWidth
	opts.MaxLatencyMS = *maxLatency
	opts.Workers = *workers
	est, err := core.NewEstimator(opts)
	if err != nil {
		return err
	}
	est.SetTrace(root)

	if *stream {
		curve, err := est.EstimateTimeNormalizedTwoPass(func(fn func(timeutil.Millis, float64) error) error {
			return iterate(func(rec telemetry.Record) error {
				if c, _ := cell.Of(rec); !keep.Has(c, rec.Failed) {
					return nil
				}
				return fn(rec.Time, rec.LatencyMS)
			})
		})
		if err != nil {
			return err
		}
		return emit(stdout, &core.CurveCI{Curve: curve}, *noChart, *ref, *mode, *probesFlag, *csvOut, *jsonOut)
	}

	// The input loads straight into a columnar partition holding what the
	// analysis reads: action-major for -by, in input order for one slice.
	// -quartile ranks users over every successful record before the other
	// filters apply, so it holds them all. The -by families that slice one
	// action hold only that action's rows.
	load := pipeline.Load{Keep: keep, InputOrder: *by == "", Workers: *workers}
	switch {
	case *quartile != "":
		load.Keep = cell.All.Set()
		load.InputOrder = true
	case *by == "usertype" || *by == "segment" || *by == "period":
		load.Store = cell.Key{Action: familyAction, UserType: -1, Period: -1}.Set()
	}

	// TBIN from a file or stdin is read whole and decoded block-parallel
	// straight into the partition; every other input is read record by
	// record.
	readSp := root.StartChild("read_input")
	var part *pipeline.Partition
	var seen pipeline.Loaded
	decodeWorkers := 1
	if !walDir && f == telemetry.TBIN {
		var data []byte
		if *in == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(*in)
		}
		if err == nil {
			readSp.SetAttr("bytes", len(data))
			decodeWorkers = *workers
			if decodeWorkers <= 0 {
				decodeWorkers = runtime.GOMAXPROCS(0)
			}
			part, seen, err = load.TBIN(data)
		}
	} else {
		if !walDir && statErr == nil {
			readSp.SetAttr("bytes", fi.Size())
		}
		part, seen, err = load.Iterate(iterate)
	}
	if err != nil {
		readSp.End()
		return err
	}
	readSp.SetAttr("decode_workers", decodeWorkers)
	readSp.SetAttr("records", seen.Records)
	readSp.SetAttr("successful", seen.Successful)
	readSp.End()
	logger.Info("records loaded", "successful", seen.Successful)

	// Quartiles are assigned over the full population before any other
	// filter, as in the paper.
	sliceSp := root.StartChild("slice_records")
	defer sliceSp.End() // End is idempotent; the happy path ends it below.
	kept := seen.Kept
	if *quartile != "" {
		cuts, err := part.QuartileCuts()
		if err != nil {
			return err
		}
		var q telemetry.Quartile
		switch *quartile {
		case "Q1":
			q = telemetry.Q1
		case "Q2":
			q = telemetry.Q2
		case "Q3":
			q = telemetry.Q3
		case "Q4":
			q = telemetry.Q4
		default:
			return fmt.Errorf("unknown quartile %q", *quartile)
		}
		if part, err = part.SelectQuartile(q, keep, *by == ""); err != nil {
			return err
		}
		kept = part.Len()
		logger.Info("quartile cuts assigned",
			"q1_ms", cuts[0], "q2_ms", cuts[1], "q3_ms", cuts[2])
	}
	sliceSp.SetAttr("records", kept)
	sliceSp.End()
	if kept == 0 {
		return fmt.Errorf("no records left after slicing")
	}
	logger.Info("analyzing", "records", kept)

	if *by != "" {
		return runComparison(stdout, part, opts, *by, familyAction, *probesFlag, *noChart, *workers, root)
	}

	times, lats := part.Columns()
	ciOpts := core.DefaultCIOptions()
	ciOpts.Workers = *workers
	res, err := est.Finish(core.Request{Mode: estMode, CI: *ci, CIOptions: ciOpts},
		&core.Summary{Columns: core.Columns{Times: times, Lats: lats}}, nil)
	if err != nil {
		return err
	}
	return emit(stdout, res, *noChart, *ref, *mode, *probesFlag, *csvOut, *jsonOut)
}

// emit renders the curve, and its confidence band when it has one, as
// chart, probe table, and CSV.
func emit(out io.Writer, res *core.CurveCI, noChart bool, ref float64, mode, probesFlag, csvOut, jsonOut string) error {
	curve := res.Curve
	var band *core.CurveCI
	if res.Lower != nil {
		band = res
		logger.Info("bootstrap complete", "replicates", band.Replicates)
	}
	if !noChart {
		var xs, ys []float64
		for i, v := range curve.NLP {
			if curve.Valid[i] {
				xs = append(xs, curve.BinCenters[i])
				ys = append(ys, v)
			}
		}
		xs, ys = report.Downsample(xs, ys, 70)
		chart := report.LineChart{
			Title:  fmt.Sprintf("Normalized latency preference (reference %.0f ms, %s estimator)", ref, mode),
			XLabel: "latency (ms)", YLabel: "NLP", Width: 72, Height: 18,
		}
		series := []report.Series{{Name: "NLP", X: xs, Y: ys}}
		if band != nil {
			var lx, ly, ux, uy []float64
			for i := range band.Lower {
				if math.IsNaN(band.Lower[i]) {
					continue
				}
				lx = append(lx, band.BinCenters[i])
				ly = append(ly, band.Lower[i])
				ux = append(ux, band.BinCenters[i])
				uy = append(uy, band.Upper[i])
			}
			lx, ly = report.Downsample(lx, ly, 70)
			ux, uy = report.Downsample(ux, uy, 70)
			series = append(series,
				report.Series{Name: "lower", X: lx, Y: ly},
				report.Series{Name: "upper", X: ux, Y: uy})
		}
		if err := chart.Render(out, series...); err != nil {
			return err
		}
	}

	// Probe table.
	var probes []float64
	for _, part := range strings.Split(probesFlag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return fmt.Errorf("bad probe %q", part)
		}
		probes = append(probes, v)
	}
	headers := []string{"latency", "NLP"}
	if band != nil {
		headers = append(headers, "90% CI")
	}
	rows := make([][]string, 0, len(probes))
	for _, p := range probes {
		v, ok := curve.At(p)
		cell := fmt.Sprintf("%.3f", v)
		if !ok {
			cell += " (low support)"
		}
		row := []string{fmt.Sprintf("%.0f ms", p), cell}
		if band != nil {
			if lo, hi, ok := band.Bounds(p); ok {
				row = append(row, fmt.Sprintf("[%.3f, %.3f]", lo, hi))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(out)
	if err := (report.Table{Headers: headers}).Render(out, rows); err != nil {
		return err
	}

	if csvOut != "" {
		file, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer file.Close()
		valid := make([]float64, len(curve.Valid))
		for i, ok := range curve.Valid {
			if ok {
				valid[i] = 1
			}
		}
		names := []string{"latency_ms", "nlp", "raw_ratio", "biased_frac", "unbiased_frac", "valid"}
		cols := [][]float64{curve.BinCenters, curve.NLP, curve.Raw, curve.Biased, curve.Unbiased, valid}
		if band != nil {
			names = append(names, "ci_lower", "ci_upper")
			cols = append(cols, band.Lower, band.Upper)
		}
		if err := report.CSV(file, names, cols...); err != nil {
			return err
		}
		logger.Info("curve written", "path", csvOut)
	}
	if jsonOut != "" {
		file, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := curve.WriteJSON(file); err != nil {
			return err
		}
		logger.Info("curve written", "path", jsonOut)
	}
	return nil
}

// runComparison estimates one -by family of slices of the partition with
// the full method and renders them on one chart with a probe table; the
// families below the action level slice the given action. A non-nil trace
// span receives a partition span for the slicing and one child per slice
// from the pipeline.
func runComparison(out io.Writer, part *pipeline.Partition, opts core.Options, by string, action telemetry.ActionType, probesFlag string, noChart bool, workers int, trace *obs.Span) error {
	partSp := trace.StartChild("partition")
	defer partSp.End() // End is idempotent; the happy path ends it below.
	var slices []pipeline.Slice
	switch by {
	case "action":
		slices = part.ByActionType()
	case "usertype", "segment":
		slices = part.BySegment(action)
	case "quartile":
		var err error
		if slices, err = part.ByQuartile(action); err != nil {
			return err
		}
	case "period":
		slices = part.ByPeriod(action)
	default:
		return fmt.Errorf("unknown -by dimension %q", by)
	}
	partSp.SetAttr("rows", part.Len())
	partSp.SetAttr("groups", len(slices))
	partSp.SetAttr("quartile_users", part.QuartileUsers())
	partSp.End()
	results, err := pipeline.Run(pipeline.Request{Options: opts, TimeNormalized: true, Slices: slices, Workers: workers, Trace: trace})
	if err != nil {
		return err
	}
	var probes []float64
	for _, part := range strings.Split(probesFlag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return fmt.Errorf("bad probe %q", part)
		}
		probes = append(probes, v)
	}
	var series []report.Series
	var rows [][]string
	for _, r := range results {
		if r.Err != nil {
			logger.Warn("slice skipped", "err", r.Err)
			continue
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
		for _, p := range probes {
			v, ok := r.Curve.At(p)
			cell := fmt.Sprintf("%.3f", v)
			if !ok {
				cell = "-"
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	if len(series) == 0 {
		return fmt.Errorf("no slice produced an estimate")
	}
	if !noChart {
		chart := report.LineChart{
			Title:  fmt.Sprintf("Normalized latency preference by %s", by),
			XLabel: "latency (ms)", YLabel: "NLP", Width: 72, Height: 18,
		}
		if err := chart.Render(out, series...); err != nil {
			return err
		}
	}
	headers := []string{by}
	for _, p := range probes {
		headers = append(headers, fmt.Sprintf("NLP@%.0fms", p))
	}
	fmt.Fprintln(out)
	return (report.Table{Headers: headers}).Render(out, rows)
}
