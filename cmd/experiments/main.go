// Command experiments regenerates the paper's tables and figures (plus the
// validation experiments) from a fresh simulation run, printing ASCII
// renditions and optionally writing the underlying series as CSV files.
//
// Examples:
//
//	experiments                      # run everything at small scale
//	experiments -scale paper         # full two-month (Jan+Feb) windows
//	experiments -run fig4,fig5       # selected experiments only
//	experiments -outdir results/     # also write CSV series per experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"autosens/internal/experiments"
	"autosens/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run writes the experiments' results to stdout and its progress and
// timing lines to stderr, so stdout is a function of the flags alone.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "small", "simulation scale: small or paper")
	runFlag := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	outdir := fs.String("outdir", "", "directory for CSV series output (optional)")
	list := fs.Bool("list", false, "list available experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "small":
		scale = experiments.ScaleSmall
	case "paper":
		scale = experiments.ScalePaper
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	var selected []experiments.Experiment
	if *runFlag == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			e, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	fmt.Fprintf(stderr, "experiments: simulating workload (scale=%s, seed=%d)...\n", *scaleFlag, *seed)
	start := time.Now()
	ctx, err := experiments.NewContext(scale, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "experiments: %d records in %v\n", len(ctx.Records), time.Since(start).Round(time.Millisecond))

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	for _, e := range selected {
		fmt.Fprintf(stdout, "\n================================================================================\n")
		fmt.Fprintf(stdout, "%s — %s\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "================================================================================\n\n")
		t0 := time.Now()
		out, err := e.Run(ctx, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(stderr, "experiments: %s completed in %v\n", e.ID, time.Since(t0).Round(time.Millisecond))
		if *outdir != "" && out != nil {
			if err := writeCSVs(*outdir, e.ID, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSVs dumps each series of an outcome as <outdir>/<id>_<series>.csv
// and the headline values as <outdir>/<id>_values.csv.
func writeCSVs(dir, id string, out *experiments.Outcome) error {
	for _, s := range out.Series {
		name := sanitize(s.Name)
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", id, name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = report.CSV(f, []string{"x", "y"}, s.X, s.Y)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if len(out.Values) > 0 {
		path := filepath.Join(dir, fmt.Sprintf("%s_values.csv", id))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "name,value")
		for _, k := range report.SortedKeys(out.Values) {
			fmt.Fprintf(f, "%s,%g\n", k, out.Values[k])
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
