// Command owagen generates synthetic OWA telemetry with the planted
// ground-truth latency sensitivity, writing JSONL, CSV or TBIN logs that the
// autosens analyzer consumes.
//
// Example:
//
//	owagen -days 14 -business 150 -consumer 150 -seed 7 -out telemetry.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"autosens/internal/owasim"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "owagen:", err)
		os.Exit(1)
	}
}

// run is the whole command: it writes the log to stdout (or -out) and its
// summary line and flag errors to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("owagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	days := fs.Int("days", 14, "observation window length in days (59 covers Jan+Feb)")
	business := fs.Int("business", 100, "number of business users")
	consumer := fs.Int("consumer", 100, "number of consumer users")
	seed := fs.Uint64("seed", 1, "simulation seed (reruns are bit-identical)")
	out := fs.String("out", "-", "output path, or - for stdout")
	format := telemetry.NewFormatFlag(telemetry.JSONL)
	fs.Var(format, "format", "output format: "+format.Choices())
	failures := fs.Float64("failures", 0.01, "fraction of actions that fail")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *days <= 0 {
		return fmt.Errorf("days must be positive, got %d", *days)
	}
	cfg := owasim.DefaultConfig(timeutil.Millis(*days)*timeutil.MillisPerDay, *business, *consumer)
	cfg.Seed = *seed
	cfg.FailureRate = *failures
	if err := cfg.Validate(); err != nil {
		return err
	}

	dst := stdout
	if *out != "-" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		dst = file
	}
	w := telemetry.NewWriter(dst, format.Format())
	if err := owasim.RunTo(cfg, w.Write, nil); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "owagen: wrote %d records (%d days, %d users, seed %d)\n",
		w.Count(), *days, *business+*consumer, *seed)
	return nil
}
