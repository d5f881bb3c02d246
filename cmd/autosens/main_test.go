package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autosens/internal/core"
	"autosens/internal/owasim"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

func TestParsePeriod(t *testing.T) {
	for p := 0; p < timeutil.NumPeriods; p++ {
		want := timeutil.Period(p)
		got, err := parsePeriod(want.String())
		if err != nil || got != want {
			t.Fatalf("parsePeriod(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := parsePeriod("brunch"); err == nil {
		t.Fatal("bogus period parsed")
	}
}

// cliRecords simulates a small stream shared by the CLI tests.
var cliRecords []telemetry.Record

func records(t *testing.T) []telemetry.Record {
	t.Helper()
	if cliRecords == nil {
		cfg := owasim.DefaultConfig(3*timeutil.MillisPerDay, 40, 40)
		cfg.Seed = 17
		res, err := owasim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cliRecords = res.Records
	}
	return cliRecords
}

func cliEstimator(t *testing.T) *core.Estimator {
	t.Helper()
	opts := core.DefaultOptions()
	opts.MinSlotActions = 10
	est, err := core.NewEstimator(opts)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestEmitRendersChartTableAndFiles(t *testing.T) {
	est := cliEstimator(t)
	recs := telemetry.ByAction(telemetry.Successful(records(t)), telemetry.SelectMail)
	curve, err := est.Estimate(recs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "curve.csv")
	jsonPath := filepath.Join(dir, "curve.json")
	var out bytes.Buffer
	if err := emit(&out, curve, nil, false, 300, "plain", "500,1000", csvPath, jsonPath); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Normalized latency preference") {
		t.Fatalf("chart missing:\n%s", text)
	}
	if !strings.Contains(text, "| 500 ms") || !strings.Contains(text, "| 1000 ms") {
		t.Fatalf("probe table missing:\n%s", text)
	}
	csvBytes, err := os.ReadFile(csvPath)
	if err != nil || !strings.HasPrefix(string(csvBytes), "latency_ms,nlp,") {
		t.Fatalf("csv output wrong: %v", err)
	}
	jf, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	loaded, err := core.ReadCurveJSON(jf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.NLP) != len(curve.NLP) {
		t.Fatal("json round trip lost bins")
	}
}

func TestEmitWithBandShowsCI(t *testing.T) {
	est := cliEstimator(t)
	recs := telemetry.ByAction(telemetry.Successful(records(t)), telemetry.SelectMail)
	opts := core.DefaultCIOptions()
	opts.Resamples = 6
	band, err := est.EstimateCI(recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := emit(&out, band.Curve, band, true, 300, "plain", "500", "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "90% CI") {
		t.Fatalf("CI column missing:\n%s", out.String())
	}
}

func TestEmitRejectsBadProbes(t *testing.T) {
	est := cliEstimator(t)
	recs := telemetry.ByAction(telemetry.Successful(records(t)), telemetry.SelectMail)
	curve, err := est.Estimate(recs)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := emit(&out, curve, nil, true, 300, "plain", "50x0", "", ""); err == nil {
		t.Fatal("bad probe accepted")
	}
}

// writeInputs writes the CLI test records as a TBIN file and as a WAL
// directory, the two inputs -stream can read twice.
func writeInputs(t *testing.T) (tbinPath, walDir string) {
	t.Helper()
	dir := t.TempDir()
	tbinPath = filepath.Join(dir, "telemetry.tbin")
	f, err := os.Create(tbinPath)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWriter(f, telemetry.TBIN)
	if err := w.WriteAll(records(t)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	walDir = filepath.Join(dir, "wal")
	log, _, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff, SegmentMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	recs := records(t)
	for lo := 0; lo < len(recs); lo += 1000 {
		if err := log.Append(recs[lo:min(lo+1000, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return tbinPath, walDir
}

// runCLI runs the command and returns its stdout and the curve JSON it
// wrote.
func runCLI(t *testing.T, args ...string) (stdout, curve []byte) {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "curve.json")
	var out bytes.Buffer
	if err := run(append(args, "-json", jsonPath, "-log-level", "error"), &out); err != nil {
		t.Fatalf("autosens %v: %v", args, err)
	}
	curve, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), curve
}

// TestRunStreamMatchesInMemory pins -stream's contract at the command: over
// a TBIN file and over a WAL directory, for every slice family and worker
// count, its stdout and curve JSON are the in-memory run's bytes.
func TestRunStreamMatchesInMemory(t *testing.T) {
	tbinPath, walDir := writeInputs(t)
	for _, input := range [][]string{
		{"-in", tbinPath, "-format", "tbin"},
		{"-in", walDir},
	} {
		for _, slice := range [][]string{
			nil,
			{"-action", "SelectMail"},
			{"-usertype", "business"},
			{"-period", "8am-2pm"},
		} {
			for _, workers := range []string{"1", "2", "8"} {
				args := append(append(append([]string(nil), input...), slice...), "-workers", workers)
				wantOut, wantCurve := runCLI(t, args...)
				gotOut, gotCurve := runCLI(t, append(args, "-stream")...)
				if !bytes.Equal(gotOut, wantOut) {
					t.Fatalf("%v: -stream stdout differs:\n%s\nin-memory:\n%s", args, gotOut, wantOut)
				}
				if !bytes.Equal(gotCurve, wantCurve) {
					t.Fatalf("%v: -stream curve JSON differs from the in-memory curve", args)
				}
			}
		}
	}
}

// TestRunStreamRefusals: every combination -stream cannot serve is refused
// before any input is read — the input path here does not exist — with an
// error and no output.
func TestRunStreamRefusals(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.tbin")
	for _, args := range [][]string{
		{"-in", "-"},
		{"-in", missing, "-mode", "plain"},
		{"-in", missing, "-mode", "biased"},
		{"-in", missing, "-ci"},
		{"-in", missing, "-quartile", "Q1"},
		{"-in", missing, "-by", "action"},
	} {
		var out bytes.Buffer
		err := run(append(args, "-stream", "-nochart", "-log-level", "error"), &out)
		if err == nil || !strings.Contains(err.Error(), "-stream") {
			t.Fatalf("%v: err = %v, want a -stream refusal", args, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: refusal printed output:\n%s", args, out.String())
		}
	}
}

func TestRunComparisonByAction(t *testing.T) {
	recs := telemetry.Successful(records(t))
	opts := core.DefaultOptions()
	opts.MinSlotActions = 10
	var out bytes.Buffer
	if err := runComparison(&out, recs, opts, "action", "", "500,1000", true, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SelectMail", "SwitchFolder", "Search", "ComposeSend"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("slice %s missing from comparison:\n%s", name, out.String())
		}
	}
	if err := runComparison(&out, recs, opts, "bogus", "", "500", true, 0, nil); err == nil {
		t.Fatal("unknown dimension accepted")
	}
}
