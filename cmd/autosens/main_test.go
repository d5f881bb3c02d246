package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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

// writeFile writes the CLI test records to path in the given format.
func writeFile(t *testing.T, path string, format telemetry.Format) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewWriter(f, format)
	if err := w.WriteAll(records(t)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeInputs writes the CLI test records as a TBIN file and as a WAL
// directory, the two inputs -stream can read twice.
func writeInputs(t *testing.T) (tbinPath, walDir string) {
	t.Helper()
	dir := t.TempDir()
	tbinPath = filepath.Join(dir, "telemetry.tbin")
	writeFile(t, tbinPath, telemetry.TBIN)

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
// wrote; a missing curve file fails the test.
func runCLI(t *testing.T, args ...string) (stdout, curve []byte) {
	t.Helper()
	return runCLIWithCurve(t, true, args...)
}

// runCLIWithCurve is runCLI for commands that write a curve file only when
// wantCurve is set (-by writes none); the file's presence must match.
func runCLIWithCurve(t *testing.T, wantCurve bool, args ...string) (stdout, curve []byte) {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "curve.json")
	var out bytes.Buffer
	if err := run(append(args, "-json", jsonPath, "-log-level", "error"), &out); err != nil {
		t.Fatalf("autosens %v: %v", args, err)
	}
	curve, err := os.ReadFile(jsonPath)
	switch {
	case !wantCurve && os.IsNotExist(err):
		return out.Bytes(), nil
	case !wantCurve && err == nil:
		t.Fatalf("autosens %v wrote a curve file", args)
	case err != nil:
		t.Fatal(err)
	}
	return out.Bytes(), curve
}

// TestRunFormatsAgree: the benchmark's five invocations print the same
// bytes and write the same curve over one record set stored as TBIN, which
// is decoded whole and block-parallel, and as JSONL, which is read record
// by record — at any worker count.
func TestRunFormatsAgree(t *testing.T) {
	dir := t.TempDir()
	tbinPath, jsonlPath := filepath.Join(dir, "t.tbin"), filepath.Join(dir, "t.jsonl")
	writeFile(t, tbinPath, telemetry.TBIN)
	writeFile(t, jsonlPath, telemetry.JSONL)
	for _, argv := range [][]string{
		{"-by", "action"},
		{"-by", "usertype"},
		{"-by", "quartile"},
		{"-by", "period"},
		{"-action", "SelectMail", "-ci"},
	} {
		var wantOut, wantCurve []byte
		for _, workers := range []string{"1", "2", "8"} {
			for _, input := range [][]string{
				{"-in", jsonlPath, "-format", "jsonl"},
				{"-in", tbinPath, "-format", "tbin"},
			} {
				args := append(append(append([]string(nil), input...), argv...), "-nochart", "-workers", workers)
				gotOut, gotCurve := runCLIWithCurve(t, argv[0] != "-by", args...)
				if wantOut == nil {
					wantOut, wantCurve = gotOut, gotCurve
					continue
				}
				if !bytes.Equal(gotOut, wantOut) {
					t.Fatalf("%v: stdout differs:\n%s\nJSONL at -workers 1:\n%s", args, gotOut, wantOut)
				}
				if !bytes.Equal(gotCurve, wantCurve) {
					t.Fatalf("%v: curve JSON differs from JSONL at -workers 1", args)
				}
			}
		}
	}
}

// TestRunQuartileOverSuccessfulRecords: -quartile assigns quartiles over
// every successful record, and only then applies the other filters.
func TestRunQuartileOverSuccessfulRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbin")
	writeFile(t, path, telemetry.TBIN)
	_, got := runCLI(t, "-in", path, "-format", "tbin", "-quartile", "Q2", "-action", "Search", "-nochart")

	recs := telemetry.Successful(records(t))
	assign, _, err := telemetry.AssignQuartiles(recs)
	if err != nil {
		t.Fatal(err)
	}
	recs = telemetry.Filter(recs, func(r telemetry.Record) bool {
		return assign[r.UserID] == telemetry.Q2 && r.Action == telemetry.Search
	})
	est, err := core.NewEstimator(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	curve, err := est.EstimateTimeNormalized(recs)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := curve.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("-quartile Q2 -action Search curve differs from quartiles assigned over all successful records")
	}
}

// TestRunTruncatedTBIN: a torn TBIN file fails with the streaming reader's
// error text and prints nothing.
func TestRunTruncatedTBIN(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "t.tbin")
	writeFile(t, full, telemetry.TBIN)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)/2]
	_, want := telemetry.NewReader(bytes.NewReader(torn), telemetry.TBIN).ReadAll()
	if want == nil {
		t.Fatal("streaming reader accepts the torn file")
	}
	path := filepath.Join(dir, "torn.tbin")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "curve.json")
	for _, workers := range []string{"1", "8"} {
		var out bytes.Buffer
		err := run([]string{"-in", path, "-format", "tbin", "-action", "SelectMail", "-workers", workers,
			"-json", jsonPath, "-log-level", "error"}, &out)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("-workers %s: err = %v, streaming reader says %v", workers, err, want)
		}
		if out.Len() != 0 {
			t.Fatalf("-workers %s: a failed load printed output:\n%s", workers, out.String())
		}
		if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
			t.Fatalf("-workers %s: a failed load wrote a curve (stat: %v)", workers, err)
		}
	}
}

// TestRunReadInputSpan: the read_input span reports the input's size and
// how many goroutines decoded it — the -workers bound for TBIN, one for a
// record-by-record JSONL read.
func TestRunReadInputSpan(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		format  telemetry.Format
		workers string
		want    float64
	}{
		{telemetry.TBIN, "3", 3},
		{telemetry.JSONL, "3", 1},
	} {
		path := filepath.Join(dir, "t."+c.format.String())
		writeFile(t, path, c.format)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		tracePath := filepath.Join(dir, "trace.json")
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-format", c.format.String(), "-action", "SelectMail", "-nochart",
			"-workers", c.workers, "-trace-out", tracePath, "-log-level", "error"}, &out); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			Children []struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"attrs"`
			} `json:"children"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatal(err)
		}
		var attrs map[string]any
		for _, sp := range trace.Children {
			if sp.Name == "read_input" {
				attrs = sp.Attrs
			}
		}
		if attrs["bytes"] != float64(info.Size()) || attrs["decode_workers"] != c.want {
			t.Fatalf("%v: read_input attrs %v, want bytes=%d decode_workers=%v", c.format, attrs, info.Size(), c.want)
		}
	}
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

// TestRunModeRefusals: -mode values an invocation cannot honour are refused
// before any input is read — the input path here does not exist — with an
// error and no output.
func TestRunModeRefusals(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.tbin")
	for _, args := range [][]string{
		{"-action", "SelectMail", "-mode", "bogus"},
		{"-action", "SelectMail", "-ci", "-mode", "bogus"},
		{"-action", "SelectMail", "-ci", "-mode", "biased"},
		{"-by", "usertype", "-mode", "plain"},
		{"-by", "usertype", "-mode", "biased"},
		{"-by", "action", "-ci"},
	} {
		var out bytes.Buffer
		err := run(append(args, "-in", missing, "-nochart", "-log-level", "error"), &out)
		if err == nil || os.IsNotExist(err) || strings.Contains(err.Error(), "missing.tbin") {
			t.Fatalf("%v: err = %v, want a refusal before reading", args, err)
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

// TestRunNormalizedBandGolden pins the bytes of the time-normalized band
// the benchmark's -ci invocation prints (chart and probe table), writes as
// CSV (with its ci_lower/ci_upper columns) and as curve JSON, at several
// worker counts. The hashes were recorded when every bootstrap replicate
// reran the batch estimator from scratch.
func TestRunNormalizedBandGolden(t *testing.T) {
	const (
		wantOut  = "9dde65c5d34f1e2cb1b26afdf9a57cb83e7b3ef30d4217a6976a5d6452db9d4e"
		wantCSV  = "41a04bc37308afb2726b03f39065f85cca6829bf7281cc3666ceaa2c3f3b80f9"
		wantJSON = "26fc07de2702f3def15566ea8677106b75e3504e02a109eb7dc8d1cedf38ccbb"
	)
	dir := t.TempDir()
	tbinPath := filepath.Join(dir, "t.tbin")
	writeFile(t, tbinPath, telemetry.TBIN)
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, workers := range []string{"1", "2", "8"} {
		csvPath, jsonPath := filepath.Join(dir, "c.csv"), filepath.Join(dir, "c.json")
		var out bytes.Buffer
		args := []string{"-in", tbinPath, "-format", "tbin", "-action", "SelectMail", "-ci",
			"-workers", workers, "-csv", csvPath, "-json", jsonPath, "-log-level", "error"}
		if err := run(args, &out); err != nil {
			t.Fatalf("autosens %v: %v", args, err)
		}
		csvBytes, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		jsonBytes, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ what, got, want string }{
			{"stdout", hash(out.Bytes()), wantOut},
			{"csv", hash(csvBytes), wantCSV},
			{"json", hash(jsonBytes), wantJSON},
		} {
			if c.got != c.want {
				t.Errorf("-workers %s: %s sha256 = %s, want %s", workers, c.what, c.got, c.want)
			}
		}
	}
}
