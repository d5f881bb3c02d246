package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autosens/internal/core"
	"autosens/internal/owasim"
	"autosens/internal/pipeline"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// TestParsePeriod: -period takes every period's name, and refuses any
// other before reading the input, with the CLI's own error text.
func TestParsePeriod(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for p := 0; p < timeutil.NumPeriods; p++ {
		err := run([]string{"-in", missing, "-period", timeutil.Period(p).String(), "-log-level", "error"}, io.Discard)
		if !os.IsNotExist(err) {
			t.Fatalf("-period %v: err = %v, want the missing input's", timeutil.Period(p), err)
		}
	}
	err := run([]string{"-in", missing, "-period", "brunch", "-log-level", "error"}, io.Discard)
	if err == nil || err.Error() != `unknown period "brunch"` {
		t.Fatalf("-period brunch: err = %v", err)
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
	if err := emit(&out, &core.CurveCI{Curve: curve}, false, 300, "plain", "500,1000", csvPath, jsonPath); err != nil {
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
	if err := emit(&out, band, true, 300, "plain", "500", "", ""); err != nil {
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
	if err := emit(&out, &core.CurveCI{Curve: curve}, true, 300, "plain", "50x0", "", ""); err == nil {
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
	part := pipeline.NewPartition(telemetry.Successful(records(t)))
	opts := core.DefaultOptions()
	opts.MinSlotActions = 10
	var out bytes.Buffer
	if err := runComparison(&out, part, opts, "action", telemetry.SelectMail, "500,1000", true, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SelectMail", "SwitchFolder", "Search", "ComposeSend"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("slice %s missing from comparison:\n%s", name, out.String())
		}
	}
	if err := runComparison(&out, part, opts, "bogus", telemetry.SelectMail, "500", true, 0, nil); err == nil {
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

// TestRunBatchListGolden pins the bytes every in-memory slice family
// prints (chart on) and writes as curve JSON, at several worker counts:
// the benchmark's four -by families, the single-slice filters and modes,
// and one -by family over a JSONL copy and a WAL directory of the same
// records. A -by run writes no curve file, so its JSON hash is empty.
func TestRunBatchListGolden(t *testing.T) {
	tbinPath, walDir := writeInputs(t)
	jsonlPath := filepath.Join(t.TempDir(), "t.jsonl")
	writeFile(t, jsonlPath, telemetry.JSONL)
	tbin := []string{"-in", tbinPath, "-format", "tbin"}
	// The same records give the same -by period bytes from every input.
	const byPeriod = "a4de0ee75850b8f5b5245e8935307d6e02821414676ef2e24f016996e6383b03"
	hash := func(b []byte) string {
		if b == nil {
			return ""
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, c := range []struct {
		input, argv       []string
		wantOut, wantJSON string
	}{
		{tbin, []string{"-by", "action"},
			"6e7134782e6032667f887cc1bd62405d81ad74519abcecd1fc94829c7468bede", ""},
		{tbin, []string{"-by", "usertype"},
			"9bb94491714b671a97e85cb0a1ea8b414946c9bff602a3f60bd4ffab2681f621", ""},
		{tbin, []string{"-by", "quartile"},
			"f62d005f30c7c1f08f1fca6176ab19ab7a8870f065c4a0d3b06429a02ca1d1d5", ""},
		{tbin, []string{"-by", "period"}, byPeriod, ""},
		{tbin, []string{"-quartile", "Q2", "-action", "Search"},
			"66f85adf54765b4fd9c291988f5e44126984f014599137be8c6d12483b7c7d22",
			"1546aa45ca204c694affcc23b39c41061ab78ba420f68af208019530525a8203"},
		{tbin, []string{"-usertype", "business", "-period", "8am-2pm", "-mode", "plain"},
			"884d71c095f45ccff673bd569aaa0b154fed591d11ae1d07ad11f4e1e70a8624",
			"94348227d341493696338fe3968aacac25717960916f04859e8e6a6eb35bc103"},
		{tbin, []string{"-mode", "biased"},
			"1cb60cc1b9d3fbb7bbd6af56348bc9b65540084e4ad2e964473c1e8af0c2094a",
			"c0ebdf1779d6718e2ae54a240b5140fab13e43c9dbae9317f97cd4eb3b055d7b"},
		{[]string{"-in", jsonlPath, "-format", "jsonl"}, []string{"-by", "period"}, byPeriod, ""},
		{[]string{"-in", walDir}, []string{"-by", "period"}, byPeriod, ""},
	} {
		for _, workers := range []string{"1", "2", "8"} {
			args := append(append(append([]string(nil), c.input...), c.argv...), "-workers", workers)
			out, curve := runCLIWithCurve(t, c.argv[0] != "-by", args...)
			if got := hash(out); got != c.wantOut {
				t.Errorf("%v: stdout sha256 = %s, want %s", args, got, c.wantOut)
			}
			if got := hash(curve); got != c.wantJSON {
				t.Errorf("%v: curve JSON sha256 = %s, want %s", args, got, c.wantJSON)
			}
		}
	}
}

// TestRunFilterCombosGolden pins -by runs whose row filters interact: a
// filter inside a -by family, a family over one action with the others
// left empty, -quartile before -by quartile's own assignment, and
// -quartile before a family over one action, whose quartile partition holds
// only that action's rows.
func TestRunFilterCombosGolden(t *testing.T) {
	tbinPath := filepath.Join(t.TempDir(), "t.tbin")
	writeFile(t, tbinPath, telemetry.TBIN)
	for _, c := range []struct {
		argv []string
		want string
	}{
		{[]string{"-by", "quartile", "-usertype", "consumer", "-action", "Search"},
			"82125c971915b2d16e278ac7f8f4942e497601a6ff93990f7e23cdc23323a7d1"},
		{[]string{"-by", "quartile", "-quartile", "Q1"},
			"2351ac4997aa880c306e93b938f4dc5595091737108ebe714f7d7203079947b4"},
		{[]string{"-by", "usertype", "-period", "2pm-8pm"},
			"df4153509930fa7121d5d948c5cd01ac0c17eb2b6ed707be8a2368ed444a16b8"},
		{[]string{"-by", "period", "-usertype", "business", "-action", "SwitchFolder"},
			"7ec593888a8db596514d26f757b80a0e8bd98363dc93ad1485eda348622f44d6"},
		{[]string{"-by", "action", "-action", "Search"},
			"f44afa29fe67dd763ecb15286801a7253392245ee922b03b6ac71b1eefce5f55"},
		{[]string{"-quartile", "Q1", "-by", "usertype"},
			"a82767d84470d79a476c0cad164e6885d8cc202e77bbcccd4c20c96863fdc4e1"},
	} {
		for _, workers := range []string{"1", "8"} {
			args := append([]string{"-in", tbinPath, "-format", "tbin", "-workers", workers}, c.argv...)
			out, _ := runCLIWithCurve(t, false, args...)
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("%v: stdout sha256 = %s, want %s", args, got, c.want)
			}
		}
	}
}

// TestRunPartitionSpan: a -by run reports its slicing as a partition span
// between slice_records and the slice spans: the rows the partition holds
// (the family's action only, below the action level), the groups it made
// and the users the quartile assignment ranked.
func TestRunPartitionSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbin")
	writeFile(t, path, telemetry.TBIN)
	succ := telemetry.Successful(records(t))
	users := map[uint64]bool{}
	for _, r := range succ {
		users[r.UserID] = true
	}
	for _, c := range []struct {
		by                   string
		rows, groups, ranked int
	}{
		{"usertype", len(telemetry.ByAction(succ, telemetry.SelectMail)), telemetry.NumUserTypes, 0},
		{"quartile", len(succ), telemetry.NumQuartiles, len(users)},
	} {
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-format", "tbin", "-by", c.by, "-nochart",
			"-trace-out", tracePath, "-log-level", "error"}, &out); err != nil {
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
		var names []string
		attrs := map[string]map[string]any{}
		for _, sp := range trace.Children {
			names = append(names, sp.Name)
			attrs[sp.Name] = sp.Attrs
		}
		if len(names) < 4 || names[1] != "slice_records" || names[2] != "partition" || !strings.HasPrefix(names[3], "slice:") {
			t.Fatalf("-by %s: spans %v, want read_input, slice_records, partition, slice:…", c.by, names)
		}
		if got := attrs["slice_records"]["records"]; got != float64(len(succ)) {
			t.Fatalf("-by %s: slice_records records = %v, want %d", c.by, got, len(succ))
		}
		p := attrs["partition"]
		if p["rows"] != float64(c.rows) || p["groups"] != float64(c.groups) || p["quartile_users"] != float64(c.ranked) {
			t.Fatalf("-by %s: partition attrs %v, want rows=%d groups=%d quartile_users=%d", c.by, p, c.rows, c.groups, c.ranked)
		}
	}
}
