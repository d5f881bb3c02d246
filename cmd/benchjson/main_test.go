package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: autosens/internal/core
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkEstimate-8            74    15807216 ns/op    4771234 B/op    38 allocs/op
BenchmarkEstimateCI-8          13    83212345 ns/op   18812345 B/op  1590 allocs/op
BenchmarkNoMem                100     1234567 ns/op
PASS
ok   autosens/internal/core  4.2s
`
	run, err := parse(strings.NewReader(out), "test")
	if err != nil {
		t.Fatal(err)
	}
	if run.Goos != "linux" || run.Goarch != "amd64" || run.Pkg != "autosens/internal/core" {
		t.Fatalf("header fields wrong: %+v", run)
	}
	if !strings.Contains(run.CPU, "Xeon") {
		t.Fatalf("cpu = %q", run.CPU)
	}
	if len(run.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(run.Results))
	}
	ci := run.Results[1]
	if ci.Name != "BenchmarkEstimateCI" || ci.Procs != 8 {
		t.Fatalf("name/procs = %q/%d", ci.Name, ci.Procs)
	}
	if ci.Iterations != 13 || ci.NsPerOp != 83212345 {
		t.Fatalf("iterations/ns = %d/%v", ci.Iterations, ci.NsPerOp)
	}
	if ci.BytesPerOp == nil || *ci.BytesPerOp != 18812345 || ci.AllocsPerOp == nil || *ci.AllocsPerOp != 1590 {
		t.Fatalf("benchmem fields wrong: %+v", ci)
	}
	nomem := run.Results[2]
	if nomem.Procs != 1 || nomem.BytesPerOp != nil {
		t.Fatalf("no-benchmem line parsed wrong: %+v", nomem)
	}
}

func TestParseMultiPackageOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: autosens/internal/telemetry
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkDecodeJSONLFast-8    777    1590213 ns/op    227.00 MB/s    280 B/op    4 allocs/op
PASS
ok   autosens/internal/telemetry  2.1s
pkg: autosens/internal/collector
BenchmarkIngestTBIN-8    6496    201287 ns/op    64.63 MB/s
PASS
ok   autosens/internal/collector  3.0s
`
	run, err := parse(strings.NewReader(out), "test")
	if err != nil {
		t.Fatal(err)
	}
	if run.Pkg != "" {
		t.Fatalf("run-level pkg %q set on a multi-package run", run.Pkg)
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	if run.Results[0].Pkg != "autosens/internal/telemetry" || run.Results[1].Pkg != "autosens/internal/collector" {
		t.Fatalf("per-result pkgs wrong: %q, %q", run.Results[0].Pkg, run.Results[1].Pkg)
	}
	if run.Results[0].MBPerSec == nil || *run.Results[0].MBPerSec != 227 {
		t.Fatalf("MB/s not parsed: %+v", run.Results[0])
	}
}

// writeBaseline commits a one-run document with the given name→ns/op map.
func writeBaseline(t *testing.T, results map[string]float64) string {
	t.Helper()
	run := Run{Label: "baseline"}
	for name, ns := range results {
		run.Results = append(run.Results, Result{Name: name, Iterations: 1, NsPerOp: ns})
	}
	data, err := json.Marshal(Document{Runs: []Run{run}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func parseRun(t *testing.T, text string) Run {
	t.Helper()
	run, err := parse(strings.NewReader(text), "incoming")
	if err != nil {
		t.Fatal(err)
	}
	return run
}

const incoming = `
goos: linux
pkg: autosens/internal/live
BenchmarkLiveQueryDirty-1    1000    120.0 ns/op
BenchmarkLiveQueryRenamed-1  1000    999.0 ns/op
`

// TestDiffReportsMissingBaseline pins the gate hole this PR closes: a
// benchmark present in the incoming run but absent from the committed
// baseline used to be skipped without a word, so a renamed benchmark
// escaped the regression gate. It must now be called out in the table —
// and still pass, because committed histories legitimately trail suite
// growth.
func TestDiffReportsMissingBaseline(t *testing.T) {
	path := writeBaseline(t, map[string]float64{"BenchmarkLiveQueryDirty": 100})
	var out strings.Builder
	err := diff(&out, path, parseRun(t, incoming), "", 0.25, false)
	if err != nil {
		t.Fatalf("without -require-baseline the run must pass: %v", err)
	}
	if !strings.Contains(out.String(), "BenchmarkLiveQueryRenamed") ||
		!strings.Contains(out.String(), "NO BASELINE") {
		t.Fatalf("baseline-missing benchmark not reported:\n%s", out.String())
	}
}

// TestDiffRequireBaselineFails is the strict mode: the same run must fail
// the gate when -require-baseline is set.
func TestDiffRequireBaselineFails(t *testing.T) {
	path := writeBaseline(t, map[string]float64{"BenchmarkLiveQueryDirty": 100})
	var out strings.Builder
	err := diff(&out, path, parseRun(t, incoming), "", 0.25, true)
	if err == nil {
		t.Fatalf("-require-baseline accepted a baseline-missing benchmark:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "no baseline") {
		t.Fatalf("gate failed for the wrong reason: %v", err)
	}
}

// TestDiffRegressionStillFails: the pre-existing contract is untouched —
// a compared benchmark past the bound fails regardless of baseline mode.
func TestDiffRegressionStillFails(t *testing.T) {
	path := writeBaseline(t, map[string]float64{
		"BenchmarkLiveQueryDirty":   50, // incoming 120 → +140%
		"BenchmarkLiveQueryRenamed": 900,
	})
	var out strings.Builder
	err := diff(&out, path, parseRun(t, incoming), "", 0.25, false)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("regression not caught: %v\n%s", err, out.String())
	}
}

// TestDiffNamedMissingFromStdin: a -names benchmark that the incoming run
// does not produce at all is an error even when the baseline lacks it too
// — the gate must not silently pass on a typoed name.
func TestDiffNamedMissingFromStdin(t *testing.T) {
	path := writeBaseline(t, map[string]float64{"BenchmarkLiveQueryDirty": 100})
	var out strings.Builder
	err := diff(&out, path, parseRun(t, incoming), "BenchmarkNoSuch", 0.25, false)
	if err == nil || !strings.Contains(err.Error(), "missing from stdin") {
		t.Fatalf("typoed -names accepted: %v", err)
	}
}

// TestParseExtraMetrics: custom b.ReportMetric units survive into the
// document, so BENCH_cluster.json keeps p99 and throughput alongside
// ns/op.
// TestDiffComparesPerProcs pins rows of one benchmark at several GOMAXPROCS
// (-cpu 1,2; the -2 name suffix) against the baseline row at the same procs,
// and a width the baseline lacks against the name's row.
func TestDiffComparesPerProcs(t *testing.T) {
	data, err := json.Marshal(Document{Runs: []Run{{Label: "baseline", Results: []Result{
		{Name: "BenchmarkIncrementalAdvancing", Procs: 1, Iterations: 1, NsPerOp: 100},
		{Name: "BenchmarkIncrementalAdvancing", Procs: 2, Iterations: 1, NsPerOp: 50},
		{Name: "BenchmarkLiveQueryDirtyPlain/advancing", Procs: 2, Iterations: 1, NsPerOp: 40},
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run := parseRun(t, `
BenchmarkIncrementalAdvancing     	  10	 110 ns/op
BenchmarkIncrementalAdvancing-2   	  10	  55 ns/op
BenchmarkLiveQueryDirtyPlain/advancing-4   	  10	  45 ns/op
`)
	if r := run.Results[1]; r.Name != "BenchmarkIncrementalAdvancing" || r.Procs != 2 {
		t.Fatalf("-2 suffix parsed as %q procs %d", r.Name, r.Procs)
	}
	var out strings.Builder
	if err := diff(&out, path, run, "", 0.25, true); err != nil {
		t.Fatalf("per-procs rows within 25%% failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkIncrementalAdvancing-2") {
		t.Fatalf("table does not tell the procs rows apart:\n%s", out.String())
	}
	// +120% against its own procs-2 baseline, +10% against the procs-1 one.
	run.Results[1].NsPerOp = 110
	if err := diff(&out, path, run, "", 0.25, true); err == nil {
		t.Fatal("the -cpu 2 row was compared against the -cpu 1 baseline")
	}
}

func TestParseExtraMetrics(t *testing.T) {
	run := parseRun(t, `
BenchmarkClusterQueryCached-1   2000000   116.6 ns/op   243.0 p99-ns/op
BenchmarkClusterIngest/nodes=4-1     3   97216246 ns/op   82291 recs/s
`)
	if len(run.Results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(run.Results))
	}
	if got := run.Results[0].Extra["p99-ns/op"]; got != 243.0 {
		t.Fatalf("p99 extra metric = %v, want 243", got)
	}
	if got := run.Results[1].Extra["recs/s"]; got != 82291 {
		t.Fatalf("recs/s extra metric = %v, want 82291", got)
	}
}

func TestParseBenchLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkShort 1",
		"BenchmarkBadIter-4 xx 100 ns/op",
		"BenchmarkBadVal-4 10 abc ns/op",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Fatalf("accepted %q", line)
		}
	}
}
