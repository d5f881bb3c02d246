package main

import (
	"math"
	"reflect"
	"testing"
)

func TestJudge(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name             string
		a, b, sa, sb, bd float64
		better, want     string
	}{
		{"inside the bound", 10, 10.9, 0.02, 0.02, 0.10, "lower", vUnchanged},
		{"worse by more than the bound", 10, 11.5, 0.02, 0.02, 0.10, "lower", vRegressed},
		{"better by more than the bound", 10, 8, 0.02, 0.02, 0.10, "lower", vImproved},
		{"throughput falls", 100, 85, 0.02, 0.02, 0.10, "higher", vRegressed},
		{"throughput rises", 100, 115, 0.02, 0.02, 0.10, "higher", vImproved},
		{"spread wider than the bound is unresolved, not unchanged", 10, 10.1, 0.02, 0.30, 0.10, "lower", vUnresolved},
		{"a wide spread also hides a regression", 10, 12, 0.15, 0.02, 0.10, "lower", vUnresolved},
		{"single runs have no spread to object with", 10, 10.5, nan, nan, 0.10, "lower", vUnchanged},
		{"failures appearing where there were none", 0, 0.01, nan, nan, 0, "lower", vRegressed},
		{"still no failures", 0, 0, nan, nan, 0, "lower", vUnchanged},
		{"a reported-only figure is never judged", 1, 9, 2.0, 2.0, unbounded, "lower", vReported},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.sa, c.sb, c.bd, c.better); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func runWith(workload string, values map[string]float64) *result {
	r := &result{Workload: workload, Metrics: map[string]metric{}}
	for name, v := range values {
		r.Metrics[name] = metric{Value: v}
	}
	return r
}

func TestCompareRowsUsesBenchmarkBoundsAndFlagsMissingMetrics(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []benchMetric{{Name: "op_p10_ms", Bound: 0.05}, {Name: "alt_p10_ms", Bound: 0.25}}}
	fa := &resultFile{Runs: []*result{
		runWith(wIngestSteady, map[string]float64{"op_p10_ms": 1.00, "ingest_ack_p95_ms": 2.0, "ingest_capacity_krps": 1000}),
		runWith(wIngestSteady, map[string]float64{"op_p10_ms": 1.02, "ingest_ack_p95_ms": 2.1, "ingest_capacity_krps": 1010}),
	}}
	fb := &resultFile{Runs: []*result{
		runWith(wIngestSteady, map[string]float64{"op_p10_ms": 1.08, "ingest_capacity_krps": 1005}),
		runWith(wIngestSteady, map[string]float64{"op_p10_ms": 1.09, "ingest_capacity_krps": 1000}),
	}}
	got := map[string]string{}
	bounds := map[string]float64{}
	for _, r := range compareRows(bf, fa, fb) {
		got[r.metric] = r.verdict
		bounds[r.metric] = r.bound
	}
	want := map[string]string{
		"op_p10_ms":            vRegressed,  // +8 % against BENCHMARK.json's 5 %
		"ingest_ack_p95_ms":    vUnresolved, // b withheld it
		"ingest_capacity_krps": vUnchanged,  // not the driver's: the benchmark's own bound
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts = %v, want %v", got, want)
	}
	if bounds["op_p10_ms"] != 0.05 || bounds["ingest_capacity_krps"] != 0.25 {
		t.Fatalf("bounds = %v", bounds)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "query-fresh", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "query-fresh", "--seed", "3", "--seconds", "10", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normalizeArgs = %v, want %v", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-smoke"}); !reflect.DeepEqual(got, []string{"-trace", "-smoke"}) {
		t.Fatalf("a bare -trace must stay a switch: %v", got)
	}
}
