package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// Workload names are stable: later issues cite them.
const (
	wIngestSteady = "ingest-steady"
	wQueryFresh   = "query-fresh"
	wWindowCold   = "window-cold"
	wBatchAnalyze = "batch-analyze"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{wIngestSteady, wQueryFresh, wWindowCold, wBatchAnalyze}

// metric is one reported number. N is the sample count behind a timing;
// At is the percentile a tail was actually taken at when the phase was
// too short to support the named one; Raw is the value as measured when
// Value is scaled to the reference host's speed (see calib.go).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	At    float64 `json:"at,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

// scaled is a timing measured while the host ran at the given speed.
func scaled(v, speed float64, n int) metric {
	return metric{Value: v * speed, Raw: v, N: n}
}

// e2eDef describes one end-to-end metric: its unit, which way is better,
// which workloads report it, and the regression bound -compare applies to
// it. A metric with role set is one of BENCHMARK.json's end-to-end metrics
// and takes its bound from there.
type e2eDef struct {
	name      string
	unit      string
	better    string // "lower" or "higher"
	workloads []string
	role      bool
	bound     float64
}

// unbounded is the bound of a figure -compare prints but does not judge.
const unbounded = -1

// e2eDefs are the issue's 16 end-to-end metrics, ingest_ack_p95_ms (the
// ingest tail below the fsync population; see runIngestSteady) and the two
// quiet-latency roles the acceptance driver is given (see quietAt). The
// driver wants every one of its metrics from every workload, never 0, with
// a bound of at most 25 %, so it is handed the five workload-neutral roles
// and the workload-scoped names are guarded by -compare alone: medians and
// throughput at 25 %, tails at 50 %, the 40 ms restart at 70 %.
var e2eDefs = []e2eDef{
	{"setup_s", "s", "lower", workloadNames, true, 0},
	{"op_p10_ms", "ms", "lower", workloadNames, true, 0},
	{"alt_p10_ms", "ms", "lower", workloadNames, true, 0},
	{"ingest_ack_p50_ms", "ms", "lower", []string{wIngestSteady}, false, 0.25},
	{"ingest_ack_p95_ms", "ms", "lower", []string{wIngestSteady}, false, 0.50},
	{"ingest_ack_p99_ms", "ms", "lower", []string{wIngestSteady}, false, unbounded},
	{"ingest_capacity_krps", "krec/s", "higher", []string{wIngestSteady}, false, 0.25},
	{"query_cached_p50_ms", "ms", "lower", []string{wQueryFresh}, false, 0.25},
	{"query_dirty_p50_ms", "ms", "lower", []string{wQueryFresh}, false, 0.25},
	{"query_dirty_p95_ms", "ms", "lower", []string{wQueryFresh}, false, 0.50},
	{"query_backfill_p50_ms", "ms", "lower", []string{wQueryFresh}, false, 0.25},
	{"window_sliding_p50_ms", "ms", "lower", []string{wWindowCold}, false, 0.25},
	{"window_sliding_p95_ms", "ms", "lower", []string{wWindowCold}, false, 0.50},
	{"window_pinned_p50_ms", "ms", "lower", []string{wWindowCold}, false, 0.25},
	{"restart_ready_s", "s", "lower", []string{wWindowCold}, false, 0.70},
	{"batch_analyze_s", "s", "lower", []string{wBatchAnalyze}, false, 0.25},
	{"rss_peak_mb", "MB", "lower", workloadNames, true, 0},
	{"disk_bytes_per_rec", "B", "lower", workloadNames, true, 0},
	{"fail_ratio", "ratio", "lower", workloadNames, false, 0},
}

// roleMetrics are BENCHMARK.json's end-to-end metrics, in its order.
var roleMetrics = []string{"setup_s", "op_p10_ms", "alt_p10_ms", "rss_peak_mb", "disk_bytes_per_rec"}

func e2eByName(name string) (e2eDef, bool) {
	for _, d := range e2eDefs {
		if d.name == name {
			return d, true
		}
	}
	return e2eDef{}, false
}

// result is one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Scale     string  `json:"scale"`
	Traced    bool    `json:"traced"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	WallS     float64 `json:"wall_s"`
	// Metrics are the end-to-end metrics by name; Layers the per-layer
	// metrics of a traced run.
	Metrics map[string]metric `json:"metrics"`
	Layers  map[string]metric `json:"layers,omitempty"`
	// Phases records how long each phase actually measured, in seconds.
	Phases map[string]float64 `json:"phases"`
	// Unresolved names metrics a validity guard refused to report;
	// Problems lists oracle mismatches and tripped guards (any one makes
	// the run incorrect).
	Unresolved []string `json:"unresolved,omitempty"`
	Problems   []string `json:"problems,omitempty"`
	Notes      []string `json:"notes,omitempty"`
	// Shares, from a traced run, says where the requests of a phase spent
	// their time: "<phase> <outermost span>" → span name → share of the
	// requests' total time that was that span's self time.
	Shares map[string]map[string]float64 `json:"self_time_shares,omitempty"`
}

func newResult(workload string, seed uint64, sc scale, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Scale: sc.name, Traced: traced,
		Metrics: map[string]metric{}, Layers: map[string]metric{}, Phases: map[string]float64{},
		Shares: map[string]map[string]float64{},
	}
}

// set records an end-to-end metric.
func (r *result) set(name string, m metric) {
	d, ok := e2eByName(name)
	if !ok {
		panic("bench: undefined end-to-end metric " + name)
	}
	m.Unit = d.unit
	r.Metrics[name] = m
}

// note records something a reader of the numbers should know that is not
// a failure.
func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// count adds one phase's requests to the attempted/failed totals.
func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// finish derives fail_ratio and the verdict.
func (r *result) finish() {
	r.set("fail_ratio", metric{Value: float64(r.Failed) / float64(max(r.Attempted, 1)), N: r.Attempted})
	// Every metric the workload owes is either reported or was withheld by
	// a guard that said so; a metric that silently went missing is a bug in
	// the benchmark, and fails the run like any other check. (End-to-end
	// metrics are the untraced run's to report.)
	for _, d := range e2eDefs {
		_, reported := r.Metrics[d.name]
		if !r.Traced && !reported && !slices.Contains(r.Unresolved, d.name) && slices.Contains(d.workloads, r.Workload) {
			r.problem("metric %s was neither reported nor withheld", d.name)
		}
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

// benchmarkFile is BENCHMARK.json, the contract with the acceptance
// driver; -compare reads its bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
