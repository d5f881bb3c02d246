package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// resultFile is what a run of the benchmark leaves behind and what
// -compare reads: the conditions the numbers were taken under, then one
// entry per (workload, seed) run.
type resultFile struct {
	// The validity record: a number from another machine shape, Go
	// version, flush policy or scale is not comparable with this one.
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Fsync      string `json:"fsync"`
	Scale      string `json:"scale"`
	// PhaseSeconds are the configured phase durations of the scale.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	Caveat       string             `json:"caveat"`
	Runs         []*result          `json:"runs"`
}

func newResultFile(sc scale, seed uint64, procs int) *resultFile {
	return &resultFile{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Fsync:      fsyncPolicy,
		Scale:      sc.name,
		PhaseSeconds: map[string]float64{
			"ingest-steady/rate":        sc.rateDur.Seconds(),
			"ingest-steady/capacity":    sc.capacityDur.Seconds(),
			"query-fresh/cached":        sc.cachedDur.Seconds(),
			"query-fresh/advancing":     sc.advancingDur.Seconds(),
			"query-fresh/backfill":      sc.backfillDur.Seconds(),
			"window-cold/windows":       sc.windowDur.Seconds(),
			"batch-analyze/repetitions": sc.batchMinDur.Seconds(),
		},
		Caveat: "sandbox latencies: reads come from the page cache and fsync is cheap; not a storage device's numbers",
	}
}

// commit names the code under test; the driver's checkouts are not git
// repositories, so "unknown" is an expected answer.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// formatMetric renders one metric line: name, value, unit, and — for
// timings — the sample count and the percentile actually reported.
func formatMetric(name string, m metric) string {
	s := fmt.Sprintf("  %-36s %12.4f %-7s", name, m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d", m.N)
	}
	if m.At > 0 {
		s += fmt.Sprintf(" (p%g)", m.At)
	}
	if m.Raw > 0 {
		s += fmt.Sprintf(" (as measured %.4f; scaled to the reference host speed)", m.Raw)
	}
	return s
}

// printResult prints one run: every end-to-end metric the workload
// reports, the phases, the per-layer metrics of a traced run, and the
// verdict with its reasons.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  seed=%d scale=%s  (%.1fs wall)\n", r.Workload, r.Seed, r.Scale, r.WallS)
	for _, d := range e2eDefs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintln(w, formatMetric(d.name, m))
		}
	}
	for _, name := range r.Unresolved {
		fmt.Fprintf(w, "  %-36s %12s\n", name, "unresolved")
	}
	fmt.Fprint(w, "  phases:")
	for _, p := range sortedKeys(r.Phases) {
		fmt.Fprintf(w, " %s=%.1fs", p, r.Phases[p])
	}
	fmt.Fprintf(w, "\n  requests: attempted=%d failed=%d\n", r.Attempted, r.Failed)
	if r.Traced {
		fmt.Fprintln(w, "  per-layer (traced in-process run):")
		for _, name := range layerNames {
			if m, ok := r.Layers[name]; ok {
				fmt.Fprintln(w, "  "+formatMetric(name, m))
			}
		}
	}
	for _, key := range sortedKeys(r.Shares) {
		fmt.Fprintf(w, "  self time of [%s] requests:", key)
		for _, name := range sortedKeys(r.Shares[key]) {
			fmt.Fprintf(w, " %s=%.1f%%", name, 100*r.Shares[key][name])
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
	if r.Correct {
		fmt.Fprintln(w, "  checks: all passed")
		return
	}
	fmt.Fprintln(w, "  checks: FAILED")
	for _, p := range r.Problems {
		fmt.Fprintln(w, "    - "+p)
	}
}
