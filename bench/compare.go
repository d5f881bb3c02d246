package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (workload, metric) comparison.
const (
	vUnchanged  = "unchanged"
	vImproved   = "improved"
	vRegressed  = "REGRESSED"
	vUnresolved = "unresolved"
	vReported   = "not bounded"
)

// compareRow is one (workload, metric) line of -compare.
type compareRow struct {
	workload, metric, unit string
	a, b                   float64 // medians over each file's runs
	nA, nB                 int
	spreadA, spreadB       float64 // IQR / median; NaN with fewer than two runs
	bound                  float64
	verdict                string
}

// boundFor returns a metric's regression bound: BENCHMARK.json's for the
// metrics the driver carries, the benchmark's own for the rest.
func boundFor(bf *benchmarkFile, d e2eDef) float64 {
	if d.role {
		for _, m := range bf.EndToEnd {
			if m.Name == d.name {
				return m.Bound
			}
		}
	}
	return d.bound
}

// judge applies one bound. worse is how much b is worse than a as a share
// of a (negative when better). A spread wider than the bound means the
// runs cannot resolve a change of that size either way: that is reported
// as unresolved, never as unchanged.
func judge(a, b, spreadA, spreadB, bound float64, better string) string {
	if bound == unbounded {
		return vReported
	}
	if a == 0 && b == 0 {
		return vUnchanged
	}
	if a == 0 {
		if better == "lower" {
			return vRegressed
		}
		return vImproved
	}
	if s := math.Max(spreadA, spreadB); !math.IsNaN(s) && s > bound {
		return vUnresolved
	}
	worse := (b - a) / math.Abs(a)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return vRegressed
	case worse < -bound:
		return vImproved
	}
	return vUnchanged
}

// valuesOf collects one metric's values over a file's runs of a workload.
func valuesOf(f *resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func spreadOrNaN(xs []float64) float64 {
	s, ok := spread(xs)
	if !ok {
		return math.NaN()
	}
	return s
}

// compareRows builds one row per (workload, metric) that either file
// reports.
func compareRows(bf *benchmarkFile, fa, fb *resultFile) []compareRow {
	var rows []compareRow
	for _, w := range workloadNames {
		for _, d := range e2eDefs {
			va, vb := valuesOf(fa, w, d.name), valuesOf(fb, w, d.name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			row := compareRow{
				workload: w, metric: d.name, unit: d.unit, nA: len(va), nB: len(vb),
				bound: boundFor(bf, d), spreadA: spreadOrNaN(va), spreadB: spreadOrNaN(vb),
			}
			if len(va) == 0 || len(vb) == 0 {
				// One side withheld it (a validity guard) or never ran it.
				row.verdict = vUnresolved
			} else {
				row.a, row.b = median(va), median(vb)
				row.verdict = judge(row.a, row.b, row.spreadA, row.spreadB, row.bound, d.better)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func pct(x float64) string {
	if math.IsNaN(x) {
		return "   n/a"
	}
	return fmt.Sprintf("%5.1f%%", 100*x)
}

// compareFiles prints the comparison and returns the exit code: non-zero
// when any metric regressed or a file could not be read.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) int {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintf(w, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	fa, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	if fa.Scale != fb.Scale || fa.Fsync != fb.Fsync || fa.GOMAXPROCS != fb.GOMAXPROCS {
		fmt.Fprintf(w, "warning: the files were taken under different conditions (scale %s/%s, fsync %s/%s, GOMAXPROCS %d/%d)\n",
			fa.Scale, fb.Scale, fa.Fsync, fb.Fsync, fa.GOMAXPROCS, fb.GOMAXPROCS)
	}
	fmt.Fprintf(w, "a = %s (commit %s, %d runs)\nb = %s (commit %s, %d runs)\n\n",
		pathA, fa.Commit, len(fa.Runs), pathB, fb.Commit, len(fb.Runs))
	fmt.Fprintf(w, "%-14s %-24s %12s %12s %-7s %7s %7s %7s %6s  %s\n",
		"workload", "metric", "a", "b", "unit", "b/a", "iqr(a)", "iqr(b)", "bound", "verdict")
	regressed, unresolved := 0, 0
	for _, r := range compareRows(bf, fa, fb) {
		ratio := "    n/a"
		if r.a != 0 {
			ratio = fmt.Sprintf("%7.3f", r.b/r.a)
		}
		bound := "     -"
		if r.bound != unbounded {
			bound = pct(r.bound)
		}
		fmt.Fprintf(w, "%-14s %-24s %12.4f %12.4f %-7s %s %7s %7s %6s  %s\n",
			r.workload, r.metric, r.a, r.b, r.unit, ratio, pct(r.spreadA), pct(r.spreadB), bound, r.verdict)
		switch r.verdict {
		case vRegressed:
			regressed++
		case vUnresolved:
			unresolved++
		}
	}
	fmt.Fprintf(w, "\n%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
