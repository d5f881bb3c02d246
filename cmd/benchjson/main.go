// Command benchjson converts `go test -bench` text output into a stable
// JSON document so benchmark trajectories can be committed and diffed.
//
// It reads benchmark output on stdin and writes JSON on stdout. With -prev
// pointing at an existing document, the new run is appended to the previous
// runs, building a before/after history:
//
//	go test -bench=. -benchmem -run='^$' ./internal/core/ |
//	    benchjson -label "PR 2 (shared key plan)" -prev BENCH_core.json > out.json
//
// With -against it becomes a regression gate instead: the incoming run is
// compared to the LAST run in the committed document, a delta table is
// printed, and the exit status is nonzero if any compared benchmark's
// ns/op regressed by more than -max-regress (25% by default):
//
//	go test -bench='BenchmarkLiveQuery' -run='^$' ./internal/live/ |
//	    benchjson -against BENCH_live.json -names BenchmarkLiveQueryDirty
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name with the -P GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Pkg is set on multi-package runs, where results under one Run come
	// from different packages; single-package runs record it on the Run.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is the measured b.N.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only with -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// MBPerSec is present only for benchmarks that call b.SetBytes.
	MBPerSec *float64 `json:"mb_per_sec,omitempty"`
	// Extra holds custom b.ReportMetric units ("p99-ns/op", "recs/s", ...)
	// keyed by unit, so committed documents keep the full benchmark line.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Run is one labelled invocation of the benchmark suite.
type Run struct {
	Label   string   `json:"label"`
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// Document is the committed file: an append-only list of runs.
type Document struct {
	Runs []Run `json:"runs"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	label := flag.String("label", "run", "label recorded for this benchmark run")
	prev := flag.String("prev", "", "existing benchjson document to append to (ignored if missing)")
	against := flag.String("against", "",
		"committed benchjson document to diff the incoming run against (regression-gate mode: prints a delta table, no JSON output)")
	maxRegress := flag.Float64("max-regress", 0.25,
		"with -against, fail when a compared benchmark's ns/op regresses by more than this fraction")
	names := flag.String("names", "",
		"with -against, comma-separated benchmark names to compare (empty compares every name present in both runs)")
	requireBaseline := flag.Bool("require-baseline", false,
		"with -against, fail when an incoming benchmark has no baseline entry (default: report it and pass)")
	flag.Parse()

	if *against != "" {
		cur, err := parse(os.Stdin, *label)
		if err != nil {
			return err
		}
		return diff(os.Stdout, *against, cur, *names, *maxRegress, *requireBaseline)
	}

	doc := Document{}
	if *prev != "" {
		data, err := os.ReadFile(*prev)
		switch {
		case err == nil:
			if err := json.Unmarshal(data, &doc); err != nil {
				return fmt.Errorf("parse %s: %w", *prev, err)
			}
		case os.IsNotExist(err):
			// First run: start a fresh document.
		default:
			return err
		}
	}

	cur, err := parse(os.Stdin, *label)
	if err != nil {
		return err
	}
	if len(cur.Results) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	doc.Runs = append(doc.Runs, cur)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// diff compares the incoming run against the last run committed in path,
// printing a delta table and returning an error (nonzero exit) when any
// compared benchmark's ns/op regressed past maxRegress. Improvements and
// regressions within the bound pass. An incoming benchmark with no
// baseline entry used to be skipped silently — a renamed benchmark would
// sail through the gate unguarded — so it is now reported as NO BASELINE
// and, under requireBaseline, fails the gate.
func diff(w io.Writer, path string, cur Run, names string, maxRegress float64, requireBaseline bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		return fmt.Errorf("%s holds no runs to compare against", path)
	}
	// A run may hold one benchmark at several GOMAXPROCS (-cpu 1,2): a row
	// compares against the baseline row at its own procs, else — the gate
	// running on a host of another width — against the name's last row.
	type row struct {
		name  string
		procs int
	}
	base := doc.Runs[len(doc.Runs)-1]
	baseNs := make(map[row]float64, len(base.Results))
	byName := make(map[string]float64, len(base.Results))
	for _, r := range base.Results {
		baseNs[row{r.Name, r.Procs}] = r.NsPerOp
		byName[r.Name] = r.NsPerOp
	}
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}

	compared, failed, unbaselined := 0, 0, 0
	inCur := map[string]bool{}
	fmt.Fprintf(w, "against %s (run %q):\n", path, base.Label)
	for _, r := range cur.Results {
		inCur[r.Name] = true
		if len(want) > 0 && !want[r.Name] {
			continue
		}
		label := r.Name
		if r.Procs > 1 {
			label += "-" + strconv.Itoa(r.Procs)
		}
		b, ok := baseNs[row{r.Name, r.Procs}]
		if !ok {
			b, ok = byName[r.Name]
		}
		if !ok || b <= 0 {
			unbaselined++
			fmt.Fprintf(w, "  %-36s %14s -> %14.1f ns/op           NO BASELINE\n",
				label, "-", r.NsPerOp)
			continue
		}
		compared++
		delta := (r.NsPerOp - b) / b
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSION"
			failed++
		}
		fmt.Fprintf(w, "  %-36s %14.1f -> %14.1f ns/op  %+7.1f%%  %s\n",
			label, b, r.NsPerOp, 100*delta, status)
	}
	for n := range want {
		if !inCur[n] {
			return fmt.Errorf("named benchmark %s missing from stdin", n)
		}
	}
	if compared == 0 && unbaselined == 0 {
		return fmt.Errorf("no comparable benchmarks between stdin and %s", path)
	}
	if requireBaseline && unbaselined > 0 {
		return fmt.Errorf("%d benchmarks have no baseline in %s (rename or missing commit?)",
			unbaselined, path)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed more than %.0f%% ns/op",
			failed, compared, 100*maxRegress)
	}
	fmt.Fprintf(w, "  %d benchmarks within the %.0f%% bound\n", compared, 100*maxRegress)
	return nil
}

// parse scans `go test -bench` output. Benchmark lines look like:
//
//	BenchmarkEstimateCI-8   13   83212345 ns/op   18812345 B/op   1590 allocs/op
//
// Header lines (goos:, goarch:, pkg:, cpu:) annotate the run. Multi-package
// invocations (`go test -bench=. ./pkg1/ ./pkg2/`) repeat the pkg: header
// per package; each result is then tagged with its own package, and the
// Run-level Pkg is set only when all results agree.
func parse(r io.Reader, label string) (Run, error) {
	run := Run{Label: label}
	sc := bufio.NewScanner(r)
	var pkg string
	pkgs := map[string]bool{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			run.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			run.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			run.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			res.Pkg = pkg
			pkgs[pkg] = true
			run.Results = append(run.Results, res)
		}
	}
	if len(pkgs) == 1 {
		// Single-package run: hoist the package to the Run, as before.
		for i := range run.Results {
			run.Pkg = run.Results[i].Pkg
			run.Results[i].Pkg = ""
		}
	}
	return run, sc.Err()
}

func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	res := Result{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], p
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = n
	// The tail is value/unit pairs: 83212345 ns/op 18812345 B/op ...
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			val := v
			res.BytesPerOp = &val
		case "allocs/op":
			val := v
			res.AllocsPerOp = &val
		case "MB/s":
			val := v
			res.MBPerSec = &val
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[fields[i+1]] = v
		}
	}
	return res, res.NsPerOp > 0
}
