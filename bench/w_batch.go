package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"
)

// batchArgv is the fixed list of autosens invocations one repetition
// runs: the slice families the paper reports (by action, by user type, by
// latency quartile, by period) and one bootstrap band.
var batchArgv = [][]string{
	{"-by", "action"},
	{"-by", "usertype"},
	{"-by", "quartile"},
	{"-by", "period"},
	{"-action", "SelectMail", "-ci"},
}

// batchOutput is what one repetition produced: each invocation's stdout
// and the curve JSON it wrote (only the non -by invocation writes one).
type batchOutput struct {
	stdout [][]byte
	curves [][]byte
	walls  []float64 // seconds per invocation; not part of equality
}

func (a batchOutput) equal(b batchOutput) bool {
	if len(a.stdout) != len(b.stdout) {
		return false
	}
	for i := range a.stdout {
		if !bytes.Equal(a.stdout[i], b.stdout[i]) || !bytes.Equal(a.curves[i], b.curves[i]) {
			return false
		}
	}
	return true
}

// batchRepetition runs the whole argv list once, each invocation its own
// process, and returns the wall time, the outputs and the largest peak
// RSS among the children.
func (e *env) batchRepetition(extra ...string) (wall time.Duration, out batchOutput, rssMB float64, err error) {
	start := time.Now()
	for i, argv := range batchArgv {
		began := time.Now()
		jsonPath := filepath.Join(e.work, fmt.Sprintf("curve-%d.json", i))
		_ = os.Remove(jsonPath)
		args := []string{"-in", e.ds.path, "-format", "tbin", "-nochart", "-json", jsonPath, "-log-level", "error"}
		args = append(append(args, argv...), extra...)
		cmd := exec.CommandContext(e.ctx, e.bin.autosens, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		rss, err := runWatched(cmd)
		if err != nil {
			return 0, out, 0, fmt.Errorf("autosens %v: %w: %s", argv, err, bytes.TrimSpace(stderr.Bytes()))
		}
		rssMB = max(rssMB, rss)
		curve, err := os.ReadFile(jsonPath)
		if err != nil && !os.IsNotExist(err) {
			return 0, out, 0, err
		}
		out.stdout = append(out.stdout, stdout.Bytes())
		out.curves = append(out.curves, curve)
		out.walls = append(out.walls, time.Since(began).Seconds())
	}
	return time.Since(start), out, rssMB, nil
}

// quietList is the time one repetition of the argv list takes at the
// host's quiet speed, in ms: each invocation at its quiet latency over the
// repetitions (with a handful of repetitions, its fastest), summed, because
// one repetition runs them one after another.
func quietList(perArgv [][]float64) float64 {
	mean, _ := quietMean(perArgv)
	return mean * float64(len(perArgv))
}

// runBatchAnalyze is the paper's own use: the autosens binary over D's
// TBIN file — telemetry decode → pipeline partition → core estimators, no
// server. It bypasses collector, wal, live and store, so a serving-path
// change must leave it flat and an estimator change shows here first.
func runBatchAnalyze(e *env) error {
	if e.tr != nil {
		// There is no server to wrap: the traced pass is direct calls into
		// the layers the CLI is made of, and repeats none of the process runs.
		e.setupDone()
		e.res.count(1, 0)
		return e.traceBatchLayers()
	}
	sc := e.sc
	// Warm-up: one untimed repetition pages the dataset file in and gives
	// the reference output every timed repetition must reproduce.
	_, ref, rss, err := e.batchRepetition()
	if err != nil {
		return err
	}
	e.res.count(len(batchArgv), 0)
	e.setupDone()

	end := e.phase("repetitions")
	start := time.Now()
	var walls []float64
	perArgv := make([][]float64, len(batchArgv))
	for len(walls) < sc.batchMinReps || time.Since(start) < sc.batchMinDur {
		wall, out, r, err := e.batchRepetition()
		if err != nil {
			return err
		}
		rss = max(rss, r)
		walls = append(walls, wall.Seconds())
		for i, w := range out.walls {
			perArgv[i] = append(perArgv[i], 1000*w)
		}
		e.res.count(len(batchArgv), 0)
		if !out.equal(ref) {
			e.res.Failed++
			e.res.problem("repetition %d: autosens output differs from the first repetition's", len(walls))
		}
	}
	speed := end()
	t := summarize(append([]float64(nil), walls...), 100)
	e.res.set("batch_analyze_s", metric{Value: t.P50, N: t.N})
	e.res.set("op_p10_ms", scaled(quietList(perArgv), speed, t.N))
	e.setLayer("bench.op_p50_ms", 1000*t.P50)
	e.setLayer("bench.op_tail_ms", 1000*slices.Max(walls)) // too few repetitions for a percentile: the slowest

	// Serial repetitions: the estimator promises bit-identical results at
	// any worker count, and their wall time is the contrast to the parallel
	// repetitions.
	end = e.phase("serial")
	serialPerArgv := make([][]float64, len(batchArgv))
	for i := 0; i < sc.batchSerialReps; i++ {
		_, serial, r, err := e.batchRepetition("-workers", "1")
		if err != nil {
			return err
		}
		rss = max(rss, r)
		for i, w := range serial.walls {
			serialPerArgv[i] = append(serialPerArgv[i], 1000*w)
		}
		e.res.count(len(batchArgv), 0)
		if !serial.equal(ref) {
			e.res.Failed++
			e.res.problem("-workers 1 output differs from the default-workers output")
		}
	}
	e.res.set("alt_p10_ms", scaled(quietList(serialPerArgv), end(), sc.batchSerialReps))
	e.res.set("rss_peak_mb", metric{Value: rss})
	info, err := os.Stat(e.ds.path)
	if err != nil {
		return err
	}
	// For the batch CLI the bytes on disk are its input file.
	e.res.set("disk_bytes_per_rec", metric{Value: float64(info.Size()) / float64(len(e.ds.recs)), N: len(e.ds.recs)})
	return nil
}
