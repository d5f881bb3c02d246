// Package pipeline orchestrates end-to-end AutoSens analyses: it slices a
// telemetry stream the ways the paper's evaluation does (by action type,
// user segment, conditioning quartile, time-of-day period, month), runs the
// estimator on every slice — in parallel — and collects the named NLP
// curves.
package pipeline

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"autosens/internal/core"
	"autosens/internal/obs"
	"autosens/internal/parallel"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// Slice is a named subset of records to estimate a curve for, held as the
// estimator's columns: the successful records' times and latencies, stably
// sorted by time.
type Slice struct {
	Name  string
	Times []timeutil.Millis
	Lats  []float64
	// Rows counts the records the slice selected, failed ones included.
	Rows int
}

// SliceOf makes a slice of records with core.UsableColumns.
func SliceOf(name string, records []telemetry.Record) Slice {
	times, lats := core.UsableColumns(records)
	return Slice{Name: name, Times: times, Lats: lats, Rows: len(records)}
}

// Result is the outcome of estimating one slice.
type Result struct {
	Name  string
	Curve *core.Curve
	Err   error
}

// Request describes a batch of slice estimations.
type Request struct {
	// Options configures the estimator.
	Options core.Options
	// TimeNormalized selects the full method (core.ModeNormalized) over
	// the plain pooled estimate.
	TimeNormalized bool
	// Slices are the record subsets to analyze.
	Slices []Slice
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Trace, when non-nil, receives one child span per slice carrying the
	// worker id, the time the job waited in the queue, and the record
	// count, with the estimator's stage spans nested underneath. Nil (the
	// default) runs untraced.
	Trace *obs.Span
}

// Run estimates every slice. Results are returned in slice order; per-slice
// failures are reported in Result.Err rather than failing the batch.
//
// The worker budget is split across the two levels of parallelism: with W
// total workers and S slices running concurrently, each slice's estimator
// gets W/S internal workers (at least 1), so the batch never runs more
// than ~W estimator goroutines instead of W per slice. The core estimator
// produces bit-identical curves at any worker count, so budgeting changes
// scheduling only, never results.
func Run(req Request) ([]Result, error) {
	if len(req.Slices) == 0 {
		return nil, errors.New("pipeline: no slices")
	}
	pool := parallel.Workers(req.Workers, math.MaxInt)
	workers := min(pool, len(req.Slices))
	budget := pool / workers
	if req.Options.Workers <= 0 || req.Options.Workers > budget {
		req.Options.Workers = budget
	}

	results := make([]Result, len(req.Slices))
	// enqueuedAt is written by the dispatcher just before sending index i
	// and read by the worker that receives i; the channel send orders the
	// two, so per-slice queue-wait needs no extra locking.
	enqueuedAt := make([]time.Time, len(req.Slices))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				s := req.Slices[i]
				sp := req.Trace.StartChild("slice:" + s.Name)
				sp.SetAttr("worker", worker)
				sp.SetAttr("queue_wait_ms", float64(time.Since(enqueuedAt[i]))/float64(time.Millisecond))
				sp.SetAttr("records", s.Rows)
				sp.SetAttr("estimator_workers", req.Options.Workers)
				results[i] = estimateOne(req, s, sp)
				sp.End()
			}
		}(w)
	}
	for i := range req.Slices {
		enqueuedAt[i] = time.Now()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, nil
}

func estimateOne(req Request, s Slice, sp *obs.Span) Result {
	res := Result{Name: s.Name}
	est, err := core.NewEstimator(req.Options)
	if err != nil {
		res.Err = err
		return res
	}
	est.SetTrace(sp)
	out, err := est.Finish(core.Request{Mode: core.ModeOf(req.TimeNormalized)}, &core.Summary{Columns: core.Columns{Times: s.Times, Lats: s.Lats}}, nil)
	if err != nil {
		res.Err = fmt.Errorf("pipeline: slice %q: %w", s.Name, err)
		return res
	}
	res.Curve = out.Curve
	return res
}
