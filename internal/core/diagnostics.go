package core

import (
	"errors"

	"autosens/internal/rng"
	"autosens/internal/stats"
	"autosens/internal/timeutil"
)

// Locality computes the MSD/MAD locality report of Figure 1 for the
// latency series of usable rows as time-sorted columns: the ratio for the
// series as observed, randomly shuffled, and sorted by latency.
func (e *Estimator) Locality(times []timeutil.Millis, lats []float64) (stats.LocalityReport, error) {
	if err := checkColumns(times, lats); err != nil {
		return stats.LocalityReport{}, err
	}
	if len(lats) < 2 {
		return stats.LocalityReport{}, errors.New("core: need at least 2 records for locality")
	}
	return stats.Locality(lats, rng.New(e.opts.Seed))
}

// TimeSeries is the per-window activity/latency series of Figure 2.
type TimeSeries struct {
	// WindowStart is the start time of each window.
	WindowStart []timeutil.Millis
	// MeanLatency is the mean latency of actions in the window (NaN-free:
	// windows with no actions are omitted entirely).
	MeanLatency []float64
	// Count is the number of actions in the window.
	Count []float64
}

// ActivityLatencySeries aggregates usable rows, as time-sorted columns,
// into fixed windows, returning the mean latency and the action count per
// non-empty window.
func ActivityLatencySeries(times []timeutil.Millis, lats []float64, window timeutil.Millis) (*TimeSeries, error) {
	if window <= 0 {
		return nil, errors.New("core: non-positive window")
	}
	if err := checkColumns(times, lats); err != nil {
		return nil, err
	}
	ts := &TimeSeries{}
	var sum float64
	for i, t := range times {
		n := len(ts.Count)
		if w := t / window * window; n == 0 || ts.WindowStart[n-1] != w {
			ts.WindowStart = append(ts.WindowStart, w)
			ts.MeanLatency = append(ts.MeanLatency, 0)
			ts.Count = append(ts.Count, 0)
			n, sum = n+1, 0
		}
		sum += lats[i]
		ts.Count[n-1]++
		ts.MeanLatency[n-1] = sum / ts.Count[n-1]
	}
	return ts, nil
}

// DensityLatencyCorrelation computes the second locality diagnostic of
// Section 2.1 over usable rows as time-sorted columns: the Pearson
// correlation between the temporal density of latency samples (per window)
// and the mean latency in the window. A negative value indicates that
// low-latency points cluster in time with high activity.
func DensityLatencyCorrelation(times []timeutil.Millis, lats []float64, window timeutil.Millis) (float64, error) {
	ts, err := ActivityLatencySeries(times, lats, window)
	if err != nil {
		return 0, err
	}
	return stats.Pearson(ts.MeanLatency, ts.Count)
}

// Normalized returns copies of the series' latency and count columns each
// divided by its maximum — the normalized axes the paper uses in Figure 2
// for confidentiality. Returned slices are safe to modify.
func (ts *TimeSeries) Normalized() (lat, cnt []float64) {
	lat = make([]float64, len(ts.MeanLatency))
	cnt = make([]float64, len(ts.Count))
	var maxL, maxC float64
	for i := range ts.MeanLatency {
		if ts.MeanLatency[i] > maxL {
			maxL = ts.MeanLatency[i]
		}
		if ts.Count[i] > maxC {
			maxC = ts.Count[i]
		}
	}
	for i := range ts.MeanLatency {
		if maxL > 0 {
			lat[i] = ts.MeanLatency[i] / maxL
		}
		if maxC > 0 {
			cnt[i] = ts.Count[i] / maxC
		}
	}
	return lat, cnt
}
