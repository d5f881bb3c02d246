package core

import (
	"errors"

	"autosens/internal/rng"
	"autosens/internal/stats"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// Locality computes the MSD/MAD locality report of Figure 1 for the
// latency series of the given records (ordered by time): the ratio for the
// series as observed, randomly shuffled, and sorted by latency.
func (e *Estimator) Locality(records []telemetry.Record) (stats.LocalityReport, error) {
	records = telemetry.Successful(records)
	if len(records) < 2 {
		return stats.LocalityReport{}, errors.New("core: need at least 2 records for locality")
	}
	telemetry.SortByTime(records)
	return stats.Locality(telemetry.Latencies(records), rng.New(e.opts.Seed))
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

// ActivityLatencySeries aggregates records into fixed windows, returning
// the mean latency and the action count per non-empty window.
func ActivityLatencySeries(records []telemetry.Record, window timeutil.Millis) (*TimeSeries, error) {
	if window <= 0 {
		return nil, errors.New("core: non-positive window")
	}
	records = telemetry.Successful(records)
	if len(records) == 0 {
		return nil, errors.New("core: no usable records")
	}
	sums := make(map[int64]float64)
	counts := make(map[int64]float64)
	var minW, maxW int64
	first := true
	for _, r := range records {
		w := int64(r.Time / window)
		sums[w] += r.LatencyMS
		counts[w]++
		if first || w < minW {
			minW = w
		}
		if first || w > maxW {
			maxW = w
		}
		first = false
	}
	ts := &TimeSeries{}
	for w := minW; w <= maxW; w++ {
		c, ok := counts[w]
		if !ok {
			continue
		}
		ts.WindowStart = append(ts.WindowStart, timeutil.Millis(w)*window)
		ts.MeanLatency = append(ts.MeanLatency, sums[w]/c)
		ts.Count = append(ts.Count, c)
	}
	return ts, nil
}

// DensityLatencyCorrelation computes the second locality diagnostic of
// Section 2.1: the Pearson correlation between the temporal density of
// latency samples (per window) and the mean latency in the window. A
// negative value indicates that low-latency points cluster in time with
// high activity.
func DensityLatencyCorrelation(records []telemetry.Record, window timeutil.Millis) (float64, error) {
	ts, err := ActivityLatencySeries(records, window)
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
