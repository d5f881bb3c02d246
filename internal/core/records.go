package core

import (
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// The record forms: Estimate, EstimateTimeNormalized and EstimateCI are
// UsableColumns plus Finish. This is the one file of the package that reads
// telemetry.Record; every other entry point takes columns.

// Estimate is the plain estimate (ModePlain) over records' usable rows.
func (e *Estimator) Estimate(records []telemetry.Record) (*Curve, error) {
	return pointOf(e.finishRecords(Request{Mode: ModePlain}, records))
}

// EstimateTimeNormalized is the time-normalized estimate (ModeNormalized)
// over records' usable rows: the full time-confounder mitigation of
// Section 2.4.1,
//
//  1. discretize time into SlotDuration slots and drop slots with fewer
//     than MinSlotActions actions;
//  2. per slot, build the biased counts c_T^L and the slot-local unbiased
//     distribution U_T (whose fractions are the time shares f_T^L);
//  3. for each of the ReferenceSlots busiest slots in turn, estimate each
//     slot's activity factor α_T as the mean over latency bins of
//     (c_T^L/f_T^L) / (c_R^L/f_R^L), divide the slot's counts by α_T, pool
//     all slots, and form the B/U ratio;
//  4. average the per-reference results, smooth, and normalize at the
//     reference latency.
func (e *Estimator) EstimateTimeNormalized(records []telemetry.Record) (*Curve, error) {
	return pointOf(e.finishRecords(Request{Mode: ModeNormalized}, records))
}

// EstimateCI is the estimate with bootstrap bounds over records' usable
// rows: time-normalized when opts.TimeNormalized, plain otherwise.
//
// The observation window is cut into BlockLen blocks and blocks are
// resampled with replacement. A plain replicate is the sum of its picked
// blocks' histogram pairs (see sumBlocks); a time-normalized replicate
// re-times the picked blocks' records and estimates the result from
// per-slot work shared by all replicates (see normBoot), bit-identical to
// rerunning the estimator over it. Replicates run on a pool of opts.Workers
// goroutines. Each replicate draws its block picks from an independent
// stream split off the bootstrap seed, so the result is bit-identical
// whatever the worker count.
func (e *Estimator) EstimateCI(records []telemetry.Record, opts CIOptions) (*CurveCI, error) {
	return e.finishRecords(Request{Mode: ModeOf(opts.TimeNormalized), CI: true, CIOptions: opts}, records)
}

// finishRecords is Finish over records' usable columns.
func (e *Estimator) finishRecords(req Request, records []telemetry.Record) (*CurveCI, error) {
	times, lats := UsableColumns(records)
	return e.Finish(req, &Summary{Columns: Columns{Times: times, Lats: lats}}, nil)
}

// UsableColumns returns the time and latency columns of records'
// successful rows, stably sorted by time: the columns the record forms
// finish over.
func UsableColumns(records []telemetry.Record) ([]timeutil.Millis, []float64) {
	n := 0
	for i := range records {
		if !records[i].Failed {
			n++
		}
	}
	times := make([]timeutil.Millis, 0, n)
	lats := make([]float64, 0, n)
	for i := range records {
		if !records[i].Failed {
			times = append(times, records[i].Time)
			lats = append(lats, records[i].LatencyMS)
		}
	}
	SortColumns(times, lats)
	return times, lats
}
