package main

import "time"

// scale sizes every workload. The full scale is the one ISSUE 11 wrote
// down and `go run ./bench` uses; -seconds shrinks the phases to fit the
// acceptance driver's per-run budget (and the dataset with them, because
// generating 28 simulated days costs more than a short run measures);
// -smoke is the seconds-long shape a CI job can afford. The batch size,
// the query mix and the fsync policy never change with scale, and the full
// and timed scales share every rate.
type scale struct {
	name string
	data datasetSpec

	// withhold makes a tripped open-loop validity guard withhold the phase's
	// metrics and fail the run (full scale only; see openLoopValid).
	withhold bool

	// ingest-steady
	rateBatchesPerS int           // open-loop rate of phase "rate"
	rateDur         time.Duration // phase "rate"
	capacityDur     time.Duration // phase "capacity"
	capacityBatches int           // if set, phase "capacity" sends exactly this many batches

	// query-fresh
	preloadRecords  int
	cachedDur       time.Duration
	advancingDur    time.Duration
	backfillDur     time.Duration
	queryIngestPerS int // open-loop batches/s beside the queries

	// window-cold
	coldLoadRecords  int           // records loaded before the restart
	windowDur        time.Duration // the measured phase
	windowIngestPerS int           // open-loop batches/s beside the queries
	segBytes         int64         // -wal-segment-bytes
	cacheBytes       int64         // -cold-cache-bytes
	slideShort       time.Duration // sliding window that fits the block cache
	slideLong        time.Duration // sliding window that does not
	pinnedSpan       time.Duration
	pinnedAtDay      int // the pinned window ends at the start of this data day
	// byRecords, when set, sizes the three windows by what they hold instead
	// of by the clock: seeds differ in how busy their users are and in the
	// hour of day the loaded data ends at, so a 6 h window holds anything
	// from a night's records to a peak's, and the run-to-run spread over ten
	// seeds was seven times that over ten runs of one seed.
	byRecords *windowRecords

	// batch-analyze
	batchMinReps    int           // at least this many timed repetitions…
	batchMinDur     time.Duration // …and at least this long
	batchSerialReps int           // `-workers 1` repetitions after the timed ones
}

// windowRecords sizes window-cold's windows in records: each sliding
// window is the span holding that many of the newest acked records, the
// pinned window the span holding pinned records ending at stream position
// pinnedEnd.
type windowRecords struct {
	short, long, pinned, pinnedEnd int
}

// capacityBudgetRecsPerS bounds how many batches the capacity phase
// pre-encodes: the phase ends early (and says so) if the node outruns it.
const capacityBudgetRecsPerS = 2_000_000

// fullScale is the issue's specification.
func fullScale() scale {
	return scale{
		name:             "full",
		withhold:         true,
		data:             datasetSpec{days: 28, business: 200, consumer: 200},
		rateBatchesPerS:  200,
		rateDur:          20 * time.Second,
		capacityDur:      10 * time.Second,
		preloadRecords:   1_000_000,
		cachedDur:        5 * time.Second,
		advancingDur:     20 * time.Second,
		backfillDur:      10 * time.Second,
		queryIngestPerS:  20,
		windowIngestPerS: 10,
		coldLoadRecords:  2_000_000,
		windowDur:        30 * time.Second,
		segBytes:         4 << 20,
		cacheBytes:       8 << 20,
		slideShort:       6 * time.Hour,
		slideLong:        168 * time.Hour,
		pinnedSpan:       24 * time.Hour,
		pinnedAtDay:      14,
		batchMinReps:     10,
		batchMinDur:      30 * time.Second,
		batchSerialReps:  1,
	}
}

// timedScale measures each workload for the given number of seconds on a
// 4-day dataset: the same shapes as the full scale, an order of magnitude
// less data, so one run with its set-up and oracle check ends in about
// half a minute.
func timedScale(seconds int) scale {
	d := time.Duration(seconds) * time.Second
	// A closed loop moves over a million records a second, all of which the
	// oracle then has to estimate over: three seconds of it are plenty.
	capacity := min(d/3, 3*time.Second)
	return scale{
		name:             "timed",
		data:             datasetSpec{days: 6, business: 200, consumer: 200, records: 320_000},
		rateBatchesPerS:  200,
		rateDur:          d - capacity,
		capacityDur:      capacity,
		capacityBatches:  int(capacity.Seconds() * 2000),
		preloadRecords:   250_000,
		cachedDur:        d / 7,
		advancingDur:     d * 4 / 7,
		backfillDur:      d * 2 / 7,
		queryIngestPerS:  20,
		windowIngestPerS: 10,
		coldLoadRecords:  300_000,
		windowDur:        d,
		segBytes:         1 << 20,
		cacheBytes:       2 << 20,
		byRecords:        &windowRecords{short: 15_000, long: 150_000, pinned: 50_000, pinnedEnd: 110_000},
		batchMinReps:     3,
		batchMinDur:      d * 4 / 10, // the serial repetitions take the rest
		batchSerialReps:  3,
	}
}

// smokeScale runs every workload in at most three seconds on a 2-day,
// 40-user dataset. Its numbers mean nothing; its oracle checks do.
func smokeScale() scale {
	return scale{
		name:             "smoke",
		data:             datasetSpec{days: 2, business: 20, consumer: 20},
		rateBatchesPerS:  20,
		rateDur:          2 * time.Second,
		capacityDur:      time.Second,
		preloadRecords:   8_000,
		cachedDur:        500 * time.Millisecond,
		advancingDur:     1500 * time.Millisecond,
		backfillDur:      time.Second,
		queryIngestPerS:  100, // fast enough that queries stay dirty (the hit-ratio guard)
		windowIngestPerS: 50,
		coldLoadRecords:  12_000,
		windowDur:        3 * time.Second,
		segBytes:         32 << 10,
		cacheBytes:       64 << 10,
		slideShort:       6 * time.Hour,
		slideLong:        24 * time.Hour,
		pinnedSpan:       12 * time.Hour,
		pinnedAtDay:      1,
		batchMinReps:     2,
		batchMinDur:      time.Second,
		batchSerialReps:  1,
	}
}
