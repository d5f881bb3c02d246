package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"autosens/internal/owasim"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// batchRecords is the beacon batch size every server workload ships.
const batchRecords = 500

// dataset is D(seed): one owasim run, time-ordered, with the temporal
// locality the estimator (and therefore the oracle check) depends on.
// The systems under test only ever see it as encoded inputs — a TBIN file
// for autosens, TBIN beacon bodies for sensd — never the seed.
type dataset struct {
	recs    []telemetry.Record
	horizon timeutil.Millis // whole days covering recs; the stream's repeat period
	path    string          // TBIN file holding recs, in order
}

// datasetSpec sizes a dataset. A non-zero records cuts the simulation
// off after exactly that many records, so every seed yields the same
// amount of work and a run-to-run difference is never the seed's busier
// users.
type datasetSpec struct {
	days, business, consumer int
	records                  int
}

// errEnough stops the simulator once the record cap is reached.
var errEnough = errors.New("enough records")

// generate runs the simulator for the spec and seed.
func generate(spec datasetSpec, seed uint64) ([]telemetry.Record, error) {
	cfg := owasim.DefaultConfig(timeutil.Millis(spec.days)*timeutil.MillisPerDay, spec.business, spec.consumer)
	cfg.Seed = seed
	var recs []telemetry.Record
	err := owasim.RunTo(cfg, func(r telemetry.Record) error {
		recs = append(recs, r)
		if len(recs) == spec.records {
			return errEnough
		}
		return nil
	}, nil)
	if err != nil && !errors.Is(err, errEnough) {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	if len(recs) < spec.records {
		return nil, fmt.Errorf("generate dataset: %d simulated days gave %d records, fewer than the %d asked for", spec.days, len(recs), spec.records)
	}
	return recs, nil
}

// encodeTBIN renders records as one TBIN stream — the dataset file and
// every beacon body use it, so equal records give equal bytes.
func encodeTBIN(recs []telemetry.Record) ([]byte, error) {
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf, telemetry.TBIN)
	if err := w.WriteAll(recs); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// datasets memoises D per (spec, seed) for the life of the process: one
// `go run ./bench` generates it once for all four workloads. It is not
// kept across processes — a run that found last run's file would report
// a shorter setup_s than one that did not.
var datasets = map[string]*dataset{}

// loadDataset returns D(seed) for the spec and writes its TBIN file
// under dir.
func loadDataset(dir string, spec datasetSpec, seed uint64) (*dataset, error) {
	name := fmt.Sprintf("D-%dd-%db-%dc-%dr-seed%d.tbin", spec.days, spec.business, spec.consumer, spec.records, seed)
	if d, ok := datasets[name]; ok {
		return d, nil
	}
	recs, err := generate(spec, seed)
	if err != nil {
		return nil, err
	}
	body, err := encodeTBIN(recs)
	if err != nil {
		return nil, fmt.Errorf("encode dataset: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return nil, err
	}
	// Whole days, so a repetition of D keeps every record's local hour.
	days := recs[len(recs)-1].Time/timeutil.MillisPerDay + 1
	d := &dataset{recs: recs, horizon: days * timeutil.MillisPerDay, path: path}
	datasets[name] = d
	return d, nil
}

// stream is the endless beacon stream cut from a dataset: batch i holds
// records [i*batchRecords, (i+1)*batchRecords) of D repeated end to end,
// each repetition shifted forward by the horizon so the data clock keeps
// advancing however many batches a phase needs.
type stream struct {
	d *dataset
}

// timeAt is the data time of record j of the advancing stream.
func (s stream) timeAt(j int) timeutil.Millis {
	n := len(s.d.recs)
	return s.d.recs[j%n].Time + timeutil.Millis(j/n)*s.d.horizon
}

// batch materialises batch i of the advancing stream.
func (s stream) batch(i int) []telemetry.Record {
	out := make([]telemetry.Record, batchRecords)
	for k := range out {
		j := i*batchRecords + k
		out[k] = s.d.recs[j%len(s.d.recs)]
		out[k].Time = s.timeAt(j)
	}
	return out
}

// lastTime is the newest record time in advancing batches [0, n).
func (s stream) lastTime(n int) timeutil.Millis {
	if n == 0 {
		return 0
	}
	return s.timeAt(n*batchRecords - 1)
}

// backfilled returns batch i with every time moved back a whole number of
// days, so it lands at or before loadedMax — inside the range the node
// already holds, which is the arrival order the old soak generated (its
// observation window never moves). Whole days keep each record's local
// hour, hence its period slice.
func (s stream) backfilled(i int, shift timeutil.Millis) []telemetry.Record {
	b := s.batch(i)
	for k := range b {
		b[k].Time -= shift
	}
	return b
}

// backfillShift is the whole-day shift that puts advancing batches
// [from, to) at or before loadedMax.
func (s stream) backfillShift(from, to int, loadedMax timeutil.Millis) (timeutil.Millis, error) {
	over := s.lastTime(to) - loadedMax
	days := over/timeutil.MillisPerDay + 1
	shift := days * timeutil.MillisPerDay
	if first := s.batch(from)[0].Time; first-shift < 0 {
		return 0, fmt.Errorf("backfill: loaded range too short to hold batches %d..%d", from, to)
	}
	return shift, nil
}

// wireBatch is one pre-encoded beacon: the body that goes on the wire,
// plus the stream coordinates the oracle needs to rebuild exactly the
// records it carried (holding the records themselves would cost 4x the
// encoded bytes on a multi-million-record phase).
type wireBatch struct {
	body  []byte
	index int
	shift timeutil.Millis
}

// records rebuilds the batch's records.
func (s stream) records(b wireBatch) []telemetry.Record { return s.backfilled(b.index, b.shift) }

// encodeBatches pre-encodes advancing batches [from, to); a non-zero shift
// makes them backfill batches. Done in set-up so the timed loop is POST →
// 202 only.
func (s stream) encodeBatches(from, to int, shift timeutil.Millis) ([]wireBatch, error) {
	out := make([]wireBatch, 0, to-from)
	for i := from; i < to; i++ {
		recs := s.backfilled(i, shift)
		body, err := encodeTBIN(recs)
		if err != nil {
			return nil, fmt.Errorf("encode batch %d: %w", i, err)
		}
		out = append(out, wireBatch{body: body, index: i, shift: shift})
	}
	return out, nil
}
