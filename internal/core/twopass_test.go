package core

import (
	"bytes"
	"errors"
	"testing"

	"autosens/internal/obs"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// passOver replays records' usable rows, in order, on every pass.
func passOver(records []telemetry.Record) func(func(timeutil.Millis, float64) error) error {
	return func(fn func(timeutil.Millis, float64) error) error {
		for _, r := range records {
			if r.Failed {
				continue
			}
			if err := fn(r.Time, r.LatencyMS); err != nil {
				return err
			}
		}
		return nil
	}
}

// requireTwoPassMatches requires the two-pass estimate over records to
// equal EstimateTimeNormalized over them — curve bytes or refusal message —
// serially and on two and eight workers.
func requireTwoPassMatches(t *testing.T, records []telemetry.Record, mutate func(*Options)) {
	t.Helper()
	for _, workers := range []int{1, 2, 8} {
		e := testEstimator(t, func(o *Options) {
			if mutate != nil {
				mutate(o)
			}
			o.Workers = workers
		})
		want, wantErr := e.EstimateTimeNormalized(records)
		got, gotErr := e.EstimateTimeNormalizedTwoPass(passOver(records))
		if (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && (gotErr.Error() != wantErr.Error() ||
				errors.Is(gotErr, ErrUnderIdentified) != errors.Is(wantErr, ErrUnderIdentified))) {
			t.Fatalf("workers %d: two-pass error %v, in-memory error %v", workers, gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(curveBytes(t, got), curveBytes(t, want)) {
			t.Fatalf("workers %d: two-pass curve differs from the in-memory curve", workers)
		}
	}
}

// tieHeavy rounds record times down to whole seconds, so slots are full of
// equal-timestamp runs, and then deals each hour's records out of time
// order: a fixed shuffle within every slot.
func tieHeavy(records []telemetry.Record) []telemetry.Record {
	out := append([]telemetry.Record(nil), records...)
	for i := range out {
		out[i].Time -= out[i].Time % 1000
	}
	src := rng.New(5)
	for i := 0; i < len(out); {
		j := i
		for j < len(out) && out[j].Time/timeutil.MillisPerHour == out[i].Time/timeutil.MillisPerHour {
			j++
		}
		for k := j - 1; k > i; k-- {
			m := i + src.Intn(k-i+1)
			out[k], out[m] = out[m], out[k]
		}
		i = j
	}
	return out
}

func reversed(records []telemetry.Record) []telemetry.Record {
	out := make([]telemetry.Record, len(records))
	for i, r := range records {
		out[len(records)-1-i] = r
	}
	return out
}

// TestStreamingMatchesBatchEstimate pins the -stream estimate's contract:
// byte-identical to the in-memory time-normalized estimate, refusals
// included, on time-ordered input, with thin slots dropped, with
// equal-timestamp ties fed out of time order within each slot, and when
// every slot is too thin.
func TestStreamingMatchesBatchEstimate(t *testing.T) {
	records := confoundedRecords(41)
	for _, tc := range []struct {
		name    string
		records []telemetry.Record
		mutate  func(*Options)
	}{
		{"chronological", records, nil},
		// Night hours hold ~150 records, day hours ~1200.
		{"thin_slots_dropped", records, func(o *Options) { o.MinSlotActions = 500 }},
		{"ties_out_of_order", tieHeavy(records), nil},
		{"every_slot_thin", records, func(o *Options) { o.MinSlotActions = 1 << 20 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireTwoPassMatches(t, tc.records, tc.mutate)
		})
	}
	e := testEstimator(t, func(o *Options) { o.MinSlotActions = 1 << 20 })
	if _, err := e.EstimateTimeNormalizedTwoPass(passOver(records)); !errors.Is(err, ErrUnderIdentified) {
		t.Fatalf("every slot thin: %v, want ErrUnderIdentified", err)
	}
}

// TestStreamingIgnoresFailedRecords: failed records reach neither pass's
// counts nor any slot, exactly as the in-memory estimate skips them.
func TestStreamingIgnoresFailedRecords(t *testing.T) {
	records := append([]telemetry.Record(nil), confoundedRecords(44)...)
	usable := 0
	for i := range records {
		records[i].Failed = i%7 == 3
		if !records[i].Failed {
			usable++
		}
	}
	requireTwoPassMatches(t, records, nil)
	c, err := testEstimator(t, nil).EstimateTimeNormalizedTwoPass(passOver(records))
	if err != nil {
		t.Fatal(err)
	}
	if c.BiasedN != usable {
		t.Fatalf("BiasedN = %d, want %d usable records", c.BiasedN, usable)
	}
}

// TestStreamingOrderIndependent: input in reverse time order — every slot's
// buffer arrives backwards and slots complete last-first — still yields the
// in-memory estimate of the same input.
func TestStreamingOrderIndependent(t *testing.T) {
	records := confoundedRecords(43)
	requireTwoPassMatches(t, reversed(records), nil)
	requireTwoPassMatches(t, reversed(tieHeavy(records)), nil)
}

// TestStreamingValidation pins the refusals: no usable records, a pass
// that fails, and a second pass that does not replay the first — a record
// dropped, added, moved or replaced — is an error, never a curve.
func TestStreamingValidation(t *testing.T) {
	e := testEstimator(t, nil)
	_, want := e.EstimateTimeNormalized(nil)
	if _, err := e.EstimateTimeNormalizedTwoPass(passOver(nil)); err == nil || err.Error() != want.Error() {
		t.Fatalf("empty input: %v, want %v", err, want)
	}
	failed := mkRec(10, 100)
	failed.Failed = true
	if _, err := e.EstimateTimeNormalizedTwoPass(passOver([]telemetry.Record{failed})); err == nil || err.Error() != want.Error() {
		t.Fatalf("only failed records: %v, want %v", err, want)
	}
	readErr := errors.New("read failed")
	if _, err := e.EstimateTimeNormalizedTwoPass(func(func(timeutil.Millis, float64) error) error { return readErr }); !errors.Is(err, readErr) {
		t.Fatalf("failing pass: %v", err)
	}

	records := confoundedRecords(45)
	last := len(records) - 1
	extra := mkRec(records[last].Time, 300)
	moved := append([]telemetry.Record(nil), records...)
	moved[0].Time += timeutil.MillisPerHour // leaves the first slot for the second
	for name, second := range map[string][]telemetry.Record{
		"dropped":  records[:last],
		"added":    append(append([]telemetry.Record(nil), records...), extra),
		"moved":    moved,
		"replaced": append([]telemetry.Record{extra}, records[:last]...),
	} {
		calls := 0
		_, err := e.EstimateTimeNormalizedTwoPass(func(fn func(timeutil.Millis, float64) error) error {
			calls++
			if calls == 1 {
				return passOver(records)(fn)
			}
			return passOver(second)(fn)
		})
		if !errors.Is(err, errPassesDiffer) {
			t.Fatalf("%s: %v, want %v", name, err, errPassesDiffer)
		}
	}
}

// TestStreamingSlotAccounting pins the two-pass span: records and retained
// slots counted, and on time-ordered input one slot buffered at a time, so
// the most records ever buffered is the largest retained slot's count.
func TestStreamingSlotAccounting(t *testing.T) {
	records := confoundedRecords(46)
	const minSlot = 500
	counts := map[int]int{}
	for _, r := range records {
		counts[int(r.Time/timeutil.MillisPerHour)]++
	}
	retained, largest := 0, 0
	for _, c := range counts {
		if c >= minSlot {
			retained++
			largest = max(largest, c)
		}
	}

	e := testEstimator(t, func(o *Options) { o.MinSlotActions = minSlot })
	tr := obs.NewTracer("test")
	e.SetTrace(tr.Root())
	if _, err := e.EstimateTimeNormalizedTwoPass(passOver(records)); err != nil {
		t.Fatal(err)
	}
	sp := tr.Finish().Find("estimate_time_normalized_two_pass")
	if sp == nil {
		t.Fatal("no estimate_time_normalized_two_pass span")
	}
	for attr, want := range map[string]int{"records": len(records), "slots": retained, "max_buffered": largest} {
		if v, ok := sp.Attr(attr); !ok || v.(int) != want {
			t.Fatalf("%s attr = %v, want %d", attr, v, want)
		}
	}
	for _, stage := range []string{"count_slots", "fill_slots", "alpha_reference", "average_curves"} {
		if sp.Find(stage) == nil {
			t.Fatalf("stage span %q missing", stage)
		}
	}
	if retained == len(counts) {
		t.Fatalf("no slot under %d records: the thin-slot case is vacuous", minSlot)
	}
}
