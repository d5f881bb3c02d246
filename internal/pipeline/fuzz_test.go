package pipeline

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"autosens/internal/cell"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// fuzzRecords turns fuzz bytes into records, six bytes each: time steps
// that go back as well as forward and tie, actions and user types with
// out-of-range values, few users and latencies (so medians and times
// tie), failed rows, and times that cross month boundaries.
func fuzzRecords(data []byte) []telemetry.Record {
	var recs []telemetry.Record
	t := 20 * timeutil.MillisPerDay
	for ; len(data) >= 6; data = data[6:] {
		t += timeutil.Millis(int8(data[0])) * timeutil.MillisPerHour / 4
		r := telemetry.Record{
			Time:      t,
			Action:    telemetry.ActionType(data[1] % 6),
			LatencyMS: float64(data[2] % 16 * 25),
			UserID:    uint64(data[3]%9) + 1,
			UserType:  telemetry.UserType(data[4] % 3),
			TZOffset:  timeutil.Millis(int(data[5]%27)-13) * timeutil.MillisPerHour,
			Failed:    data[5]&0x80 != 0,
		}
		switch r.Action {
		case 4:
			r.Action = 9
		case 5:
			r.Action = -1
		}
		if r.UserType == 2 {
			r.UserType = 7
		}
		recs = append(recs, r)
	}
	return recs
}

// requireFamiliesEqual compares every slice family two partitions serve
// for every action, including out-of-range ones.
func requireFamiliesEqual(t *testing.T, what string, got, want *Partition) {
	t.Helper()
	requireSlicesEqual(t, what+" action", got.ByActionType(), want.ByActionType())
	for _, a := range append(telemetry.ActionTypes(), 9, -1) {
		requireSlicesEqual(t, what+" segment", got.BySegment(a), want.BySegment(a))
		requireSlicesEqual(t, what+" period", got.ByPeriod(a), want.ByPeriod(a))
		requireSlicesEqual(t, what+" month", got.ByMonth(a), want.ByMonth(a))
		gq, gotErr := got.ByQuartile(a)
		wq, wantErr := want.ByQuartile(a)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s quartile: error %v, want %v", what, gotErr, wantErr)
		}
		requireSlicesEqual(t, what+" quartile", gq, wq)
	}
}

// fuzzSet draws a cell set from seed: every record, a slice key's set, or
// a random mask over all 256 cell bytes, flagged ones included, with the
// failed records in or out.
func fuzzSet(seed uint64) cell.Set {
	src := rng.New(seed)
	switch seed % 4 {
	case 0:
		return cell.Set{}
	case 1:
		return cell.Keys()[src.Intn(cell.NumKeys)].Set()
	}
	mask := [4]uint64{src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()}
	return cell.SetOf(func(c cell.Cell) bool { return mask[c/64]>>(c%64)&1 != 0 }, seed&4 != 0)
}

// FuzzPartitionMatchesRecords: every family a partition serves equals the
// legacy record slicers' groups after core.UsableColumns (successful rows,
// stably time-sorted), every row holds its record's cell byte, a Load.Keep
// built from a slice key as the CLI builds it holds exactly the records the
// key's per-axis filter takes, and a partition loaded with keep and store
// sets drawn from the seeds — from records, or from TBIN bytes on the
// decode workers — counts and holds exactly the records the sets take,
// equal to NewPartition over those records.
func FuzzPartitionMatchesRecords(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add(bytes.Repeat([]byte{4, 0, 3, 1, 0, 0x05, 0xfc, 1, 9, 2, 1, 0x8e}, 20), uint64(1), uint64(6))
	// A month holding only failed rows between two that hold successful
	// ones, and users only in other actions.
	var months []byte
	for i := range 60 {
		failed := byte(0)
		if i >= 20 && i < 40 {
			failed = 0x80
		}
		months = append(months, 127, byte(i%2*2), byte(i), byte(i), byte(i%2), failed|byte(i%27))
	}
	f.Add(months, uint64(2), uint64(5))
	f.Add(months, uint64(7), uint64(3))
	// One record, under a random keep mask whose bytes past the stored
	// cells differ from the stored cells' bytes.
	f.Add([]byte("X200000"), uint64(2), uint64(48))
	f.Fuzz(func(t *testing.T, data []byte, keepSeed, storeSeed uint64) {
		recs := fuzzRecords(data)
		p := NewPartition(recs)
		requireSlicesEqual(t, "action", p.ByActionType(), legacyByActionType(recs))
		for _, a := range append(telemetry.ActionTypes(), 9, -1) {
			requireSlicesEqual(t, "segment", p.BySegment(a), legacyBySegment(recs, a))
			requireSlicesEqual(t, "period", p.ByPeriod(a), legacyByPeriod(recs, a))
			requireSlicesEqual(t, "month", p.ByMonth(a), legacyByMonth(recs, a))
			got, gotErr := p.ByQuartile(a)
			want, wantErr := legacyByQuartile(recs, a)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("quartile: error %v, want %v", gotErr, wantErr)
			}
			requireSlicesEqual(t, "quartile", got, want)
		}

		// An input-order partition holds the successful rows in input
		// order, then the failed ones; each row's byte is its record's
		// cell, the stored cell for every record cell.Of accepts.
		flat, _ := Load{InputOrder: true}.Records(recs)
		var cells []cell.Cell
		for _, failed := range []bool{false, true} {
			for _, r := range recs {
				if r.Failed == failed {
					c, ok := cell.Of(r)
					if ok && c >= cell.NumCells {
						t.Fatalf("cell.Of accepted %+v with cell %#x", r, c)
					}
					cells = append(cells, c)
				}
			}
		}
		if !slices.Equal(flat.class, cells) {
			t.Fatalf("row cells %v, want %v", flat.class, cells)
		}
		for _, key := range cell.Keys() {
			in := func(r telemetry.Record) bool {
				return !r.Failed && (key.Action < 0 || r.Action == key.Action) &&
					(key.UserType < 0 || r.UserType == key.UserType) &&
					(key.Period < 0 || timeutil.PeriodOf(r.Time, r.TZOffset) == key.Period)
			}
			got, seen := Load{Keep: key.Set(), InputOrder: true}.Records(recs)
			held := telemetry.Filter(recs, in)
			times, lats := got.Columns()
			if seen.Kept != len(held) {
				t.Fatalf("%v: kept %d records, want %d", key, seen.Kept, len(held))
			}
			requireSlicesEqual(t, key.String(),
				[]Slice{{Name: "slice", Times: times, Lats: lats, Rows: got.Len()}}, []Slice{SliceOf("slice", held)})
		}

		// Drawn sets, over records with out-of-range cells and failed ones.
		keep, store := fuzzSet(keepSeed), fuzzSet(storeSeed)
		takes := func(recs []telemetry.Record) (want Loaded, held []telemetry.Record) {
			for _, r := range recs {
				c, _ := cell.Of(r)
				want.Records++
				if !r.Failed {
					want.Successful++
				}
				if keep.Has(c, r.Failed) {
					want.Kept++
					if store.Has(c, r.Failed) {
						held = append(held, r)
					}
				}
			}
			return want, held
		}
		want, held := takes(recs)
		got, seen := Load{Keep: keep, Store: store}.Records(recs)
		if seen != want {
			t.Fatalf("records: loaded %+v, want %+v", seen, want)
		}
		requireFamiliesEqual(t, "filtered records", got, NewPartition(held))

		// TBIN carries valid records only.
		valid := telemetry.Filter(recs, func(r telemetry.Record) bool { return r.Validate() == nil })
		var buf bytes.Buffer
		w := telemetry.NewWriter(&buf, telemetry.TBIN)
		if err := w.WriteAll(valid); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want, held = takes(valid)
		for _, workers := range []int{1, 4} {
			got, seen, err := Load{Workers: workers}.TBIN(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if seen.Records != len(valid) || seen.Kept != len(valid) || got.Len() != len(valid) {
				t.Fatalf("workers=%d: loaded %+v into %d rows, want %d records", workers, seen, got.Len(), len(valid))
			}
			requireFamiliesEqual(t, "tbin", got, NewPartition(valid))

			got, seen, err = Load{Keep: keep, Store: store, Workers: workers}.TBIN(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if seen != want {
				t.Fatalf("workers=%d: TBIN loaded %+v, want %+v", workers, seen, want)
			}
			requireFamiliesEqual(t, "filtered tbin", got, NewPartition(held))

			flat, _, err := Load{InputOrder: true, Workers: workers}.TBIN(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			times, lats := flat.Columns()
			requireSlicesEqual(t, "input-order columns",
				[]Slice{{Name: "all", Times: times, Lats: lats, Rows: flat.Len()}}, []Slice{SliceOf("all", valid)})
		}
	})
}
