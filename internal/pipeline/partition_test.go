package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"autosens/internal/cell"
	"autosens/internal/owasim"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// The legacy slicer implementations, frozen here as the behavioral
// reference for Partition: every group must have the same name, select the
// same number of records and carry exactly the columns the record entry
// points of core would estimate from (SliceOf: the successful records,
// stably sorted by time).

func legacyByActionType(records []telemetry.Record) []Slice {
	out := make([]Slice, 0, telemetry.NumActionTypes)
	for _, a := range telemetry.ActionTypes() {
		out = append(out, SliceOf(a.String(), telemetry.ByAction(records, a)))
	}
	return out
}

func legacyBySegment(records []telemetry.Record, action telemetry.ActionType) []Slice {
	records = telemetry.ByAction(records, action)
	out := make([]Slice, 0, telemetry.NumUserTypes)
	for _, u := range telemetry.UserTypes() {
		out = append(out, SliceOf(fmt.Sprintf("%s/%s", action, u), telemetry.ByUserType(records, u)))
	}
	return out
}

func legacyByQuartile(records []telemetry.Record, action telemetry.ActionType) ([]Slice, error) {
	assign, _, err := telemetry.AssignQuartiles(records)
	if err != nil {
		return nil, err
	}
	var groups [telemetry.NumQuartiles][]telemetry.Record
	for _, r := range telemetry.ByAction(records, action) {
		if q, ok := assign[r.UserID]; ok {
			groups[q] = append(groups[q], r)
		}
	}
	out := make([]Slice, 0, telemetry.NumQuartiles)
	for q, rs := range groups {
		out = append(out, SliceOf(fmt.Sprintf("%s/%s", action, telemetry.Quartile(q)), rs))
	}
	return out, nil
}

func legacyByPeriod(records []telemetry.Record, action telemetry.ActionType) []Slice {
	records = telemetry.ByAction(records, action)
	out := make([]Slice, 0, timeutil.NumPeriods)
	for p := 0; p < timeutil.NumPeriods; p++ {
		period := timeutil.Period(p)
		out = append(out, SliceOf(fmt.Sprintf("%s/%s", action, period), telemetry.ByPeriod(records, period)))
	}
	return out
}

func legacyByMonth(records []telemetry.Record, action telemetry.ActionType) []Slice {
	names := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	months := owasim.Months(telemetry.ByAction(records, action))
	out := make([]Slice, 0, len(months))
	for i, m := range months {
		name := fmt.Sprintf("month%d", i)
		if i < len(names) {
			name = names[i]
		}
		out = append(out, SliceOf(fmt.Sprintf("%s/%s", action, name), m))
	}
	return out
}

func requireSlicesEqual(t *testing.T, dim string, got, want []Slice) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slices, want %d", dim, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("%s: slice %d named %q, want %q", dim, i, got[i].Name, want[i].Name)
		}
		if got[i].Rows != want[i].Rows {
			t.Fatalf("%s: slice %q selects %d records, want %d", dim, want[i].Name, got[i].Rows, want[i].Rows)
		}
		if len(got[i].Times) != len(want[i].Times) || len(got[i].Lats) != len(want[i].Lats) {
			t.Fatalf("%s: slice %q has %d/%d column rows, want %d",
				dim, want[i].Name, len(got[i].Times), len(got[i].Lats), len(want[i].Times))
		}
		for j := range want[i].Times {
			if got[i].Times[j] != want[i].Times[j] ||
				math.Float64bits(got[i].Lats[j]) != math.Float64bits(want[i].Lats[j]) {
				t.Fatalf("%s: slice %q row %d is (%d, %v), want (%d, %v)", dim, want[i].Name, j,
					got[i].Times[j], got[i].Lats[j], want[i].Times[j], want[i].Lats[j])
			}
		}
	}
}

// multiMonthRecords simulates a workload spanning three calendar months.
var multiMonthRecords []telemetry.Record

func monthsRecords(t testing.TB) []telemetry.Record {
	t.Helper()
	if multiMonthRecords == nil {
		cfg := owasim.DefaultConfig(65*timeutil.MillisPerDay, 24, 24)
		cfg.Seed = 321
		res, err := owasim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		multiMonthRecords = res.Records // keep failed records: slicers must agree on them too
	}
	return multiMonthRecords
}

func TestPartitionMatchesLegacySlicers(t *testing.T) {
	recs := monthsRecords(t)
	p := NewPartition(recs)
	requireSlicesEqual(t, "action", p.ByActionType(), legacyByActionType(recs))
	for _, a := range telemetry.ActionTypes() {
		requireSlicesEqual(t, "segment", p.BySegment(a), legacyBySegment(recs, a))
		requireSlicesEqual(t, "period", p.ByPeriod(a), legacyByPeriod(recs, a))
		requireSlicesEqual(t, "month", p.ByMonth(a), legacyByMonth(recs, a))
		got, err := p.ByQuartile(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacyByQuartile(recs, a)
		if err != nil {
			t.Fatal(err)
		}
		requireSlicesEqual(t, "quartile", got, want)
	}
}

// TestPartitionMatchesLegacyOnAdversarialRecords covers shapes simulation
// never produces: invalid enum values, negative and far-future times, and
// users outside the quartile map.
func TestPartitionMatchesLegacyOnAdversarialRecords(t *testing.T) {
	recs := []telemetry.Record{
		{Time: 0, Action: telemetry.SelectMail, LatencyMS: 100, UserID: 1},
		{Time: -5 * timeutil.MillisPerDay, Action: telemetry.Search, LatencyMS: 200, UserID: 2, UserType: telemetry.Consumer},
		{Time: 400 * timeutil.MillisPerDay, Action: telemetry.SelectMail, LatencyMS: 300, UserID: 3},
		{Time: 40 * timeutil.MillisPerDay, Action: telemetry.ActionType(9), LatencyMS: 50, UserID: 4},
		{Time: 40 * timeutil.MillisPerDay, Action: telemetry.ActionType(-1), LatencyMS: 50, UserID: 1},
		{Time: 41 * timeutil.MillisPerDay, Action: telemetry.ComposeSend, LatencyMS: 75, UserID: 5, UserType: telemetry.UserType(7)},
		{Time: 12 * timeutil.MillisPerHour, Action: telemetry.SelectMail, LatencyMS: 120, UserID: 2, TZOffset: -7 * timeutil.MillisPerHour},
		{Time: 3 * timeutil.MillisPerDay, Action: telemetry.SwitchFolder, LatencyMS: 90, UserID: 6, Failed: true},
	}
	p := NewPartition(recs)
	requireSlicesEqual(t, "action", p.ByActionType(), legacyByActionType(recs))
	for _, a := range append(telemetry.ActionTypes(), telemetry.ActionType(9), telemetry.ActionType(-1)) {
		requireSlicesEqual(t, "segment", p.BySegment(a), legacyBySegment(recs, a))
		requireSlicesEqual(t, "period", p.ByPeriod(a), legacyByPeriod(recs, a))
		requireSlicesEqual(t, "month", p.ByMonth(a), legacyByMonth(recs, a))
		got, gotErr := p.ByQuartile(a)
		want, wantErr := legacyByQuartile(recs, a)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("quartile error mismatch: %v vs %v", gotErr, wantErr)
		}
		if gotErr == nil {
			requireSlicesEqual(t, "quartile", got, want)
		}
	}
}

// TestPartitionByMonthBreakSemantics pins the owasim.Months gap rule: a
// month with no records ends the sequence, so later months are dropped.
func TestPartitionByMonthBreakSemantics(t *testing.T) {
	mk := func(day int) telemetry.Record {
		return telemetry.Record{
			Time: timeutil.Millis(day) * timeutil.MillisPerDay, Action: telemetry.SelectMail,
			LatencyMS: 100, UserID: 1,
		}
	}
	// Records in January and March but none in February: only January
	// survives, named "Jan".
	recs := []telemetry.Record{mk(2), mk(20), mk(70)}
	got := NewPartition(recs).ByMonth(telemetry.SelectMail)
	requireSlicesEqual(t, "month", got, legacyByMonth(recs, telemetry.SelectMail))
	if len(got) != 1 || got[0].Name != "SelectMail/Jan" || got[0].Rows != 2 {
		t.Fatalf("gap semantics broken: %+v", got)
	}
	// Records only in March: the leading empty months are skipped and the
	// March group takes the first positional name.
	recs = []telemetry.Record{mk(65), mk(70)}
	got = NewPartition(recs).ByMonth(telemetry.SelectMail)
	requireSlicesEqual(t, "month", got, legacyByMonth(recs, telemetry.SelectMail))
	if len(got) != 1 || got[0].Name != "SelectMail/Jan" {
		t.Fatalf("leading-gap semantics broken: %+v", got)
	}
}

func TestPartitionQuartileTooFewUsers(t *testing.T) {
	recs := []telemetry.Record{
		{Action: telemetry.SelectMail, LatencyMS: 1, UserID: 1},
		{Action: telemetry.SelectMail, LatencyMS: 2, UserID: 2},
	}
	if _, err := NewPartition(recs).ByQuartile(telemetry.SelectMail); err == nil {
		t.Fatal("quartiles over 2 users succeeded")
	}
	if _, err := legacyByQuartile(recs, telemetry.SelectMail); err == nil {
		t.Fatal("legacy quartiles over 2 users succeeded")
	}
}

func TestPartitionQuartileCutsMatchLegacy(t *testing.T) {
	recs := monthsRecords(t)
	_, cuts, err := telemetry.AssignQuartiles(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPartition(recs).QuartileCuts()
	if err != nil {
		t.Fatal(err)
	}
	if got != cuts {
		t.Fatalf("cuts %v, want %v", got, cuts)
	}
}

// TestPartitionActionZeroCopy checks that action groups alias the backing
// columns instead of copying: failed rows sit after an action's successful
// ones, and the simulation's records are in time order.
func TestPartitionActionZeroCopy(t *testing.T) {
	recs := monthsRecords(t)
	p := NewPartition(recs)
	total := 0
	for _, a := range telemetry.ActionTypes() {
		g := p.Action(a)
		total += g.Rows
		if len(g.Times) == 0 {
			continue
		}
		if g.Rows == len(g.Times) {
			t.Fatalf("action %v: no failed rows, so the test proves less than it claims", a)
		}
		lo := p.bound[2*int(a)]
		if &g.Times[0] != &p.times[lo] || &g.Lats[0] != &p.lats[lo] {
			t.Fatalf("action %v group does not alias the backing columns", a)
		}
	}
	if total != len(recs) {
		t.Fatalf("groups cover %d of %d records", total, len(recs))
	}
}

// BenchmarkSlicersLegacy measures the paper's full set of slicings done
// the old way: every dimension re-filters the record set.
func BenchmarkSlicersLegacy(b *testing.B) {
	recs := monthsRecords(b)
	a := telemetry.SelectMail
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyByActionType(recs)
		legacyBySegment(recs, a)
		if _, err := legacyByQuartile(recs, a); err != nil {
			b.Fatal(err)
		}
		legacyByPeriod(recs, a)
		legacyByMonth(recs, a)
	}
}

// BenchmarkSlicersPartition measures the same slicings served from one
// single-pass Partition.
func BenchmarkSlicersPartition(b *testing.B) {
	recs := monthsRecords(b)
	a := telemetry.SelectMail
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPartition(recs)
		p.ByActionType()
		p.BySegment(a)
		if _, err := p.ByQuartile(a); err != nil {
			b.Fatal(err)
		}
		p.ByPeriod(a)
		p.ByMonth(a)
	}
}

// tbinRecords is a time-ordered synthetic log of n records from 400
// users, 1% failed, encoded as TBIN.
func tbinRecords(b testing.TB, n int) ([]telemetry.Record, []byte) {
	b.Helper()
	src := rng.New(7)
	recs := make([]telemetry.Record, n)
	t := timeutil.Millis(0)
	for i := range recs {
		t += timeutil.Millis(src.Intn(3000))
		user := uint64(1 + src.Intn(400))
		recs[i] = telemetry.Record{
			Time: t, Action: telemetry.ActionType(src.Intn(telemetry.NumActionTypes)),
			LatencyMS: src.LogNormal(6, 0.5), UserID: user, UserType: telemetry.UserType(user % 2),
			TZOffset: timeutil.Millis(user%24-12) * timeutil.MillisPerHour, Failed: src.Intn(100) == 0,
		}
	}
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf, telemetry.TBIN)
	if err := w.WriteAll(recs); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return recs, buf.Bytes()
}

// BenchmarkPartitionTBIN builds a partition of a 320 k-record TBIN file
// the two ways: reading records with the streaming reader and partitioning
// them, and straight from the bytes on the decode workers. The anonymized
// row loads the same records with their user IDs pseudonymized, as the
// paper's logs carry them: 64-bit hashes, whose varints take nine or ten
// bytes where the 400 plain IDs take one or two. The cli rows are the
// autosens CLI's loads: every successful row action-major (-by action;
// -by quartile holds the same rows in input order), every successful row
// counted and one action's held (-by usertype and -by period), and one
// slice's rows in input order (-action SelectMail -ci).
func BenchmarkPartitionTBIN(b *testing.B) {
	recs, data := tbinRecords(b, 320_000)
	anon := telemetry.NewAnonymizer([]byte("bench")).Records(slices.Clone(recs))
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf, telemetry.TBIN)
	if err := w.WriteAll(anon); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	anonData := buf.Bytes()
	b.Run("records", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := telemetry.NewReader(bytes.NewReader(data), telemetry.TBIN)
			got, err := r.ReadAll()
			r.Close()
			if err != nil {
				b.Fatal(err)
			}
			if p := NewPartition(got); p.Len() != len(recs) {
				b.Fatalf("%d rows, want %d", p.Len(), len(recs))
			}
		}
	})
	load := func(name string, data []byte, l Load) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := l.TBIN(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, workers := range []int{1, 2} {
		load(fmt.Sprintf("bytes/workers=%d", workers), data, Load{Workers: workers})
	}
	load("bytes/anonymized/workers=1", anonData, Load{Workers: 1})
	successful := cell.All.Set()
	mail := cell.Key{Action: telemetry.SelectMail, UserType: -1, Period: -1}.Set()
	for _, workers := range []int{1, 2} {
		load(fmt.Sprintf("cli/by-action/workers=%d", workers), data, Load{Keep: successful, Workers: workers})
		load(fmt.Sprintf("cli/by-usertype/workers=%d", workers), data, Load{Keep: successful, Store: mail, Workers: workers})
		load(fmt.Sprintf("cli/slice/workers=%d", workers), data, Load{Keep: mail, InputOrder: true, Workers: workers})
	}
}
