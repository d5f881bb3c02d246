package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"autosens/internal/core"
	"autosens/internal/obs"
	"autosens/internal/owasim"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// simRecords simulates a small shared workload once.
var simRecords []telemetry.Record

func records(t testing.TB) []telemetry.Record {
	t.Helper()
	if simRecords == nil {
		cfg := owasim.DefaultConfig(3*timeutil.MillisPerDay, 40, 40)
		cfg.Seed = 123
		res, err := owasim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		simRecords = telemetry.Successful(res.Records)
	}
	return simRecords
}

func testOptions() core.Options {
	o := core.DefaultOptions()
	o.MinSlotActions = 10
	return o
}

func TestRunEstimatesAllSlices(t *testing.T) {
	slices := NewPartition(records(t)).ByActionType()
	results, err := Run(Request{Options: testOptions(), Slices: slices})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != telemetry.NumActionTypes {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Name != slices[i].Name {
			t.Fatalf("result %d name %q, want %q (order must be preserved)", i, r.Name, slices[i].Name)
		}
		if r.Err != nil {
			t.Fatalf("slice %s: %v", r.Name, r.Err)
		}
		if r.Curve == nil || len(r.Curve.NLP) == 0 {
			t.Fatalf("slice %s: empty curve", r.Name)
		}
	}
}

func TestRunTimeNormalizedMode(t *testing.T) {
	slices := []Slice{SliceOf("all-selectmail", telemetry.ByAction(records(t), telemetry.SelectMail))}
	results, err := Run(Request{Options: testOptions(), TimeNormalized: true, Slices: slices})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
}

func TestRunNoSlices(t *testing.T) {
	if _, err := Run(Request{Options: testOptions()}); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestRunPerSliceErrors(t *testing.T) {
	slices := []Slice{
		SliceOf("good", telemetry.ByAction(records(t), telemetry.SelectMail)),
		SliceOf("empty", nil),
	}
	results, err := Run(Request{Options: testOptions(), Slices: slices})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("good slice failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("empty slice succeeded")
	}
	if !strings.Contains(results[1].Err.Error(), "empty") {
		t.Fatalf("error does not name the slice: %v", results[1].Err)
	}
}

func TestRunBadOptions(t *testing.T) {
	bad := testOptions()
	bad.BinWidthMS = 0
	results, err := Run(Request{Options: bad, Slices: []Slice{SliceOf("x", records(t))}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestRunWorkerLimit(t *testing.T) {
	slices := NewPartition(records(t)).ByActionType()
	results, err := Run(Request{Options: testOptions(), Slices: slices, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func TestByActionTypeCoversAll(t *testing.T) {
	slices := NewPartition(records(t)).ByActionType()
	total := 0
	for i, s := range slices {
		a := telemetry.ActionTypes()[i]
		if want := len(telemetry.ByAction(records(t), a)); s.Name != a.String() || s.Rows != want || len(s.Times) != want {
			t.Fatalf("slice %s holds %d rows (%d columns), want %s with %d", s.Name, s.Rows, len(s.Times), a, want)
		}
		total += s.Rows
	}
	if total != len(records(t)) {
		t.Fatalf("slices cover %d of %d records", total, len(records(t)))
	}
}

func TestBySegmentNames(t *testing.T) {
	slices := NewPartition(records(t)).BySegment(telemetry.SelectMail)
	if len(slices) != telemetry.NumUserTypes {
		t.Fatalf("%d slices", len(slices))
	}
	if slices[0].Name != "SelectMail/business" || slices[1].Name != "SelectMail/consumer" {
		t.Fatalf("names: %s, %s", slices[0].Name, slices[1].Name)
	}
	for _, s := range slices {
		if len(s.Times) == 0 {
			t.Fatalf("slice %s empty", s.Name)
		}
	}
}

func TestByQuartileSlices(t *testing.T) {
	slices, err := NewPartition(records(t)).ByQuartile(telemetry.SelectMail)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != telemetry.NumQuartiles {
		t.Fatalf("%d slices", len(slices))
	}
	for _, s := range slices {
		if len(s.Times) == 0 {
			t.Fatalf("slice %s empty", s.Name)
		}
	}
}

func TestByPeriodSlices(t *testing.T) {
	slices := NewPartition(records(t)).ByPeriod(telemetry.SelectMail)
	if len(slices) != timeutil.NumPeriods {
		t.Fatalf("%d slices", len(slices))
	}
	total := 0
	for _, s := range slices {
		total += len(s.Times)
	}
	if want := len(telemetry.ByAction(records(t), telemetry.SelectMail)); total != want {
		t.Fatalf("period slices hold %d rows, want the %d SelectMail records", total, want)
	}
}

func TestByMonthSingleMonth(t *testing.T) {
	// 3-day window: all records fall in "Jan".
	slices := NewPartition(records(t)).ByMonth(telemetry.SelectMail)
	if len(slices) != 1 {
		t.Fatalf("%d month slices", len(slices))
	}
	if slices[0].Name != "SelectMail/Jan" {
		t.Fatalf("name %s", slices[0].Name)
	}
}

// TestRunDeterministicAcrossWorkers pins that the two-level worker budget
// is a scheduling decision only: every (pipeline workers × estimator
// workers) combination must produce byte-identical curves in slice order.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	slices := NewPartition(records(t)).ByActionType()
	curveBytes := func(workers, optWorkers int) [][]byte {
		t.Helper()
		opts := testOptions()
		opts.Workers = optWorkers
		results, err := Run(Request{Options: opts, TimeNormalized: true, Slices: slices, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("slice %s: %v", r.Name, r.Err)
			}
			b, err := r.Curve.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	want := curveBytes(1, 1)
	for _, cfg := range [][2]int{{0, 0}, {2, 0}, {8, 0}, {3, 5}, {16, 1}} {
		got := curveBytes(cfg[0], cfg[1])
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("workers=%d options.workers=%d: slice %s differs from serial run",
					cfg[0], cfg[1], slices[i].Name)
			}
		}
	}
}

// TestRunWorkerBudget pins the two-level worker split through the slice
// spans' estimator_workers attribute: with S slices, a pool of W runs
// min(W,S) slices concurrently and hands each estimator W/min(W,S)
// workers — unless the caller pinned a smaller explicit count, which is
// respected.
func TestRunWorkerBudget(t *testing.T) {
	slices := NewPartition(records(t)).ByActionType()
	budgetOf := func(pool, optWorkers int) int {
		t.Helper()
		opts := testOptions()
		opts.Workers = optWorkers
		tr := obs.NewTracer("pipeline")
		if _, err := Run(Request{Options: opts, Slices: slices, Workers: pool, Trace: tr.Root()}); err != nil {
			t.Fatal(err)
		}
		root := tr.Finish()
		got := -1
		for _, sp := range root.Children() {
			v, ok := sp.Attr("estimator_workers")
			if !ok {
				t.Fatalf("span %s lacks estimator_workers attr", sp.Name())
			}
			if got == -1 {
				got = v.(int)
			} else if got != v.(int) {
				t.Fatalf("uneven budget: %d vs %d", got, v.(int))
			}
		}
		return got
	}
	// 4 action-type slices: pool 8 → 4 concurrent slices × 2 estimator
	// workers; pool 2 → 2 concurrent × 1; an explicit small count wins,
	// an oversized one is clamped.
	if len(slices) != telemetry.NumActionTypes {
		t.Fatalf("expected %d action slices, got %d", telemetry.NumActionTypes, len(slices))
	}
	for _, c := range []struct{ pool, opt, want int }{
		{8, 0, 2},
		{2, 0, 1},
		{8, 1, 1},
		{8, 99, 2},
	} {
		if got := budgetOf(c.pool, c.opt); got != c.want {
			t.Fatalf("pool=%d options.workers=%d: estimator workers %d, want %d",
				c.pool, c.opt, got, c.want)
		}
	}
}
