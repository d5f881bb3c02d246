package live

import (
	"bytes"
	"testing"

	"autosens/internal/cell"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// TestRecomputeAllocsBounded pins the pooled-scratch property of the
// delta-maintained recompute: a steady-state dirty query's allocations are
// a small constant (the Result, the curve, its JSON rendering) and do not
// scale with the store — decode scratch, merge buffers, sweep state and
// histograms are all retained behind the combo's single-flight slot.
func TestRecomputeAllocsBounded(t *testing.T) {
	stream := genStream(7, 30000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)
	tail := telemetry.Successful(genStream(8, 2000, 2*timeutil.MillisPerDay))
	if _, err := e.Query(AllSlices, ModePlain, false); err != nil {
		t.Fatal(err)
	}
	// Warm the fold path (first fold invalidates the sweep for lazy
	// rebuild; from the second on the state is delta-maintained).
	e.Append(tail[:1])
	if _, err := e.Query(AllSlices, ModePlain, false); err != nil {
		t.Fatal(err)
	}

	i := 1
	allocs := testing.AllocsPerRun(50, func() {
		e.Append(tail[i : i+1])
		i++
		res, err := e.Query(AllSlices, ModePlain, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("dirty query served from cache")
		}
	})
	// ~190 at 30k records in practice, dominated by curve finishing and
	// JSON; the bound is loose in absolute terms but far below anything
	// that rescans or re-sorts the 30k-record store.
	if allocs > 400 {
		t.Fatalf("dirty recompute allocates %.0f objects/op, want ≤ 400", allocs)
	}
}

// TestLiveStatsDeltaCounters pins the new operational counters: dirty
// recomputes and delta-folded records are visible without a registry.
func TestLiveStatsDeltaCounters(t *testing.T) {
	stream := genStream(9, 5000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)
	if _, err := e.Query(AllSlices, ModePlain, false); err != nil {
		t.Fatal(err)
	}
	st := e.LiveStats()
	if st.DirtyCombos == 0 {
		t.Fatal("DirtyCombos not counted")
	}
	if int(st.DeltaRecords) != e.Records() {
		t.Fatalf("DeltaRecords = %d, want %d (whole store on first touch)", st.DeltaRecords, e.Records())
	}
	before := st.DeltaRecords
	more := telemetry.Successful(genStream(10, 50, 2*timeutil.MillisPerDay))
	e.Append(more)
	if _, err := e.Query(AllSlices, ModePlain, false); err != nil {
		t.Fatal(err)
	}
	st = e.LiveStats()
	if got := st.DeltaRecords - before; got != uint64(len(more)) {
		t.Fatalf("dirty recompute folded %d records, want %d", got, len(more))
	}
}

// TestQueryManyPrewarm pins the parallel fan-out: QueryMany over every
// slice key leaves each non-empty combo cached, and the answers are the
// ones Query returns.
func TestQueryManyPrewarm(t *testing.T) {
	stream := genStream(11, 6000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)

	keys := cell.Keys()
	results, errs := e.QueryMany(keys, ModePlain, false)
	warmed := 0
	for i, key := range keys {
		switch errs[i] {
		case nil:
			warmed++
			again, err := e.Query(key, ModePlain, false)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Cached {
				t.Fatalf("slice %s not cached after prewarm", key)
			}
			if !bytes.Equal(results[i].Curve, again.Curve) {
				t.Fatalf("slice %s prewarm curve differs from query", key)
			}
		case ErrNoRecords:
		default:
			t.Fatalf("prewarm %s: %v", key, errs[i])
		}
	}
	if warmed == 0 {
		t.Fatal("prewarm warmed nothing")
	}
}
