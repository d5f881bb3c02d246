//go:build !race

package wal

import (
	"math"
	"runtime"
	"testing"

	"autosens/internal/telemetry"
)

// TestAppendTBINAllocsPinned pins the steady-state cost of a 500-record TBIN
// append: the frame is encoded in place into the WAL's retained buffer by
// its retained encoder, so an append allocates at most a couple of small
// objects and never a codec buffer. Excluded under -race, which changes
// allocation behavior.
func TestAppendTBINAllocsPinned(t *testing.T) {
	batch := owasimBatch(t, 500)
	w, _, err := Open(Options{Dir: t.TempDir(), Format: telemetry.TBIN, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ { // grow the retained buffers
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs, perAppend := steadyAllocs(func() {
		if err := w.Append(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 || perAppend > 1<<10 {
		t.Fatalf("500-record TBIN append allocates %.0f times, %d bytes; want at most 2 and 1 KiB", allocs, perAppend)
	}
}

// steadyAllocs returns f's allocations and bytes allocated per call, the
// least of five measurements: the counters are process-wide, so a
// goroutine an earlier test left winding down can only add to them.
func steadyAllocs(f func()) (allocs float64, bytes uint64) {
	const runs = 50
	allocs, bytes = math.Inf(1), math.MaxUint64
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := testing.AllocsPerRun(runs, f)
		runtime.ReadMemStats(&after)
		allocs = min(allocs, a)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/(runs+1)) // AllocsPerRun adds a warm-up run
	}
	return allocs, bytes
}
