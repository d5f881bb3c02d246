//go:build !race

package collector

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"autosens/internal/telemetry"
)

// TestTBINBeaconDecodeAllocsPinned pins a 500-record beacon decode through
// the pooled TBIN reader: the reader's input buffer and block payload are
// reused, so a decode allocates only a small fixed count and no codec
// buffer. Excluded under -race, which changes allocation behavior.
func TestTBINBeaconDecodeAllocsPinned(t *testing.T) {
	srv, _, _ := newTestServer(t)
	body := tbinBody(t, testRecords(500))
	dst := make([]telemetry.Record, 0, 512)
	in := bytes.NewReader(body)
	decode := func() {
		in.Reset(body)
		batch, status, _, msg := srv.readBatchTBIN(in, dst[:0])
		if status != 0 || len(batch) != 500 {
			t.Fatalf("decoded %d records, status %d %s", len(batch), status, msg)
		}
	}
	decode() // fill the pool
	allocs, perDecode := steadyAllocs(decode)
	if allocs > 2 || perDecode > 1<<10 {
		t.Fatalf("500-record TBIN beacon decode allocates %.0f times, %d bytes; want at most 2 and 1 KiB", allocs, perDecode)
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
