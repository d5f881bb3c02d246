//go:build !race

package pipeline

import (
	"testing"

	"autosens/internal/telemetry"
)

// TestLoadTBINAllocsPinned: building a partition straight from TBIN bytes
// allocates a fixed number of times plus a few per block (the block's
// decoder and its tz dictionary), never per record or per user. Excluded
// under -race because the race runtime changes allocation behaviour.
func TestLoadTBINAllocsPinned(t *testing.T) {
	for _, n := range []int{5000, 80_000} {
		_, data := tbinRecords(t, n)
		blocks := telemetry.SplitTBIN(data).Blocks()
		for _, workers := range []int{1, 2} {
			got := testing.AllocsPerRun(5, func() {
				p, _, err := Load{Workers: workers}.TBIN(data)
				if err != nil || p.Len() != n {
					t.Fatalf("%d rows, %v", p.Len(), err)
				}
			})
			if limit := 64 + 10*blocks; got > float64(limit) {
				t.Fatalf("records=%d (%d blocks) workers=%d: %.0f allocs, want at most %d", n, blocks, workers, got, limit)
			}
		}
	}
}
