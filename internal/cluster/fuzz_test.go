package cluster

import (
	"math"
	"testing"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/histogram"
	"autosens/internal/timeutil"
)

// FuzzPartialMergeNoCrash feeds the coordinator's merge path two
// adversarial wire partials: whatever DecodePartial accepts must merge
// without panicking, produce a (time, seq)-sorted result of the combined
// length, and either sum compatible histograms or return an error for
// incompatible ones — never silently mix binnings.
func FuzzPartialMergeNoCrash(f *testing.F) {
	f.Add([]byte{}, []byte{})
	h := histogram.MustNew(0, 3000, 10)
	h.Add(150)
	f.Add(
		api.AppendPartial(nil, &api.Partial{Version: 1}),
		api.AppendPartial(nil, &api.Partial{
			Version: 2,
			Times:   []timeutil.Millis{0, 0, 5},
			Lats:    []float64{1, 2, math.Inf(1)},
			Seqs:    []uint64{3, 9, 1},
			Hist:    h,
		}),
	)
	h2 := histogram.MustNew(0, 100, 25) // incompatible binning
	h2.Add(10)
	f.Add(
		api.AppendPartial(nil, &api.Partial{
			Version: 7,
			Times:   []timeutil.Millis{-3, -3},
			Lats:    []float64{0, 1e308},
			Seqs:    []uint64{0, 1},
			Hist:    h,
		}),
		api.AppendPartial(nil, &api.Partial{Version: 8, Hist: h2}),
	)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pa, errA := api.DecodePartial(a)
		pb, errB := api.DecodePartial(b)
		if errA != nil || errB != nil {
			return
		}
		sa := &core.Summary{Columns: partialColumns(pa), B: pa.Hist}
		sb := &core.Summary{Columns: partialColumns(pb), B: pb.Hist}
		dst := &core.Summary{}
		if pa.Hist != nil {
			// Merge under the first partial's binning, as a coordinator
			// configured to node A's options would.
			dst.B = histogram.MustNew(pa.Hist.Min(), pa.Hist.Max(), pa.Hist.Width())
		}
		if err := core.MergeSummaries(dst, sa, sb); err != nil {
			return // incompatible binning is a reported error, not a crash
		}
		if dst.Len() != pa.Len()+pb.Len() {
			t.Fatalf("merged %d records from %d+%d", dst.Len(), pa.Len(), pb.Len())
		}
		for i := 1; i < dst.Len(); i++ {
			if dst.Times[i] < dst.Times[i-1] {
				t.Fatalf("merge output unsorted at %d", i)
			}
		}
	})
}
