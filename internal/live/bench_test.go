package live

import (
	"sort"
	"sync/atomic"
	"testing"

	"autosens/internal/core"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// benchStream is the shared benchmark workload: two days of out-of-order
// beacons.
func benchStream(n int) []telemetry.Record {
	return genStream(42, n, 2*timeutil.MillisPerDay)
}

func benchEngine(b *testing.B, stream []telemetry.Record) *Engine {
	b.Helper()
	e, err := New(Config{Options: testOptions()})
	if err != nil {
		b.Fatal(err)
	}
	e.Append(stream)
	return e
}

// BenchmarkLiveQueryCached is the clean-path query: a cache lookup plus
// one version load. The ≥100x acceptance margin is against
// BenchmarkLiveBatchRecompute below.
func BenchmarkLiveQueryCached(b *testing.B) {
	e := benchEngine(b, benchStream(50000))
	if _, err := e.Query(AllSlices, ModePlain, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Query(AllSlices, ModePlain, false)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("query missed the cache")
		}
	}
}

// BenchmarkLiveQueryDirty measures the incremental path: a small batch
// lands (dirtying one or a few shards), then the curve is recomputed from
// cached clean-shard views plus the rebuilt dirty ones.
func BenchmarkLiveQueryDirty(b *testing.B) {
	stream := benchStream(50000)
	e := benchEngine(b, stream[:49000])
	// Only successful records dirty the store — a skipped Failed record
	// would let the query hit the cache and fail the assertion below.
	tail := telemetry.Successful(stream[49000:])
	if _, err := e.Query(AllSlices, ModePlain, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Append(tail[i%len(tail) : i%len(tail)+1])
		res, err := e.Query(AllSlices, ModePlain, false)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("dirty query served from cache")
		}
	}
}

// BenchmarkLiveQueryDirtyPlain is the dirty plain query under the two
// arrival orders of BenchmarkLiveQueryDirtyNormalized: advancing (every batch
// moves the data clock, so the combo's draw schedule is redrawn, re-sorted and
// re-swept — split over the engine's workers) and backfill (the window holds,
// the batch folds into the delta-maintained sweep state).
func BenchmarkLiveQueryDirtyPlain(b *testing.B) {
	benchDirtyOrders(b, ModePlain, false)
}

// benchDirtyOrders runs one dirty query kind under advancing and backfill
// arrivals: five records land, then the 50 k-record combo is asked again.
func benchDirtyOrders(b *testing.B, mode Mode, ci bool) {
	const n, batch = 50000, 5
	horizon := 2 * timeutil.MillisPerDay
	stream := telemetry.Successful(advancingStream(42, n, horizon))
	step := horizon / n
	for _, order := range []string{"advancing", "backfill"} {
		b.Run(order, func(b *testing.B) {
			e := benchEngine(b, stream)
			if _, err := e.Query(AllSlices, mode, ci); err != nil {
				b.Fatal(err)
			}
			now := stream[len(stream)-1].Time
			recs := make([]telemetry.Record, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range recs {
					recs[k] = stream[(i*batch+k)%len(stream)]
					recs[k].Time += step / 3 // in the held range, not on a held instant
					if order == "advancing" {
						now += step
						recs[k].Time = now
					}
				}
				e.Append(recs)
				res, err := e.Query(AllSlices, mode, ci)
				if err != nil {
					b.Fatal(err)
				}
				if res.Cached {
					b.Fatal("dirty query served from cache")
				}
			}
			if mode == ModeNormalized {
				b.StopTimer()
				st := e.LiveStats()
				b.ReportMetric(float64(st.NormalizedRegenerated)/float64(st.NormalizedRecomputes), "regen/op")
			}
		})
	}
}

// BenchmarkLiveQueryDirtyNormalized is the dirty mode=normalized query under
// the two arrival orders the outside-in benchmark separates: advancing (each
// batch moves the data clock — the last slot's bounds and every slot's quota
// change) and backfill (arrivals inside the held range — the slots they land
// in are re-swept). Both answer from the combo's retained slot tables; the
// batch kernel over the same 50 k records is BenchmarkLiveBatchRecompute's
// normalized twin, core's BenchmarkEstimateTimeNormalized.
func BenchmarkLiveQueryDirtyNormalized(b *testing.B) {
	benchDirtyOrders(b, ModeNormalized, false)
}

// BenchmarkLiveQueryDirtyCI is the dirty plain ci=1 query — the dearest
// request kind of the outside-in benchmark's query mix — under the same two
// time-ordered arrival patterns: the delta-maintained point estimate
// (rebuilt under advancing arrivals, folded under backfill) plus the
// bootstrap's one split sweep and its block-sum replicates.
func BenchmarkLiveQueryDirtyCI(b *testing.B) {
	benchDirtyOrders(b, ModePlain, true)
}

// BenchmarkLiveBatchRecompute is what answering the same question cost
// before the live engine: a full batch estimate over the acked records
// (sort + biased histogram build + unbiased sweep + finishing), exactly
// as the autosens CLI runs it. Input loading/decoding is excluded, which
// only understates the live engine's advantage.
func BenchmarkLiveBatchRecompute(b *testing.B) {
	stream := benchStream(50000)
	est, err := core.NewEstimator(testOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveIngestAppend measures raw store append throughput.
func BenchmarkLiveIngestAppend(b *testing.B) {
	stream := benchStream(50000)
	e, err := New(Config{Options: testOptions()})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % (len(stream) - batch)
		e.Append(stream[lo : lo+batch])
	}
	b.ReportMetric(float64(batch), "records/op")
}

// BenchmarkLiveIngestConcurrentQuery measures append throughput while a
// background querier hammers the engine (forcing continual recomputes,
// since every batch dirties the cache). Compare records/op against
// BenchmarkLiveIngestAppend to see the query tax on ingest.
func BenchmarkLiveIngestConcurrentQuery(b *testing.B) {
	stream := benchStream(50000)
	e, err := New(Config{Options: testOptions()})
	if err != nil {
		b.Fatal(err)
	}
	e.Append(stream[:10000])
	stop := make(chan struct{})
	done := make(chan struct{})
	var queries atomic.Uint64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = e.Query(AllSlices, ModePlain, false)
			queries.Add(1)
		}
	}()
	const batch = 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % (len(stream) - batch)
		e.Append(stream[lo : lo+batch])
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(batch), "records/op")
	b.ReportMetric(float64(queries.Load())/float64(b.N), "queries/op")
}

// benchCold is a fake cold tier for the windowed benchmarks: sorted columns
// clipped by binary search without copying, like the store's block cache.
type benchCold struct{ cols core.Columns }

func (c *benchCold) ScanWindow(_ SliceKey, win Window) ([]timeutil.Millis, []float64, []uint64, error) {
	v := c.cols.Slice(c.cols.Range(win.From, win.To))
	return v.Times, v.Lats, v.Seqs, nil
}
func (c *benchCold) OldestRetained() (timeutil.Millis, bool) { return c.cols.Times[0], true }
func (c *benchCold) Generation() uint64                      { return 1 }

// benchTieredEngine splits the benchmark stream at the middle of its time
// range: the older half is served by a fake cold tier, the newer half —
// in arrival order, so out of time order — is the hot store, minus a tail
// the loop appends record by record.
func benchTieredEngine(b *testing.B) (e *Engine, tail []telemetry.Record, horizon timeutil.Millis) {
	b.Helper()
	horizon = 2 * timeutil.MillisPerDay
	var hot []telemetry.Record
	cold := &benchCold{}
	for _, r := range telemetry.Successful(benchStream(100000)) {
		if r.Time >= horizon/2 {
			hot = append(hot, r)
			continue
		}
		cold.cols.Times = append(cold.cols.Times, r.Time)
		cold.cols.Lats = append(cold.cols.Lats, r.LatencyMS)
		cold.cols.Seqs = append(cold.cols.Seqs, uint64(len(cold.cols.Seqs)))
	}
	sort.Sort(&cold.cols)
	e, err := New(Config{Options: testOptions()})
	if err != nil {
		b.Fatal(err)
	}
	e.SetBaseSeq(uint64(cold.cols.Len()))
	e.AttachCold(cold)
	e.Append(hot[:len(hot)-1000])
	return e, hot[len(hot)-1000:], horizon
}

// BenchmarkLiveWindowSliding is the trailing-window dashboard: a record
// lands, then a never-seen window spanning the cutover is asked for — the
// stateless view path, whose cost and allocations must follow the window,
// not the hot store, and which must retain nothing.
func BenchmarkLiveWindowSliding(b *testing.B) {
	e, tail, horizon := benchTieredEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Append(tail[i%len(tail) : i%len(tail)+1])
		win := Window{From: horizon/4 + timeutil.Millis(i), To: horizon + 1 + timeutil.Millis(i)}
		res, err := e.QueryWindow(AllSlices, ModePlain, false, win)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("sliding window served from cache")
		}
	}
	if st := e.LiveStats(); st.WindowStates != 0 {
		b.Fatalf("sliding windows retained %d states", st.WindowStates)
	}
}

// BenchmarkLiveWindowPinned is the pinned dashboard: the same window asked
// again after every arrival — promoted to delta-maintained state on its
// second recompute, O(delta) from then on.
func BenchmarkLiveWindowPinned(b *testing.B) {
	e, tail, horizon := benchTieredEngine(b)
	win := Window{From: horizon / 4, To: horizon + 1}
	for i := 0; i < 2; i++ { // stateless, then seeded
		e.Append(tail[i : i+1])
		if _, err := e.QueryWindow(AllSlices, ModePlain, false, win); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Append(tail[(i+2)%len(tail) : (i+2)%len(tail)+1])
		res, err := e.QueryWindow(AllSlices, ModePlain, false, win)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("dirty pinned window served from cache")
		}
	}
}
