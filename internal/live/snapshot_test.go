package live

import (
	"testing"

	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// The snapshot's merged columns must equal the batch path's stable by-time
// sort of the slice's usable records — the same identity the query path
// guarantees — and the per-shard columns must partition them.
func TestSnapshotSliceColumns(t *testing.T) {
	stream := genStream(71, 20_000, 30*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)

	for _, key := range []SliceKey{AllSlices, {Action: telemetry.Search, UserType: -1, Period: -1}} {
		snap, err := e.SnapshotSliceWindow(key, Window{})
		if err != nil {
			t.Fatalf("snapshot %s: %v", key, err)
		}
		want := batchFilter(stream, key)
		want = telemetry.Filter(want, func(r telemetry.Record) bool { return !r.Failed })
		telemetry.SortByTime(want)
		if len(snap.Times) != len(want) {
			t.Fatalf("slice %s: %d merged records, want %d", key, len(snap.Times), len(want))
		}
		for i := range want {
			if snap.Times[i] != want[i].Time || snap.Lats[i] != want[i].LatencyMS {
				t.Fatalf("slice %s: merged[%d] = (%d, %v), want (%d, %v)",
					key, i, snap.Times[i], snap.Lats[i], want[i].Time, want[i].LatencyMS)
			}
		}
		shardTotal := 0
		for _, sh := range snap.Shards {
			if len(sh.Times) != len(sh.Lats) || len(sh.Times) != len(sh.Seqs) {
				t.Fatalf("slice %s: ragged shard columns", key)
			}
			for i := 1; i < len(sh.Times); i++ {
				if sh.Times[i] < sh.Times[i-1] {
					t.Fatalf("slice %s: shard columns not time-sorted", key)
				}
			}
			shardTotal += len(sh.Times)
		}
		if shardTotal != len(snap.Times) {
			t.Fatalf("slice %s: shards hold %d records, merged %d", key, shardTotal, len(snap.Times))
		}
	}
}

func TestSliceVersionTracksAppends(t *testing.T) {
	e := newTestEngine(t)
	key := AllSlices
	if v := e.SliceVersion(key); v != 0 {
		t.Fatalf("fresh engine version %d", v)
	}
	if _, err := e.SnapshotSliceWindow(key, Window{}); err != ErrNoRecords {
		t.Fatalf("empty snapshot err = %v, want ErrNoRecords", err)
	}
	e.Append(genStream(72, 500, timeutil.MillisPerDay))
	v1 := e.SliceVersion(key)
	if v1 == 0 {
		t.Fatal("version did not move after append")
	}
	snap, err := e.SnapshotSliceWindow(key, Window{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != v1 {
		t.Fatalf("snapshot version %d, want %d", snap.Version, v1)
	}
	// No appends: version stable, so a watcher would skip.
	if v := e.SliceVersion(key); v != v1 {
		t.Fatalf("version moved without appends: %d -> %d", v1, v)
	}
	e.Append(genStream(73, 100, timeutil.MillisPerDay))
	if v := e.SliceVersion(key); v <= v1 {
		t.Fatalf("version did not advance: %d -> %d", v1, v)
	}
}

func TestLiveStats(t *testing.T) {
	e := newTestEngine(t)
	stream := genStream(74, 2_000, timeutil.MillisPerDay)
	e.Append(stream)
	if _, err := e.Query(AllSlices, ModePlain, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(AllSlices, ModePlain, false); err != nil {
		t.Fatal(err)
	}
	st := e.LiveStats()
	if st.Shards != len(e.shards) || st.Records != e.Records() {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.Queries != 2 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("query counters: %+v", st)
	}
	if st.CachedCurves != 1 || st.Epoch != 1 {
		t.Fatalf("cache counters: %+v", st)
	}
}
