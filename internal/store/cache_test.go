package store

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

func colsOfSize(n int) *blockCols {
	return &blockCols{
		Columns: core.Columns{
			Times: make([]timeutil.Millis, n),
			Lats:  make([]float64, n),
			Seqs:  make([]uint64, n),
		},
		tags: make([]uint8, n),
	}
}

// TestBlockCacheLRU pins the cache's unit behavior: byte-bounded LRU
// eviction, recency on get, idempotent put, purge, and nil-safety.
func TestBlockCacheLRU(t *testing.T) {
	var disabled *blockCache
	if disabled.get("x") != nil {
		t.Fatal("nil cache returned an entry")
	}
	disabled.put("x", colsOfSize(1))
	disabled.purge()
	if st := disabled.stats(); st.Entries != 0 || st.Bytes != 0 || st.MaxBytes != 0 {
		t.Fatalf("nil cache stats not zero: %+v", st)
	}
	if newBlockCache(0) != nil || newBlockCache(-5) != nil {
		t.Fatal("non-positive budgets must disable the cache")
	}

	one := colsOfSize(100) // 2500 bytes
	per := one.memBytes()
	c := newBlockCache(3 * per)
	for _, f := range []string{"a", "b", "c"} {
		c.put(f, colsOfSize(100))
	}
	if st := c.stats(); st.Entries != 3 || st.Bytes != 3*per || st.Evictions != 0 {
		t.Fatalf("after 3 puts: %+v", st)
	}
	// Touch "a" so "b" is now the LRU victim.
	if c.get("a") == nil {
		t.Fatal("miss on resident entry")
	}
	c.put("d", colsOfSize(100))
	if c.get("b") != nil {
		t.Fatal("LRU victim survived")
	}
	if c.get("a") == nil || c.get("c") == nil || c.get("d") == nil {
		t.Fatal("resident entries evicted")
	}
	if st := c.stats(); st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	// A block bigger than the whole budget is refused, not thrashed in.
	c.put("huge", colsOfSize(1000))
	if c.get("huge") != nil {
		t.Fatal("oversized block was cached")
	}
	// Duplicate put keeps the incumbent and leaks no bytes.
	c.put("a", colsOfSize(100))
	if st := c.stats(); st.Bytes != 3*per {
		t.Fatalf("duplicate put changed footprint: %+v", st)
	}
	c.purge()
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after purge: %+v", st)
	}
}

// TestScanUsesCache pins the cache's read-path value and correctness: a
// repeated windowed scan stops reading block files (hit counters move,
// miss counters don't), and cached answers are byte-equal to cold ones
// across slices — including slices other than the one that populated the
// cache, since cached blocks retain their tag column.
func TestScanUsesCache(t *testing.T) {
	horizon := 4 * timeutil.MillisPerDay
	stream := genStream(3, 8000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()
	writeWAL(t, nil, walDir, stream, 32<<10)
	cfg := Config{Dir: coldDir, WALDir: walDir, BlockRecords: 512, CacheBytes: 64 << 20}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	win := live.Window{From: horizon / 4, To: 3 * horizon / 4}
	requireScan(t, s, stream, live.AllSlices, win)
	st1 := s.Stats()
	if st1.Cache == nil || st1.Cache.Misses == 0 {
		t.Fatalf("first scan should miss the empty cache: %+v", st1.Cache)
	}
	if st1.Cache.Entries == 0 {
		t.Fatal("first scan cached nothing")
	}

	// Same window again: every fully-covered block must come from cache.
	// Only the (at most two) blocks straddling a window edge may re-read —
	// partial decodes are deliberately never cached.
	requireScan(t, s, stream, live.AllSlices, win)
	st2 := s.Stats()
	if st2.Cache.Hits == st1.Cache.Hits {
		t.Fatal("repeat scan hit the cache zero times")
	}
	if d := st2.Cache.Misses - st1.Cache.Misses; d > 2 {
		t.Fatalf("repeat scan re-read %d blocks from disk, want at most the 2 edge blocks", d)
	}

	// A different slice over the same window filters the same cached
	// blocks by tag; results must still match the oracle exactly.
	for _, key := range testKeys {
		requireScan(t, s, stream, key, win)
	}

	// A window one cached block answers alone is served without a copy:
	// both scans hand back the cache's own rows.
	m := s.snapshotManifest().Blocks[3]
	one := live.Window{From: m.MinTime, To: m.MaxTime + 1}
	t1, _, _, err1 := s.ScanWindow(live.AllSlices, one)
	t2, _, _, err2 := s.ScanWindow(live.AllSlices, one)
	if err1 != nil || err2 != nil || len(t1) != m.Records || len(t2) != m.Records {
		t.Fatalf("single-block scans: %d and %d rows (%v, %v), want %d", len(t1), len(t2), err1, err2, m.Records)
	}
	if &t1[0] != &t2[0] {
		t.Fatal("single cached block was copied instead of passed through")
	}

	// /v1/blocks carries the same counters.
	if resp := s.Blocks(); resp.CacheHits == 0 || resp.ScannedBlocks == 0 {
		t.Fatalf("blocks response missing counters: hits=%d scanned=%d",
			resp.CacheHits, resp.ScannedBlocks)
	}
}

// TestCacheInvalidationUnderCompactionAndGC runs windowed scans, result
// verification, compactions and retention GC concurrently (the -race
// target race-store covers this file): while segments keep folding and
// old blocks age out, scans must never error, never serve a stale mix,
// and the generation must advance exactly when visible blocks drop.
func TestCacheInvalidationUnderCompactionAndGC(t *testing.T) {
	horizon := 8 * timeutil.MillisPerDay
	stream := genStream(17, 12000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()

	// Incarnation 1: fold the first half so its blocks become visible on
	// reopen. Keep the WAL open — more (newer) records arrive during the
	// concurrent phase and their folds push the retention cutoff forward.
	half := len(stream) / 2
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })
	w, _, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff, SegmentMaxBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < half; lo += 300 {
		hi := lo + 300
		if hi > half {
			hi = half
		}
		if err := w.Append(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	// Seal the active segment so the whole first half folds now — the
	// final oracle below depends on exactly stream[:half] being visible.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	s1, err := Open(Config{Dir: coldDir, WALDir: walDir, Active: w.ActiveSegment, BlockRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.CompactOnce(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: retention tight enough that folding the newer half
	// (times up to ~horizon) ages out the oldest visible blocks mid-run,
	// yet loose enough that blocks near horizon/2 survive.
	retention := time.Duration(7*int64(horizon)/10) * time.Millisecond
	s, err := Open(Config{
		Dir: coldDir, WALDir: walDir, Active: w.ActiveSegment,
		BlockRecords: 256, Retention: retention, CacheBytes: 32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 {
		t.Fatalf("fresh store generation = %d, want 1", s.Generation())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scanErr := make(chan error, 1)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wins := []live.Window{
				{},
				{From: horizon / 2},
				{From: horizon / 8, To: horizon / 2},
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := testKeys[(g+i)%len(testKeys)]
				win := wins[i%len(wins)]
				times, _, seqs, err := s.ScanWindow(key, win)
				if err != nil {
					select {
					case scanErr <- err:
					default:
					}
					return
				}
				for j := 1; j < len(times); j++ {
					if times[j] < times[j-1] ||
						(times[j] == times[j-1] && seqs[j] <= seqs[j-1]) {
						select {
						case scanErr <- errors.New("scan result not (time, seq)-sorted"):
						default:
						}
						return
					}
				}
			}
		}(g)
	}

	// Feed and fold the newer half while the scanners run.
	for lo := half; lo < len(stream); lo += 300 {
		hi := lo + 300
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := w.Append(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CompactOnce(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-scanErr:
		t.Fatal(err)
	default:
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The newer half's spread plus the tight retention must have dropped
	// visible blocks: generation advanced and the cache was purged of them.
	if s.Generation() == 1 {
		t.Fatal("retention GC dropped no visible block — the test exercised nothing")
	}
	// Post-GC scans still serve exactly the surviving oracle rows. Only
	// the first half is visible to this incarnation (its own compactions
	// produced blocks above its cutover, which the hot store still owns),
	// and the stream is time-sorted, so the prefix is the oracle.
	oldest, ok := s.OldestRetained()
	if !ok {
		t.Fatal("tier empty after GC")
	}
	requireScan(t, s, stream[:half], live.AllSlices, live.Window{From: oldest})
}
