package store

import (
	"os"
	"path/filepath"
	"testing"

	"autosens/internal/live"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

const benchHorizon = 8 * timeutil.MillisPerDay

// benchTier builds a fully compacted, reopened cold tier (blocks visible
// below the cutover) over n records and returns it with its stream.
// cacheBytes configures the decoded-block cache (0 disables).
func benchTier(b *testing.B, n, blockRecords int, cacheBytes int64) (*Store, []telemetry.Record) {
	b.Helper()
	stream := genStream(1, n, benchHorizon)
	walDir, coldDir := b.TempDir(), b.TempDir()
	writeWAL(b, nil, walDir, stream, 1<<20)
	cfg := Config{Dir: coldDir, WALDir: walDir, BlockRecords: blockRecords, CacheBytes: cacheBytes}
	s1, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s1.CompactOnce(); err != nil {
		b.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s2, stream
}

// walBytes sums the segment sizes under dir.
func walBytes(b *testing.B, dir string) int64 {
	b.Helper()
	segs, err := wal.Segments(wal.OSFS(), dir)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, name := range segs {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			b.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// BenchmarkStoreCompact measures compaction throughput — WAL bytes folded
// into installed, synced blocks per second.
func BenchmarkStoreCompact(b *testing.B) {
	stream := genStream(1, 120000, benchHorizon)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		walDir, coldDir := b.TempDir(), b.TempDir()
		writeWAL(b, nil, walDir, stream, 4<<20)
		s, err := Open(Config{Dir: coldDir, WALDir: walDir})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(walBytes(b, walDir))
		b.StartTimer()
		if _, err := s.CompactOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreColdScan measures the streaming cold read path: a full
// unwindowed scan of every block, decoded and k-way merged, in cold-tier
// bytes per second.
func BenchmarkStoreColdScan(b *testing.B) {
	s, _ := benchTier(b, 200000, DefaultBlockRecords, 0)
	b.SetBytes(s.Stats().ColdBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.ScanWindow(live.AllSlices, live.Window{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreColdScanWindowed scans a narrow trailing window over a
// wide-horizon tier: the zone maps must let the scan skip most blocks.
// The achieved prune rate is reported as prune-% and gated ≥ 50 by
// make bench-store.
func BenchmarkStoreColdScanWindowed(b *testing.B) {
	s, _ := benchTier(b, 200000, 4096, 0)
	win := live.Window{From: benchHorizon - benchHorizon/8}
	if _, _, _, err := s.ScanWindow(live.AllSlices, win); err != nil {
		b.Fatal(err)
	}
	st0 := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.ScanWindow(live.AllSlices, win); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st1 := s.Stats()
	scanned := st1.ScannedBlocks - st0.ScannedBlocks
	if pruned := st1.PrunedBlocks - st0.PrunedBlocks; scanned > 0 {
		b.ReportMetric(float64(pruned)/float64(scanned)*100, "prune-%")
	}
}

// BenchmarkStoreColdScanWindowedCached is the watcher's steady state: the
// same trailing window scanned over and over with the decoded-block cache
// on. After the first iteration every fully-covered block is served from
// memory — the per-op cost is the clip + merge, not decode.
func BenchmarkStoreColdScanWindowedCached(b *testing.B) {
	s, _ := benchTier(b, 200000, 4096, 256<<20)
	win := live.Window{From: benchHorizon - benchHorizon/8}
	if _, _, _, err := s.ScanWindow(live.AllSlices, win); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.ScanWindow(live.AllSlices, win); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Cache == nil || st.Cache.Hits == 0 {
		b.Fatal("cached scan bench never hit the cache")
	}
}

// BenchmarkStoreQueryWindowDirty is the tentpole serving path under
// ingest: every iteration appends one hot record (dirtying the slice)
// and asks for a trailing-window curve, so each query pays the windowed
// recompute — hot view clip + cold scan + merge + estimate.
func BenchmarkStoreQueryWindowDirty(b *testing.B) {
	s, stream := benchTier(b, 100000, DefaultBlockRecords, 256<<20)
	e, err := live.New(live.Config{Options: testOptions()})
	if err != nil {
		b.Fatal(err)
	}
	e.SetBaseSeq(s.Cutover())
	e.AttachCold(s)
	win := live.Window{From: benchHorizon / 2}
	// A failed record is skipped without dirtying any slice, which would
	// turn every query below into a cache hit — and a record outside the
	// window would dirty the slice without growing the windowed fold.
	// Append a usable in-window record so each iteration pays the honest
	// delta: clip + fold + finish.
	one := stream[:1]
	for i := range stream {
		if !stream[i].Failed && win.Contains(stream[i].Time) {
			one = stream[i : i+1]
			break
		}
	}
	if !win.Contains(one[0].Time) {
		b.Fatal("no usable in-window record in the bench stream")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Append(one)
		if _, err := e.QueryWindow(live.AllSlices, live.ModePlain, false, win); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreQueryWindowRepeat is the cache-hot half of the serving
// story: the same trailing window asked again with nothing appended in
// between is a version-checked result-cache hit — no recompute, no scan.
func BenchmarkStoreQueryWindowRepeat(b *testing.B) {
	s, _ := benchTier(b, 100000, DefaultBlockRecords, 256<<20)
	e, err := live.New(live.Config{Options: testOptions()})
	if err != nil {
		b.Fatal(err)
	}
	e.SetBaseSeq(s.Cutover())
	e.AttachCold(s)
	win := live.Window{From: benchHorizon / 2}
	if _, err := e.QueryWindow(live.AllSlices, live.ModePlain, false, win); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryWindow(live.AllSlices, live.ModePlain, false, win)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("repeat query missed the result cache")
		}
	}
}
