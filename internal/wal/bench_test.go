package wal

import (
	"testing"

	"autosens/internal/owasim"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// owasimBatch returns the first n records of a fixed owasim run.
func owasimBatch(tb testing.TB, n int) []telemetry.Record {
	tb.Helper()
	cfg := owasim.DefaultConfig(timeutil.MillisPerDay, 10, 10)
	cfg.Seed = 7
	res, err := owasim.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Records) < n {
		tb.Fatalf("owasim made %d records, want %d", len(res.Records), n)
	}
	return res.Records[:n]
}

// BenchmarkWALAppendTBIN measures one 500-record beacon's WAL append as
// TBIN with fsync off: encode, frame, CRC and the write into the page
// cache.
func BenchmarkWALAppendTBIN(b *testing.B) {
	batch := owasimBatch(b, 500)
	w, _, err := Open(Options{Dir: b.TempDir(), Format: telemetry.TBIN, Sync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
}
