package store

import (
	"sort"
	"testing"
	"time"

	"autosens/internal/cell"
	"autosens/internal/live"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// genStream synthesizes an ack-ordered beacon stream: record times are
// random over the horizon and the stream is NOT time-sorted (batches
// arrive out of order, as from many clients), so compaction's global
// (time, seq) sort and the scan merge are actually exercised.
func genStream(seed uint64, n int, horizon timeutil.Millis) []telemetry.Record {
	src := rng.New(seed)
	tzs := []timeutil.Millis{-5 * timeutil.MillisPerHour, 0, 2 * timeutil.MillisPerHour}
	out := make([]telemetry.Record, n)
	for i := range out {
		out[i] = telemetry.Record{
			Time:      timeutil.Millis(src.Uint64n(uint64(horizon))),
			Action:    telemetry.ActionType(src.Intn(telemetry.NumActionTypes)),
			LatencyMS: 100 + 400*src.LogNormal(0, 0.4),
			UserID:    uint64(src.Intn(200)) + 1,
			UserType:  telemetry.UserType(src.Intn(telemetry.NumUserTypes)),
			TZOffset:  tzs[src.Intn(len(tzs))],
			Failed:    src.Bool(0.05),
		}
	}
	return out
}

// writeWAL appends the stream to a segmented WAL in uneven batches and
// closes it, so every segment is sealed and the append order — each
// record's global sequence number — is the stream order.
func writeWAL(t testing.TB, fsys wal.FS, dir string, stream []telemetry.Record, segBytes int64) {
	t.Helper()
	w, _, err := wal.Open(wal.Options{Dir: dir, FS: fsys, Sync: wal.SyncOff, SegmentMaxBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(stream); {
		hi := lo + 1 + int(stream[lo].UserID%300)
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := w.Append(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// refRow is one expected scan result row.
type refRow struct {
	time timeutil.Millis
	lat  float64
	seq  uint64
}

// refRows is the test oracle: the (time, seq)-ordered rows the cold tier
// must serve for key ∩ win, computed straight from the stream with each
// record's stream position as its seq — the position both tiers assign.
func refRows(stream []telemetry.Record, key live.SliceKey, win live.Window) []refRow {
	var out []refRow
	for i, r := range stream {
		if r.Failed ||
			r.Action < 0 || int(r.Action) >= telemetry.NumActionTypes ||
			r.UserType < 0 || int(r.UserType) >= telemetry.NumUserTypes {
			continue
		}
		if c, _ := cell.Of(r); !key.Matches(c) {
			continue
		}
		if !win.IsZero() && !win.Contains(r.Time) {
			continue
		}
		out = append(out, refRow{time: r.Time, lat: r.LatencyMS, seq: uint64(i)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].time != out[j].time {
			return out[i].time < out[j].time
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// requireScan asserts ScanWindow returns exactly the oracle's rows —
// values, order and count. Equality both ways means no loss and no
// double count.
func requireScan(t *testing.T, s *Store, stream []telemetry.Record, key live.SliceKey, win live.Window) {
	t.Helper()
	times, lats, seqs, err := s.ScanWindow(key, win)
	if err != nil {
		t.Fatalf("scan %s win=%+v: %v", key, win, err)
	}
	want := refRows(stream, key, win)
	if len(times) != len(want) {
		t.Fatalf("scan %s win=%+v: %d rows, want %d", key, win, len(times), len(want))
	}
	for i, w := range want {
		if times[i] != w.time || lats[i] != w.lat || seqs[i] != w.seq {
			t.Fatalf("scan %s win=%+v: row %d = (%d, %g, %d), want (%d, %g, %d)",
				key, win, i, times[i], lats[i], seqs[i], w.time, w.lat, w.seq)
		}
	}
}

var testKeys = []live.SliceKey{
	live.AllSlices,
	{Action: telemetry.SelectMail, UserType: -1, Period: -1},
	{Action: -1, UserType: telemetry.Business, Period: -1},
	{Action: -1, UserType: -1, Period: timeutil.Period2pm8pm},
	{Action: telemetry.Search, UserType: telemetry.Consumer, Period: -1},
}

// TestCompactScanReopenRoundTrip is the basic life cycle: seal → compact
// → reopen → scan. It pins the cutover invariant's two visible halves:
// blocks compacted by the running incarnation stay invisible to it, and
// the next incarnation serves exactly the folded records.
func TestCompactScanReopenRoundTrip(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	stream := genStream(7, 6000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()
	writeWAL(t, nil, walDir, stream, 16<<10)

	s1, err := Open(Config{Dir: coldDir, WALDir: walDir, BlockRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := s1.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	usable := len(refRows(stream, live.AllSlices, live.Window{}))
	if stored != usable {
		t.Fatalf("compacted %d records, want %d usable", stored, usable)
	}

	// Every record consumed one sequence slot, stored or skipped.
	resp := s1.Blocks()
	if resp.NextSeq != uint64(len(stream)) {
		t.Fatalf("NextSeq %d, want %d (one slot per WAL record)", resp.NextSeq, len(stream))
	}
	sum := 0
	for _, b := range resp.Blocks {
		sum += b.Records
	}
	if sum != usable {
		t.Fatalf("blocks hold %d records, want %d", sum, usable)
	}

	// Blocks compacted by THIS incarnation are invisible to it: the hot
	// store still holds those records, so serving them would double-count.
	if times, _, _, err := s1.ScanWindow(live.AllSlices, live.Window{}); err != nil || len(times) != 0 {
		t.Fatalf("in-process compaction visible to scans: %d rows, err %v", len(times), err)
	}
	if _, ok := s1.OldestRetained(); ok {
		t.Fatal("OldestRetained true while the tier serves nothing")
	}

	// Folded segments are deleted — a warm can never replay them.
	if segs, err := wal.Segments(wal.OSFS(), walDir); err != nil || len(segs) != 0 {
		t.Fatalf("folded segments survived compaction: %v (err %v)", segs, err)
	}

	// The next incarnation serves everything below its cutover.
	s2, err := Open(Config{Dir: coldDir, WALDir: walDir, BlockRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cutover() != uint64(len(stream)) {
		t.Fatalf("cutover %d, want %d", s2.Cutover(), len(stream))
	}
	for _, key := range testKeys {
		requireScan(t, s2, stream, key, live.Window{})
		requireScan(t, s2, stream, key, live.Window{From: horizon / 4, To: horizon / 2})
		requireScan(t, s2, stream, key, live.Window{From: horizon / 2})
	}

	// Nothing new: compaction is a no-op, not a rewrite.
	if n, err := s2.CompactOnce(); err != nil || n != 0 {
		t.Fatalf("idle compaction stored %d records, err %v", n, err)
	}
}

// TestIncrementalCompactionRuns interleaves appends and compactions on a
// live WAL — multiple compaction runs whose block time ranges all overlap
// (stream times are random over one horizon), so reopened scans exercise
// the cross-run k-way merge, not mere concatenation.
func TestIncrementalCompactionRuns(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	stream := genStream(21, 9000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()
	w, _, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff, SegmentMaxBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Open(Config{Dir: coldDir, WALDir: walDir, Active: w.ActiveSegment, BlockRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(stream); {
		hi := lo + 1500
		if hi > len(stream) {
			hi = len(stream)
		}
		for at := lo; at < hi; at += 97 {
			end := at + 97
			if end > hi {
				end = hi
			}
			if err := w.Append(stream[at:end]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s1.CompactOnce(); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if got := s1.Stats().Compactions; got < 2 {
		t.Fatalf("only %d compaction runs — the test needs several", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The WAL is closed now, so a store without an Active hook may fold
	// the remaining tail segments too.
	s2, err := Open(Config{Dir: coldDir, WALDir: walDir, BlockRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.CompactOnce(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(Config{Dir: coldDir, WALDir: walDir, BlockRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Cutover() != uint64(len(stream)) {
		t.Fatalf("cutover %d, want %d", s3.Cutover(), len(stream))
	}
	for _, key := range testKeys {
		requireScan(t, s3, stream, key, live.Window{})
		requireScan(t, s3, stream, key, live.Window{From: horizon / 3, To: 2 * horizon / 3})
	}
}

// TestRetentionDropsAgedBlocks: with a retention bound, compaction drops
// whole blocks whose newest record aged past (newest cold record −
// retention) — measured on data time, not the wall clock — and deletes
// their files. Records newer than the cutoff must all survive.
func TestRetentionDropsAgedBlocks(t *testing.T) {
	horizon := 10 * timeutil.MillisPerDay
	stream := genStream(13, 8000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()
	writeWAL(t, nil, walDir, stream, 16<<10)

	retention := 48 * time.Hour
	cfg := Config{Dir: coldDir, WALDir: walDir, Retention: retention, BlockRecords: 256}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.CompactOnce(); err != nil {
		t.Fatal(err)
	}

	resp := s1.Blocks()
	if len(resp.Blocks) == 0 {
		t.Fatal("no blocks survived retention")
	}
	var newest int64
	for _, b := range resp.Blocks {
		if b.MaxTimeMS > newest {
			newest = b.MaxTimeMS
		}
	}
	cutoff := newest - retention.Milliseconds()
	for _, b := range resp.Blocks {
		if b.MaxTimeMS < cutoff {
			t.Fatalf("block %d aged out (max %d < cutoff %d) but survived", b.ID, b.MaxTimeMS, cutoff)
		}
	}
	full := refRows(stream, live.AllSlices, live.Window{})
	if kept := len(resp.Blocks); kept*256 >= len(full) {
		t.Fatalf("retention dropped nothing: %d blocks kept over %d records", kept, len(full))
	}

	// Dropped block files are really gone: the directory holds exactly
	// the manifest plus one file per surviving block.
	names, err := wal.OSFS().ReadDir(coldDir)
	if err != nil {
		t.Fatal(err)
	}
	blkFiles := 0
	for _, name := range names {
		switch {
		case isBlockFile(name):
			blkFiles++
		case name == manifestName:
		default:
			t.Fatalf("unexpected file in cold dir: %s", name)
		}
	}
	if blkFiles != len(resp.Blocks) {
		t.Fatalf("%d block files on disk, manifest lists %d", blkFiles, len(resp.Blocks))
	}

	// Reopen and scan: served ⊆ the full oracle, and ⊇ every oracle row
	// at or past the cutoff (its block's MaxTime ≥ its time ≥ cutoff, so
	// the block was kept).
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	times, lats, seqs, err := s2.ScanWindow(live.AllSlices, live.Window{})
	if err != nil {
		t.Fatal(err)
	}
	bySeq := make(map[uint64]refRow, len(full))
	for _, r := range full {
		bySeq[r.seq] = r
	}
	served := make(map[uint64]bool, len(times))
	for i := range times {
		ref, ok := bySeq[seqs[i]]
		if !ok || ref.time != times[i] || ref.lat != lats[i] {
			t.Fatalf("served row %d (seq %d) not in the oracle", i, seqs[i])
		}
		served[seqs[i]] = true
	}
	for _, r := range full {
		if int64(r.time) >= cutoff && !served[r.seq] {
			t.Fatalf("record seq %d at %d (≥ cutoff %d) lost to retention", r.seq, r.time, cutoff)
		}
	}

	if oldest, ok := s2.OldestRetained(); !ok || int64(oldest) > newest {
		t.Fatalf("OldestRetained = (%d, %v) nonsensical", oldest, ok)
	}
}

// sizeFS is a wal.FS that only knows file sizes — all takeRowBufs asks of it.
type sizeFS struct {
	wal.FS
	sizes map[string]int64
}

func (f sizeFS) Size(name string) (int64, error) { return f.sizes[name], nil }

// TestCompactionRowBuffers pins the replay-buffer lifecycle: nothing is
// presized before a replay has measured the WAL bytes a stored row takes;
// afterwards a kept buffer that is large enough is reused as is, one that
// is not is replaced by one sized from the segment's bytes, and buffers
// past the retention cap are not kept.
func TestCompactionRowBuffers(t *testing.T) {
	s := &Store{
		cfg: Config{WALDir: "w"},
		fs:  sizeFS{sizes: map[string]int64{"w/a": 2000, "w/b": 1000, "w/c": 8000}},
	}
	segs := make([]segRows, 2)
	if got := s.takeRowBufs([]string{"a", "b"}, segs); got != 3000 {
		t.Fatalf("segment bytes %d, want 3000", got)
	}
	if segs[0].rows != nil || segs[1].rows != nil {
		t.Fatal("buffers presized without a measured bytes-per-row")
	}
	segs[0].rows, segs[1].rows = make([]row, 100), make([]row, 50) // the replay
	s.rowBytes = 3000.0 / 150
	s.keepRowBufs(segs)
	if len(s.rowBufs) != 2 {
		t.Fatalf("kept %d buffers, want 2", len(s.rowBufs))
	}

	// "b" (1000 B → 50 rows + slack) does not fit the kept 50-row buffer it
	// pops, "c" (8000 B → 400 rows) does not fit the 100-row one.
	segs = make([]segRows, 2)
	s.takeRowBufs([]string{"b", "c"}, segs)
	if c := cap(segs[0].rows); c < 50+64 || c > 200 {
		t.Fatalf("buffer for a 1000-byte segment holds %d rows", c)
	}
	if c := cap(segs[1].rows); c < 400+64 || c > 600 {
		t.Fatalf("buffer for an 8000-byte segment holds %d rows", c)
	}
	// Same segments again: both buffers are reused in place.
	s.keepRowBufs(segs)
	first := [2]*row{&s.rowBufs[0][:1][0], &s.rowBufs[1][:1][0]}
	again := make([]segRows, 2)
	s.takeRowBufs([]string{"c", "b"}, again) // buffers pop last-kept first
	if &again[0].rows[:1][0] != first[1] || &again[1].rows[:1][0] != first[0] {
		t.Fatal("fitting kept buffers were reallocated")
	}

	again[0].rows = make([]row, 0, maxKeptRows+1)
	s.keepRowBufs(again)
	if len(s.rowBufs) != 1 {
		t.Fatalf("kept %d buffers, want the oversized one dropped", len(s.rowBufs))
	}
}
