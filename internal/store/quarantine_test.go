package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"autosens/internal/live"
	"autosens/internal/timeutil"
)

// TestCorruptBlockQuarantine pins the operator story for a bad block: a
// scan that trips over a CRC-failing block skips it — serving every other
// block's rows instead of going dark — counts it, and names it in the
// quarantine list, while a genuinely missing file still aborts the scan
// with a typed, non-corrupt error so callers know to retry.
func TestCorruptBlockQuarantine(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	stream := genStream(41, 6000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()
	writeWAL(t, nil, walDir, stream, 16<<10)
	cfg := Config{Dir: coldDir, WALDir: walDir, BlockRecords: 512}
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
	blocks := s.snapshotManifest().Blocks
	if len(blocks) < 3 {
		t.Fatalf("want several blocks, got %d", len(blocks))
	}
	oracle := refRows(stream, live.AllSlices, live.Window{})

	// Flip one payload byte deep inside a middle block: its CRC check
	// fails but the file still opens and frames.
	victim := blocks[len(blocks)/2]
	path := filepath.Join(coldDir, victim.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	victimRows, err := decodeBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	victimSeqs := map[uint64]bool{}
	for _, r := range victimRows {
		victimSeqs[r.seq] = true
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	times, _, seqs, err := s.ScanWindow(live.AllSlices, live.Window{})
	if err != nil {
		t.Fatalf("scan with one corrupt block must not fail: %v", err)
	}
	if want := len(oracle) - int(victim.Records); len(times) != want {
		t.Fatalf("scan rows = %d, want oracle minus corrupt block = %d", len(times), want)
	}
	// The survivors are exactly the oracle minus the victim's own rows.
	got := map[uint64]bool{}
	for _, sq := range seqs {
		got[sq] = true
	}
	for _, r := range oracle {
		if got[r.seq] == victimSeqs[r.seq] {
			t.Fatalf("seq %d served=%v, in victim block=%v", r.seq, got[r.seq], victimSeqs[r.seq])
		}
	}

	st := s.Stats()
	if st.CorruptBlocks != 1 {
		t.Fatalf("CorruptBlocks = %d, want 1", st.CorruptBlocks)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0] != victim.File {
		t.Fatalf("Quarantined = %v, want [%s]", st.Quarantined, victim.File)
	}
	// Repeat scans don't duplicate the quarantine entry.
	if _, _, _, err := s.ScanWindow(live.AllSlices, live.Window{}); err != nil {
		t.Fatal(err)
	}
	if q := s.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantine list grew on repeat scans: %v", q)
	}

	// A missing block file is not corruption: the scan aborts with a
	// typed error naming the file (no generation bump happened, so the
	// GC-race retry must not mask it).
	gone := blocks[0]
	if err := os.Remove(filepath.Join(coldDir, gone.File)); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = s.ScanWindow(live.AllSlices, live.Window{})
	var bre *BlockReadError
	if !errors.As(err, &bre) {
		t.Fatalf("missing file: got %v, want *BlockReadError", err)
	}
	if bre.File != gone.File {
		t.Fatalf("error names %q, want %q", bre.File, gone.File)
	}
	if bre.Corrupt() {
		t.Fatal("missing file misclassified as corrupt")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing-file error should unwrap to fs.ErrNotExist: %v", err)
	}
}

// TestChunkEdgeInversionQuarantined pins the (time, seq) rule across a
// chunk edge on the scan path. The planted block holds chunkRecs+1 rows at
// one time whose seq drops from the last row of the first chunk to the
// only row of the second: each chunk is sorted, the block is not, and
// every curve is a function of that order. The cached whole-block decode
// and the chunk-skipping windowed decode must both refuse it as a corrupt
// *BlockReadError naming the file, and ScanWindow must serve none of its
// rows, count it and quarantine it.
func TestChunkEdgeInversionQuarantined(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	stream := genStream(43, 6000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()
	writeWAL(t, nil, walDir, stream, 16<<10)
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
	blocks := s.snapshotManifest().Blocks
	if len(blocks) < 3 {
		t.Fatalf("want several blocks, got %d", len(blocks))
	}
	victim := blocks[len(blocks)/2]

	const base = 1 << 40 // far from every real seq
	rows := make([]row, chunkRecs+1)
	for i := range rows {
		rows[i] = row{time: victim.MinTime, lat: 100, seq: base + 100 + uint64(i), user: 1}
	}
	rows[chunkRecs].seq = base + 3
	if err := os.WriteFile(filepath.Join(coldDir, victim.File), appendBlock(nil, rows), 0o644); err != nil {
		t.Fatal(err)
	}

	// The unbounded window covers the block (the cached decode); the one
	// ending at its max time does not (the chunk-skipping decode).
	for _, win := range []live.Window{{}, {From: victim.MinTime, To: victim.MaxTime}} {
		_, err := s.scanBlock(&victim, live.AllSlices, win)
		var bre *BlockReadError
		if !errors.As(err, &bre) || !bre.Corrupt() || bre.File != victim.File {
			t.Fatalf("win=%+v: %v, want a corrupt *BlockReadError naming %s", win, err, victim.File)
		}
	}

	oracle := refRows(stream, live.AllSlices, live.Window{})
	times, _, seqs, err := s.ScanWindow(live.AllSlices, live.Window{})
	if err != nil {
		t.Fatalf("scan with one corrupt block must not fail: %v", err)
	}
	if want := len(oracle) - victim.Records; len(times) != want {
		t.Fatalf("scan rows = %d, want oracle minus the planted block = %d", len(times), want)
	}
	for _, sq := range seqs {
		if sq >= base {
			t.Fatalf("served seq %d from the planted block", sq)
		}
	}
	st := s.Stats()
	if st.CorruptBlocks != 1 || len(st.Quarantined) != 1 || st.Quarantined[0] != victim.File {
		t.Fatalf("CorruptBlocks = %d, Quarantined = %v; want 1 and [%s]", st.CorruptBlocks, st.Quarantined, victim.File)
	}
}
