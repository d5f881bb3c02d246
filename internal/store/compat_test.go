package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"autosens/internal/live"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// appendBlockV1 encodes rows in the original ASBK layout — version byte
// 1, no chunk min/max prefix, columns times/lats/seqs/tags/users — as a
// frozen copy of the pre-chunk-skipping encoder, the fixture that pins
// how readers refuse blocks written by older builds.
func appendBlockV1(dst []byte, rows []row) []byte {
	dst = append(dst, blockMagic[:]...)
	dst = append(dst, 1)
	var payload []byte
	for len(rows) > 0 {
		chunk := rows
		if len(chunk) > chunkRecs {
			chunk = chunk[:chunkRecs]
		}
		rows = rows[len(chunk):]

		payload = payload[:0]
		var lastT, lastS int64
		for i := range chunk {
			payload = binary.AppendVarint(payload, int64(chunk[i].time)-lastT)
			lastT = int64(chunk[i].time)
		}
		for i := range chunk {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(chunk[i].lat))
		}
		for i := range chunk {
			payload = binary.AppendVarint(payload, int64(chunk[i].seq)-lastS)
			lastS = int64(chunk[i].seq)
		}
		for i := range chunk {
			payload = append(payload, chunk[i].tag)
		}
		for i := range chunk {
			payload = binary.AppendUvarint(payload, chunk[i].user)
		}

		dst = binary.AppendUvarint(dst, uint64(len(chunk)))
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
		dst = append(dst, payload...)
	}
	return dst
}

// genSortedRows produces n (time, seq)-sorted rows with duplicate times
// landing across chunk boundaries (times are quantized), the shape that
// stresses both the sort validation and the chunk min/max bookkeeping.
func genSortedRows(seed uint64, n int, horizon timeutil.Millis) []row {
	src := rng.New(seed)
	rows := make([]row, n)
	for i := range rows {
		rows[i] = row{
			time: timeutil.Millis(src.Uint64n(uint64(horizon)/64)) * 64,
			lat:  float64(src.Intn(100000)) / 16,
			user: src.Uint64n(500) + 1,
			tag:  uint8(src.Intn(32)),
		}
	}
	// Unique seqs, then the canonical (time, seq) sort.
	for i := range rows {
		rows[i].seq = uint64(i)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].time != rows[j].time {
			return rows[i].time < rows[j].time
		}
		return rows[i].seq < rows[j].seq
	})
	return rows
}

// TestV1BlockReadCompat pins the refusal of version-1 blocks: the row
// reader and a scan's column decode both reject the fixture as a corrupt
// block, naming its version.
func TestV1BlockReadCompat(t *testing.T) {
	v1 := appendBlockV1(nil, genSortedRows(7, 3*chunkRecs+917, 2*timeutil.MillisPerDay))
	_, rowErr := decodeBlock(v1)
	var cols blockCols
	colErr := decodeBlockCols(v1, live.Window{}, tagCols, &cols)
	for name, err := range map[string]error{"row decode": rowErr, "column decode": colErr} {
		if !errors.Is(err, ErrBlockCorrupt) || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("%s: %v, want a corrupt-block refusal naming version 1", name, err)
		}
	}
}

// colsRow is a decoded scan column row for comparisons.
type colsRow struct {
	time timeutil.Millis
	lat  float64
	seq  uint64
	tag  uint8
}

func filterCols(c *blockCols, win live.Window) []colsRow {
	var out []colsRow
	for i := range c.Times {
		if win.IsZero() || win.Contains(c.Times[i]) {
			out = append(out, colsRow{time: c.Times[i], lat: c.Lats[i], seq: c.Seqs[i], tag: c.tags[i]})
		}
	}
	return out
}

// TestV1BlockScanEndToEnd rewrites a real tier's block files in the
// version-1 layout (manifest untouched — readers never consult it for
// the format) and asserts the scan path refuses every one as a corrupt
// *BlockReadError naming the file and version 1: a scan skips, counts
// and quarantines them instead of serving their rows or failing.
func TestV1BlockScanEndToEnd(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	stream := genStream(23, 6000, horizon)
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

	// Re-encode every installed block as version 1 in place.
	for _, b := range s1.snapshotManifest().Blocks {
		rows, err := readBlock(s1.fs, coldDir, b.File)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(coldDir, b.File), appendBlockV1(nil, rows), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := s2.snapshotManifest().Blocks
	if len(blocks) < 2 {
		t.Fatalf("%d blocks: the tier is too small to pin the scan", len(blocks))
	}
	for i := range blocks {
		for _, win := range []live.Window{{}, {From: blocks[i].MinTime + 1}} {
			_, err := s2.scanBlock(&blocks[i], live.AllSlices, win)
			var bre *BlockReadError
			if !errors.As(err, &bre) || !bre.Corrupt() || bre.File != blocks[i].File || !strings.Contains(err.Error(), "version 1") {
				t.Fatalf("block %s win=%+v: %v, want a corrupt *BlockReadError naming version 1", blocks[i].File, win, err)
			}
		}
	}
	times, _, _, err := s2.ScanWindow(live.AllSlices, live.Window{})
	if err != nil || len(times) != 0 {
		t.Fatalf("scan over version-1 blocks: %d rows, %v; want none and no error", len(times), err)
	}
	if st := s2.Stats(); st.CorruptBlocks != uint64(len(blocks)) {
		t.Fatalf("%d corrupt blocks counted, want %d", st.CorruptBlocks, len(blocks))
	}
	if q := s2.Quarantined(); len(q) != len(blocks) {
		t.Fatalf("quarantined %v, want all %d blocks", q, len(blocks))
	}
}

// TestChunkSkipDecodeMatchesFullDecode is the codec-level property the
// windowed scan rests on: across 400 random windows over a multi-chunk
// version-2 block, the chunk-skipping column decode — window-filtered —
// is row-identical to the full row decode window-filtered, and narrow
// windows actually skip chunks (the decode returns fewer rows than the
// block holds).
func TestChunkSkipDecodeMatchesFullDecode(t *testing.T) {
	horizon := 8 * timeutil.MillisPerDay
	rows := genSortedRows(31, 6*chunkRecs+1234, horizon)
	data := appendBlock(nil, rows)
	full, err := decodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}

	src := rng.New(77)
	randT := func() timeutil.Millis { return timeutil.Millis(src.Uint64n(uint64(horizon) + 2)) }
	skipped := false
	var cols blockCols
	for trial := 0; trial < 400; trial++ {
		var win live.Window
		switch src.Intn(4) {
		case 0: // unwindowed
		case 1: // trailing
			win.From = randT()
		case 2: // narrow — the chunk-skipping payoff case
			from := randT()
			win = live.Window{From: from, To: from + horizon/256 + 1}
		case 3:
			a, b := randT(), randT()
			if a > b {
				a, b = b, a
			}
			win = live.Window{From: a, To: b + 1}
		}
		cols.reset()
		if err := decodeBlockCols(data, win, tagCols, &cols); err != nil {
			t.Fatalf("win=%+v: %v", win, err)
		}
		if len(cols.Times) < len(rows) {
			skipped = true
		}
		got := filterCols(&cols, win)
		want := 0
		for _, r := range full {
			if !win.IsZero() && !win.Contains(r.time) {
				continue
			}
			if want >= len(got) {
				t.Fatalf("win=%+v: chunk-skip decode lost rows after %d", win, want)
			}
			g := got[want]
			if g.time != r.time || g.lat != r.lat || g.seq != r.seq || g.tag != r.tag {
				t.Fatalf("win=%+v row %d: got %+v want %+v", win, want, g, r)
			}
			want++
		}
		if want != len(got) {
			t.Fatalf("win=%+v: chunk-skip decode has %d extra rows", win, len(got)-want)
		}
	}
	if !skipped {
		t.Fatal("no window ever skipped a chunk — the property holds vacuously")
	}
}
