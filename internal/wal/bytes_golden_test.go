package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"autosens/internal/owasim"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// TestWALBytesGolden pins every byte the WAL writes: a fixed owasim stream
// is appended in batches of 1, 7, 500 and 5 000 records, as JSONL and as
// TBIN, and the SHA-256 over the segment files' names and contents must
// not move. The 5 000-record batches span two 4 096-record TBIN blocks,
// and the small segment cap makes every case rotate.
func TestWALBytesGolden(t *testing.T) {
	cfg := owasim.DefaultConfig(2*timeutil.MillisPerDay, 20, 20)
	cfg.Seed = 41
	res, err := owasim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12_000
	if len(res.Records) < n {
		t.Fatalf("owasim made %d records, want at least %d", len(res.Records), n)
	}
	stream := res.Records[:n]

	want := map[string]string{
		"jsonl/1":    "3f8c0e2936e48613960f365a67037b4b8907f1321813dd88421ac43e501e6ffd",
		"jsonl/7":    "a37b987b7be9721036e73fe559165bef783c16d43f8421f3d944730a38521c40",
		"jsonl/500":  "e27eaadfc145fa6a03ccba7051f5ed5c4b9764a54c92be844916eec5647536d5",
		"jsonl/5000": "219f8fecff7cd96750d1f78ae3465d740b4c3f24a57564a6ed5558177bcbb909",
		"tbin/1":     "79a7ac379d64c33e1fbb47cc5b45d9b1b393fca8b52b70c2e3687e950e8a0447",
		"tbin/7":     "8625f21f566321102eacc1357d109838d5373b14cad0b576c7b7b516e31f708b",
		"tbin/500":   "2572e95f526a375904fb3f019c30e45214f27d97cb0a0936f4add1b76d88e760",
		"tbin/5000":  "af028f26c162c58e121776f37fd06fc2092c43e66d7ca25a2b15d123decd2c1e",
	}
	for _, format := range []telemetry.Format{telemetry.JSONL, telemetry.TBIN} {
		for _, size := range []int{1, 7, 500, 5000} {
			name := fmt.Sprintf("%v/%d", format, size)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				w, _, err := Open(Options{Dir: dir, Format: format, Sync: SyncOff, SegmentMaxBytes: 64 << 10})
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(stream); off += size {
					if err := w.Append(stream[off:min(off+size, len(stream))]); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if got := hashDir(t, dir); got != want[name] {
					t.Fatalf("segment bytes hash %s, want %s", got, want[name])
				}
			})
		}
	}
}

// hashDir hashes the name, length and contents of every file in dir, in
// name order.
func hashDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
