package cluster

import (
	"path/filepath"
	"testing"

	"autosens/internal/live"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// writeWAL appends the stream into a WAL directory in small batches,
// rotating often so the handoff moves several segments.
func writeWAL(t *testing.T, dir string, stream []telemetry.Record) {
	t.Helper()
	w, _, err := wal.Open(wal.Options{Dir: dir, SegmentMaxBytes: 32 << 10, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(stream); lo += 250 {
		hi := lo + 250
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := w.Append(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHandoffSegments pins the membership-change data path: handed-off
// segments land renumbered after the destination's own history, the
// combined directory replays source-then... destination-then-source, and
// a Warm replay over it under the new ring's ownership predicate keeps
// exactly the records that ring assigns to the recovering node.
func TestHandoffSegments(t *testing.T) {
	srcDir := filepath.Join(t.TempDir(), "src")
	dstDir := filepath.Join(t.TempDir(), "dst")
	srcStream := genStream(11, 3000, timeutil.MillisPerDay)
	dstStream := genStream(12, 2000, timeutil.MillisPerDay)
	writeWAL(t, srcDir, srcStream)
	writeWAL(t, dstDir, dstStream)

	srcSegs, err := wal.Segments(nil, srcDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcSegs) < 2 {
		t.Fatalf("want multiple source segments, got %d", len(srcSegs))
	}
	dstBefore, err := wal.Segments(nil, dstDir)
	if err != nil {
		t.Fatal(err)
	}

	n, err := HandoffSegments(wal.OSFS(), srcDir, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(srcSegs) {
		t.Fatalf("handed off %d segments, want %d", n, len(srcSegs))
	}
	dstAfter, err := wal.Segments(nil, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dstAfter) != len(dstBefore)+len(srcSegs) {
		t.Fatalf("destination has %d segments, want %d", len(dstAfter), len(dstBefore)+len(srcSegs))
	}
	// Renumbering: every original destination segment must still exist
	// under its own name (nothing clobbered).
	have := map[string]bool{}
	for _, name := range dstAfter {
		have[name] = true
	}
	for _, name := range dstBefore {
		if !have[name] {
			t.Fatalf("destination segment %s clobbered by handoff", name)
		}
	}

	// Replay order is destination history first, handed-off history after.
	var replayed []telemetry.Record
	if err := wal.Replay(nil, dstDir, func(r telemetry.Record) error {
		replayed = append(replayed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantOrder := append(append([]telemetry.Record(nil), dstStream...), srcStream...)
	if len(replayed) != len(wantOrder) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(wantOrder))
	}
	for i := range wantOrder {
		if replayed[i] != wantOrder[i] {
			t.Fatalf("record %d differs after handoff", i)
		}
	}

	// A recovering node warms from the combined directory under its
	// ownership filter and holds exactly its owned records.
	owns := func(u uint64) bool { return u%3 == 0 }
	e := newEngine(t, owns)
	replayedN, err := e.Warm(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if replayedN != len(wantOrder) {
		t.Fatalf("warm replayed %d records, want %d", replayedN, len(wantOrder))
	}
	wantOwned := 0
	for _, r := range wantOrder {
		if owns(r.UserID) && !r.Failed && r.Validate() == nil {
			wantOwned++
		}
	}
	res, err := e.Query(live.AllSlices, live.ModePlain, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != wantOwned {
		t.Fatalf("owned records after warm: %d, want %d", res.Records, wantOwned)
	}
}

// TestHandoffEmptySource is a no-op, not an error.
func TestHandoffEmptySource(t *testing.T) {
	srcDir := t.TempDir()
	dstDir := filepath.Join(t.TempDir(), "fresh-dst")
	n, err := HandoffSegments(wal.OSFS(), srcDir, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("handed off %d segments from empty source", n)
	}
}
