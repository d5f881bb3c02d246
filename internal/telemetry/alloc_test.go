//go:build !race

package telemetry

import (
	"bytes"
	"testing"
)

// Allocation-pinning tests: the hot decode loops must not allocate per
// record. Budgets are small fixed counts (reader construction, pooled
// buffer misses) that do not scale with the 5000-record input; a
// per-record regression would blow past them by orders of magnitude.
// Excluded under -race because the race runtime changes allocation
// behavior.

func decodeAllocsPerRun(t *testing.T, data []byte, format Format, want int) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		r := NewReader(bytes.NewReader(data), format)
		n := 0
		for {
			if _, err := r.Read(); err != nil {
				break
			}
			n++
		}
		r.Close()
		if n != want {
			t.Fatalf("decoded %d want %d", n, want)
		}
	})
}

func TestDecodeJSONLFastAllocsPinned(t *testing.T) {
	recs := genRecords(5000, 19)
	var buf bytes.Buffer
	w := NewWriter(&buf, JSONL)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := decodeAllocsPerRun(t, buf.Bytes(), JSONL, len(recs)); got > 16 {
		t.Fatalf("JSONL decode of %d records allocates %.0f times, want fixed overhead only", len(recs), got)
	}
}

func TestDecodeTBINAllocsPinned(t *testing.T) {
	recs := genRecords(5000, 19)
	var buf bytes.Buffer
	w := NewWriter(&buf, TBIN)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := decodeAllocsPerRun(t, buf.Bytes(), TBIN, len(recs)); got > 16 {
		t.Fatalf("TBIN decode of %d records allocates %.0f times, want fixed overhead only", len(recs), got)
	}
}

func TestEncodeJSONLFastAllocsPinned(t *testing.T) {
	recs := genRecords(5000, 19)
	sink := bytes.NewBuffer(make([]byte, 0, 1<<20))
	got := testing.AllocsPerRun(10, func() {
		sink.Reset()
		w := NewWriter(sink, JSONL)
		if err := w.WriteAll(recs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 16 {
		t.Fatalf("JSONL encode of %d records allocates %.0f times, want fixed overhead only", len(recs), got)
	}
}

// TestUserMediansAllocsBounded checks the rewrite's claim: allocation count
// is a function of the distinct-user count, not the record count. Doubling
// records at a fixed user population must not double allocations.
func TestUserMediansAllocsBounded(t *testing.T) {
	small := genRecords(10000, 19)
	large := append(append([]Record(nil), small...), genRecords(10000, 23)...)
	aSmall := testing.AllocsPerRun(5, func() { recordMedians(small) })
	aLarge := testing.AllocsPerRun(5, func() { recordMedians(large) })
	if aLarge > aSmall*1.5+16 {
		t.Fatalf("per-user medians' allocs scale with records: %d recs -> %.0f allocs, %d recs -> %.0f allocs",
			len(small), aSmall, len(large), aLarge)
	}
}
