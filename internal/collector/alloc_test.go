//go:build !race

package collector

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"runtime"
	"testing"

	"autosens/internal/telemetry"
)

// TestTBINBeaconDecodeAllocsPinned pins a 500-record beacon decode through
// the pooled TBIN reader: the reader's input buffer and block payload are
// reused, so a decode allocates only a small fixed count and no codec
// buffer. Excluded under -race, which changes allocation behavior.
func TestTBINBeaconDecodeAllocsPinned(t *testing.T) {
	srv, _, _ := newTestServer(t)
	body := tbinBody(t, testRecords(500))
	dst := make([]telemetry.Record, 0, 512)
	in := bytes.NewReader(body)
	decode := func() {
		in.Reset(body)
		batch, status, _, msg := srv.readBatchTBIN(in, dst[:0])
		if status != 0 || len(batch) != 500 {
			t.Fatalf("decoded %d records, status %d %s", len(batch), status, msg)
		}
	}
	decode() // fill the pool
	allocs, perDecode := steadyAllocs(decode)
	if allocs > 2 || perDecode > 1<<10 {
		t.Fatalf("500-record TBIN beacon decode allocates %.0f times, %d bytes; want at most 2 and 1 KiB", allocs, perDecode)
	}
}

// TestTBINMaxFrameBeaconDecodeBounded sends one frame as large as a beacon
// body may be, declaring as many 12-byte records as fit in it, through the
// pooled TBIN reader. The reader decodes a block's worth of records at a
// time and stops at the batch's record cap, so past the payload itself a
// request costs only a block's columns, not columns for every record the
// frame declares.
func TestTBINMaxFrameBeaconDecodeBounded(t *testing.T) {
	srv, _, _ := newTestServer(t)
	const header = len("TBN1") + 3 + 4 // magic, count and length varints
	count := (DefaultMaxBatchBytes - header - 2) / 12
	payload := []byte{1, 0} // a one-entry tz dictionary: offset 0
	for range count {
		payload = append(payload, 0, 0, 1, 0) // tag, time delta, user, tz index
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(1))
	}
	body := binary.AppendUvarint([]byte("TBN1"), uint64(count))
	body = binary.AppendUvarint(body, uint64(len(payload)))
	body = append(body, payload...)
	if len(body) > DefaultMaxBatchBytes {
		t.Fatalf("body of %d bytes exceeds %d", len(body), DefaultMaxBatchBytes)
	}
	dst := make([]telemetry.Record, 0, DefaultMaxBatchRecords)
	in := bytes.NewReader(body)
	decode := func() {
		in.Reset(body)
		if _, status, _, msg := srv.readBatchTBIN(in, dst[:0]); status != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d %s, want 413", status, msg)
		}
	}
	_, perDecode := steadyAllocs(decode)
	if limit := uint64(len(body)) + 1<<20; perDecode > limit {
		t.Fatalf("a %d-byte frame of %d records costs %d bytes to decode; want at most %d", len(body), count, perDecode, limit)
	}
}

// TestTBINLongDictionaryBeaconDecodeBounded sends one frame as large as a
// beacon body may be, holding one record behind a tz dictionary of every
// byte left: a dictionary longer than its block's record count is refused
// before any entry is decoded, so the request costs at most its body and a
// little more, and answers 400.
func TestTBINLongDictionaryBeaconDecodeBounded(t *testing.T) {
	srv, _, _ := newTestServer(t)
	const header = len("TBN1") + 1 + 4 + 4 // magic, count, length and dictionary-length varints
	record := []byte{0, 0, 1, 0}           // tag, time delta, user, tz index
	record = binary.LittleEndian.AppendUint64(record, math.Float64bits(1))
	dictLen := DefaultMaxBatchBytes - header - len(record)
	payload := binary.AppendUvarint(nil, uint64(dictLen))
	payload = append(payload, make([]byte, dictLen)...) // offset 0, dictLen times
	payload = append(payload, record...)
	body := binary.AppendUvarint([]byte("TBN1"), 1)
	body = binary.AppendUvarint(body, uint64(len(payload)))
	body = append(body, payload...)
	if len(body) > DefaultMaxBatchBytes {
		t.Fatalf("body of %d bytes exceeds %d", len(body), DefaultMaxBatchBytes)
	}
	dst := make([]telemetry.Record, 0, DefaultMaxBatchRecords)
	in := bytes.NewReader(body)
	decode := func() {
		in.Reset(body)
		if _, status, _, msg := srv.readBatchTBIN(in, dst[:0]); status != http.StatusBadRequest {
			t.Fatalf("status %d %s, want 400", status, msg)
		}
	}
	_, perDecode := steadyAllocs(decode)
	if limit := uint64(len(body)) + 1<<20; perDecode > limit {
		t.Fatalf("a %d-byte frame with a %d-entry dictionary costs %d bytes to decode; want at most %d",
			len(body), dictLen, perDecode, limit)
	}
}

// steadyAllocs returns f's allocations and bytes allocated per call, the
// least of five measurements: the counters are process-wide, so a
// goroutine an earlier test left winding down can only add to them.
func steadyAllocs(f func()) (allocs float64, bytes uint64) {
	const runs = 50
	allocs, bytes = math.Inf(1), math.MaxUint64
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := testing.AllocsPerRun(runs, f)
		runtime.ReadMemStats(&after)
		allocs = min(allocs, a)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/(runs+1)) // AllocsPerRun adds a warm-up run
	}
	return allocs, bytes
}
