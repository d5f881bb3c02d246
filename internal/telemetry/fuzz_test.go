package telemetry

import (
	"bytes"
	"io"
	"math"
	"testing"

	"autosens/internal/timeutil"
)

// FuzzRecordRoundTrip drives arbitrary records through every codec and
// requires the decoded record to match the input bit for bit.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(0), 0, 312.5, uint64(42), 0, int64(-18000000), false)
	f.Add(int64(99999), 3, 45.25, uint64(1)<<60, 1, int64(3600000), true)
	f.Add(int64(-5), 1, 0.0, uint64(math.MaxUint64), 1, int64(math.MaxInt64), false)
	f.Add(int64(math.MinInt64), 2, 1e-9, uint64(0), 0, int64(0), true)
	f.Fuzz(func(t *testing.T, tm int64, action int, latency float64, user uint64, utype int, tz int64, failed bool) {
		rec := Record{
			Time:      timeutil.Millis(tm),
			Action:    ActionType(action),
			LatencyMS: latency,
			UserID:    user,
			UserType:  UserType(utype),
			TZOffset:  timeutil.Millis(tz),
			Failed:    failed,
		}
		if rec.Validate() != nil {
			return // writers reject invalid records; nothing to round-trip
		}
		for _, format := range []Format{JSONL, CSV, TBIN} {
			var buf bytes.Buffer
			w := NewWriter(&buf, format)
			err := w.Write(rec)
			if format == JSONL && (math.IsNaN(latency) || math.IsInf(latency, 0)) {
				if err == nil {
					t.Fatalf("%v: non-finite latency encoded", format)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v: write: %v", format, err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("%v: close: %v", format, err)
			}
			r := NewReader(bytes.NewReader(buf.Bytes()), format)
			got, err := r.Read()
			if err != nil {
				t.Fatalf("%v: read back %q: %v", format, buf.Bytes(), err)
			}
			if _, err := r.Read(); err != io.EOF {
				t.Fatalf("%v: trailing data after one record: %v", format, err)
			}
			r.Close()
			// Compare latency by bits so NaN (TBIN-only) round-trips count
			// as equal.
			a, b := got, rec
			if math.Float64bits(a.LatencyMS) != math.Float64bits(b.LatencyMS) {
				t.Fatalf("%v: latency %v -> %v", format, rec.LatencyMS, got.LatencyMS)
			}
			a.LatencyMS, b.LatencyMS = 0, 0
			if a != b {
				t.Fatalf("%v: round trip %+v -> %+v", format, rec, got)
			}
		}
	})
}

// FuzzReaderNoCrash feeds arbitrary bytes to every Reader and requires
// termination without panics: malformed input must never take down the
// collector. The fast JSONL path additionally must agree with
// encoding/json whenever it claims success, and the whole-stream TBIN
// decode and the column build with the streaming TBIN reader: the same
// records or the same error text.
func FuzzReaderNoCrash(f *testing.F) {
	f.Add([]byte(`{"t":1,"a":0,"l":5,"u":1,"ut":0,"tz":0}` + "\n"))
	f.Add([]byte("time_ms,action,latency_ms,user_id,user_type,tz_offset_ms,failed\n1,SelectMail,5,1,business,0,false\n"))
	f.Add([]byte(tbinMagic))
	f.Add([]byte(tbinMagic + "\x01\x03\x00ab"))
	f.Add([]byte("{\"t\":"))
	var blocks bytes.Buffer // two small TBIN blocks
	w := NewWriter(&blocks, TBIN)
	for _, part := range [][]Record{genRecords(3, 1), genRecords(4, 2)} {
		if err := w.WriteAll(part); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(blocks.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{JSONL, CSV, TBIN} {
			r := NewReader(bytes.NewReader(data), format)
			for reads := 0; ; reads++ {
				_, err := r.Read()
				if err != nil {
					break
				}
				if reads > len(data)+1 {
					t.Fatalf("%v: more records than input bytes", format)
				}
			}
			r.Close()
		}
		checkDecodeTBIN(t, data)
	})
}
