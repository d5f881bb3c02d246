package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"autosens/internal/timeutil"
)

// writerStream is the reference the append form must equal: the bytes
// NewWriter, WriteAll and Close produce for rs, or the first error.
func writerStream(rs []Record) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf, TBIN)
	err := w.WriteAll(rs)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return buf.Bytes(), err
}

// checkAppendMatchesWriter encodes rs with enc after a prefix and requires
// the writer's bytes after an untouched prefix, or the writer's error text
// with the prefix alone.
func checkAppendMatchesWriter(t *testing.T, enc *TBINEncoder, rs []Record) {
	t.Helper()
	want, wantErr := writerStream(rs)
	prefix := []byte("frame header")
	got, err := enc.Append(bytes.Clone(prefix), rs)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%d records: prefix overwritten", len(rs))
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%d records: error %v, writer says %v", len(rs), err, wantErr)
	}
	if err != nil {
		if len(got) != len(prefix) {
			t.Fatalf("%d records: failed append left %d bytes", len(rs), len(got)-len(prefix))
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%d records: append form differs from the writer (%d vs %d bytes)", len(rs), len(got)-len(prefix), len(want))
	}
}

func TestTBINEncoderMatchesWriter(t *testing.T) {
	var enc TBINEncoder // one encoder across every case, as the WAL keeps one
	bulky := genRecords(3000, 5)
	for i := range bulky {
		bulky[i].UserID = math.MaxUint64 - uint64(i) // 10-byte varints: blocks close on bytes
		bulky[i].Time *= 1 << 30
	}
	invalid := genRecords(5000, 6)
	invalid[4500].LatencyMS = -1
	for _, rs := range [][]Record{
		nil, genRecords(1, 1), genRecords(7, 2), genRecords(500, 3),
		genRecords(4096, 4), genRecords(4097, 4), genRecords(10000, 4),
		bulky, invalid, genRecords(3, 7),
	} {
		checkAppendMatchesWriter(t, &enc, rs)
	}
}

// fuzzRecords builds n records from data, 20 bytes a record, cycling over
// data with the time advancing, so n can exceed what data spells out. A
// few byte values make an invalid action, user type or latency.
func fuzzRecords(data []byte, n int) []Record {
	const size = 20
	if len(data) < size {
		data = append(bytes.Clone(data), make([]byte, size-len(data))...)
	}
	k := len(data) / size
	out := make([]Record, n)
	for i := range out {
		c := data[i%k*size:]
		r := Record{
			Time:      timeutil.Millis(int64(int32(binary.LittleEndian.Uint32(c))) + int64(i)*37),
			Action:    ActionType(c[4] % 4),
			LatencyMS: math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(c[5:]))),
			UserID:    uint64(binary.LittleEndian.Uint16(c[13:])) << (c[15] % 56),
			UserType:  UserType(c[16] % 2),
			TZOffset:  timeutil.Millis(int8(c[17])) * 15 * timeutil.MillisPerMinute,
			Failed:    c[18]&1 != 0,
		}
		switch c[19] {
		case 0xff:
			r.LatencyMS = -r.LatencyMS - 1
		case 0xfe:
			r.Action = ActionType(NumActionTypes)
		case 0xfd:
			r.UserType = -1
		case 0xfc:
			r.TZOffset = timeutil.Millis(binary.LittleEndian.Uint64(c[5:]))
		}
		out[i] = r
	}
	return out
}

// FuzzTBINAppendMatchesWriter checks the append form against the Writer for
// arbitrary record slices, invalid records and multi-block streams
// included, with one encoder reused across a first, shorter stream.
func FuzzTBINAppendMatchesWriter(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5}, 8), uint16(7))
	f.Add(bytes.Repeat([]byte{9, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0x40, 0x8f, 0x40, 0xff, 0xff, 40, 1, 0x80, 1, 0xfc}, 2), uint16(5000))
	f.Add(append(make([]byte, 60), 0xff), uint16(4097))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		rs := fuzzRecords(data, int(n)%10000)
		var enc TBINEncoder
		_, _ = enc.Append(nil, rs[len(rs)/3:]) // state, or a failure, left behind
		checkAppendMatchesWriter(t, &enc, rs)
	})
}

// drain reads r to its end and returns the records read and the error
// that ended the stream (nil for a clean end).
func drain(r *Reader) ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// sameRecords compares two decodes, latency by bits so NaN counts as equal.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.LatencyMS) != math.Float64bits(y.LatencyMS) {
			return false
		}
		x.LatencyMS, y.LatencyMS = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// checkResetMatchesFresh runs one reader per format over every body in
// turn, reset between bodies, and requires each body to decode exactly as
// under a fresh reader: the same records, then the same error text. Every
// body is then read again only part way, so the next reset starts from a
// reader stopped mid-block, as a beacon refused at the record limit
// leaves it.
func checkResetMatchesFresh(t *testing.T, bodies [][]byte) {
	t.Helper()
	for _, format := range []Format{TBIN, JSONL, CSV} {
		reused := NewReader(nil, format)
		for i, body := range bodies {
			fresh := NewReader(bytes.NewReader(body), format)
			want, wantErr := drain(fresh)
			fresh.Close()
			reused.Reset(bytes.NewReader(body))
			got, err := drain(reused)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameRecords(got, want) {
				t.Fatalf("%v body %d: reset reader read %d records, %v; fresh reader %d, %v",
					format, i, len(got), err, len(want), wantErr)
			}
			reused.Reset(bytes.NewReader(body))
			for j := 0; j < len(body)%5; j++ {
				if _, err := reused.Read(); err != nil {
					break
				}
			}
		}
		reused.Close()
	}
}

// FuzzReaderResetMatchesFresh splits its input into bodies at a two-byte
// separator and checks that one reader, reset from body to body, decodes
// each exactly as a fresh reader does: no dictionary, time base, header,
// line or block number carries over from one stream into the next.
func FuzzReaderResetMatchesFresh(f *testing.F) {
	sep := []byte{0xa5, 0x5a}
	stream := func(rs []Record, cuts ...int) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, TBIN)
		for i, r := range rs {
			if err := w.Write(r); err != nil {
				f.Fatal(err)
			}
			for _, c := range cuts {
				if c == i+1 {
					if err := w.Flush(); err != nil {
						f.Fatal(err)
					}
				}
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := stream(genRecords(9, 1), 4), stream(genRecords(6, 2))
	f.Add(bytes.Join([][]byte{a, b, a[:len(a)-2], []byte(tbinMagic), nil, b}, sep))
	f.Add(bytes.Join([][]byte{a, []byte("TBN2"), b, append(bytes.Clone(b), 0, 5)}, sep))
	f.Add(bytes.Join([][]byte{[]byte(`{"t":1,"a":0,"l":5,"u":1,"ut":0,"tz":0}` + "\n"), []byte("{\"t\":"), b}, sep))
	f.Add(bytes.Join([][]byte{[]byte("time_ms,action,latency_ms,user_id,user_type,tz_offset_ms,failed\n1,SelectMail,5,1,business,0,false\n"), a}, sep))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResetMatchesFresh(t, bytes.Split(data, sep))
	})
}

func TestReaderResetMatchesFresh(t *testing.T) {
	var bodies [][]byte
	for _, rs := range [][]Record{genRecords(5000, 1), genRecords(3, 2), genRecords(4097, 3)} {
		body, err := writerStream(rs)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body, body[:len(body)/2], body[:len(body)-1])
	}
	checkResetMatchesFresh(t, bodies)
}
