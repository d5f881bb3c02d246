package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// encodeAll writes recs in the given format and returns the raw stream.
func encodeAll(b *testing.B, recs []Record, format Format) []byte {
	b.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, format)
	if err := w.WriteAll(recs); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkDecodeJSONLStdlib is the pre-optimization baseline: the exact
// scanner + json.Unmarshal loop the Reader used before the fast path.
func BenchmarkDecodeJSONLStdlib(b *testing.B) {
	recs := genRecords(5000, 3)
	data := encodeAll(b, recs, JSONL)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := bufio.NewScanner(bytes.NewReader(data))
		n := 0
		for sc.Scan() {
			var rec Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if n != len(recs) {
			b.Fatalf("decoded %d want %d", n, len(recs))
		}
	}
}

func benchmarkDecode(b *testing.B, format Format) {
	recs := genRecords(5000, 3)
	data := encodeAll(b, recs, format)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data), format)
		n := 0
		for {
			if _, err := r.Read(); err != nil {
				break
			}
			n++
		}
		r.Close()
		if n != len(recs) {
			b.Fatalf("decoded %d want %d", n, len(recs))
		}
	}
}

func BenchmarkDecodeJSONLFast(b *testing.B) { benchmarkDecode(b, JSONL) }
func BenchmarkDecodeTBIN(b *testing.B)      { benchmarkDecode(b, TBIN) }

// BenchmarkDecodeTBINWhole decodes the same stream as BenchmarkDecodeTBIN
// from memory, block-parallel through TBINStream.Decode into one record
// slice (allocation included); and a 320 k-record stream, whose 79 blocks
// give the workers=2 row something to split.
func BenchmarkDecodeTBINWhole(b *testing.B) {
	for _, n := range []int{5000, 320_000} {
		recs := genRecords(n, 3)
		data := encodeAll(b, recs, TBIN)
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("workers=%d", workers)
			if n != 5000 {
				name = fmt.Sprintf("records=%d/%s", n, name)
			}
			benchmarkDecodeWhole(b, name, data, workers, len(recs))
		}
	}
}

func benchmarkDecodeWhole(b *testing.B, name string, data []byte, workers, records int) {
	b.Run(name, func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := decodeStream(data, workers)
			if err != nil || len(got) != records {
				b.Fatalf("decoded %d want %d: %v", len(got), records, err)
			}
		}
	})
}

// BenchmarkEncodeJSONLStdlib is the pre-optimization baseline: one
// json.Marshal per record, as the Writer did before AppendRecordJSON.
func BenchmarkEncodeJSONLStdlib(b *testing.B) {
	recs := genRecords(5000, 5)
	b.ReportAllocs()
	b.ResetTimer()
	var bytesOut int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				b.Fatal(err)
			}
			bw.Write(line)
			bw.WriteByte('\n')
		}
		bw.Flush()
		bytesOut = int64(buf.Len())
	}
	b.SetBytes(bytesOut)
}

func benchmarkEncode(b *testing.B, format Format) {
	recs := genRecords(5000, 5)
	b.ReportAllocs()
	b.ResetTimer()
	var bytesOut int64
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf, format)
		if err := w.WriteAll(recs); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		bytesOut = int64(buf.Len())
	}
	b.SetBytes(bytesOut)
}

func BenchmarkEncodeJSONLFast(b *testing.B) { benchmarkEncode(b, JSONL) }
func BenchmarkEncodeTBIN(b *testing.B)      { benchmarkEncode(b, TBIN) }

func BenchmarkUserMedians(b *testing.B) {
	recs := genRecords(20000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := recordMedians(recs); len(m.ids) == 0 {
			b.Fatal("no medians")
		}
	}
}

func BenchmarkAssignQuartiles(b *testing.B) {
	recs := genRecords(20000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AssignQuartiles(recs); err != nil {
			b.Fatal(err)
		}
	}
}
