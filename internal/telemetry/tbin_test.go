package telemetry

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

func TestTBINRoundTrip(t *testing.T) { roundTrip(t, TBIN) }

func TestTBINRoundTripLarge(t *testing.T) {
	recs := genRecords(20000, 23) // spans multiple blocks
	var buf bytes.Buffer
	w := NewWriter(&buf, TBIN)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), TBIN)
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestTBINSmallerThanJSONL(t *testing.T) {
	recs := genRecords(10000, 29)
	var jbuf, tbuf bytes.Buffer
	for _, p := range []struct {
		w *bytes.Buffer
		f Format
	}{{&jbuf, JSONL}, {&tbuf, TBIN}} {
		w := NewWriter(p.w, p.f)
		if err := w.WriteAll(recs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if ratio := float64(jbuf.Len()) / float64(tbuf.Len()); ratio < 3 {
		t.Fatalf("TBIN only %.2fx smaller than JSONL (%d vs %d bytes), want >= 3x",
			ratio, tbuf.Len(), jbuf.Len())
	}
}

func TestTBINEmptyFlushedStreamIsValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, TBIN)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != tbinMagic {
		t.Fatalf("empty stream = %q", buf.Bytes())
	}
	rs, err := NewReader(bytes.NewReader(buf.Bytes()), TBIN).ReadAll()
	if err != nil || len(rs) != 0 {
		t.Fatalf("ReadAll = %d records, %v", len(rs), err)
	}
}

func TestTBINEmptyInputIsEmptyStream(t *testing.T) {
	rs, err := NewReader(strings.NewReader(""), TBIN).ReadAll()
	if err != nil || len(rs) != 0 {
		t.Fatalf("ReadAll = %d records, %v", len(rs), err)
	}
}

func TestTBINRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("nope"), TBIN).ReadAll(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTBINRejectsCorruption(t *testing.T) {
	recs := genRecords(100, 31)
	var buf bytes.Buffer
	w := NewWriter(&buf, TBIN)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Truncations and single-byte corruptions must error (or, for byte
	// flips in latency bits, at worst decode to different records), never
	// panic or loop.
	for cut := 0; cut < len(clean); cut += 7 {
		r := NewReader(bytes.NewReader(clean[:cut]), TBIN)
		for {
			if _, err := r.Read(); err != nil {
				break
			}
		}
		r.Close()
	}
	for i := 0; i < len(clean); i += 3 {
		mut := bytes.Clone(clean)
		mut[i] ^= 0x5a
		r := NewReader(bytes.NewReader(mut), TBIN)
		for n := 0; ; n++ {
			if _, err := r.Read(); err != nil {
				break
			}
			if n > len(recs)*2 {
				t.Fatalf("corrupt stream (byte %d) yields unbounded records", i)
			}
		}
		r.Close()
	}
}

func TestTBINSkipBlock(t *testing.T) {
	recs := genRecords(10000, 37) // > 2 blocks at 4096 records/block
	var buf bytes.Buffer
	w := NewWriter(&buf, TBIN)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()), TBIN)
	defer r.Close()
	skipped, err := r.SkipBlock()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != tbinBlockRecords {
		t.Fatalf("skipped %d records, want %d", skipped, tbinBlockRecords)
	}
	rest, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != len(recs)-skipped {
		t.Fatalf("read %d after skip, want %d", len(rest), len(recs)-skipped)
	}
	for i := range rest {
		if rest[i] != recs[skipped+i] {
			t.Fatalf("record %d after skip mismatches", i)
		}
	}

	// Skipping every block visits the whole stream.
	r2 := NewReader(bytes.NewReader(buf.Bytes()), TBIN)
	defer r2.Close()
	total := 0
	for {
		n, err := r2.SkipBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != len(recs) {
		t.Fatalf("skip-walk saw %d records, want %d", total, len(recs))
	}
}

func TestTBINSkipBlockMidBlockFails(t *testing.T) {
	recs := genRecords(10, 41)
	var buf bytes.Buffer
	w := NewWriter(&buf, TBIN)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), TBIN)
	defer r.Close()
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SkipBlock(); err == nil {
		t.Fatal("mid-block skip allowed")
	}
}

func TestSkipBlockRequiresTBIN(t *testing.T) {
	r := NewReader(strings.NewReader(""), JSONL)
	if _, err := r.SkipBlock(); err == nil {
		t.Fatal("SkipBlock on JSONL allowed")
	}
}

// CheckColumnBuild, set by the external test package (which may import
// the pipeline), requires the partition built from data's bytes on the
// decode workers to equal the one built from want, the streaming reader's
// records, or to fail with wantErr's text.
var CheckColumnBuild func(t testing.TB, data []byte, want []Record, wantErr error)

// checkDecodeTBIN requires the whole-stream decode of data, at one worker
// and at four, to give what draining the streaming reader over the same
// bytes gives: the partition built on the decode workers (CheckColumnBuild)
// and the records TBINStream.Decode hands its consumer (latency compared by
// bits, so NaN counts as equal), or an error with the same text.
func checkDecodeTBIN(t testing.TB, data []byte) {
	t.Helper()
	r := NewReader(bytes.NewReader(data), TBIN)
	want, wantErr := r.ReadAll()
	r.Close()
	if CheckColumnBuild != nil {
		CheckColumnBuild(t, data, want, wantErr)
	}
	for _, workers := range []int{1, 4} {
		got, err := decodeStream(data, workers)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("workers=%d over %q: err = %v, streaming reader says %v", workers, data, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("workers=%d over %q: %v, streaming reader decodes %d records", workers, data, err, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d records, streaming reader %d", workers, len(got), len(want))
		}
		for i := range want {
			a, b := got[i], want[i]
			if math.Float64bits(a.LatencyMS) != math.Float64bits(b.LatencyMS) {
				t.Fatalf("workers=%d record %d: latency %v, streaming reader %v", workers, i, a.LatencyMS, b.LatencyMS)
			}
			a.LatencyMS, b.LatencyMS = 0, 0
			if a != b {
				t.Fatalf("workers=%d record %d: %+v, streaming reader %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// decodeStream gathers every record SplitTBIN(data).Decode hands its
// consumer into one slice, in stream order.
func decodeStream(data []byte, workers int) ([]Record, error) {
	s := SplitTBIN(data)
	out := make([]Record, s.Records())
	err := s.Decode(workers, func(_ int, b *TBINBlock) {
		for i := b.First; ; i++ {
			rec, ok := b.Next()
			if !ok {
				return
			}
			out[i] = rec
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// tbinFixture is three blocks holding a failed record, two tz values and a
// negative time delta, and the offset of the first record's tag byte.
func tbinFixture(t *testing.T) (data []byte, firstTag int) {
	t.Helper()
	blocks := [][]Record{
		{
			{Time: 1000, Action: SelectMail, LatencyMS: 120, UserID: 7, TZOffset: -5 * 3600000},
			{Time: 900, Action: Search, LatencyMS: 340.5, UserID: 300, UserType: Consumer, TZOffset: 3600000},
			{Time: 2500, Action: ComposeSend, LatencyMS: 80, UserID: 7, TZOffset: -5 * 3600000, Failed: true},
		},
		{
			{Time: 4000, Action: SwitchFolder, LatencyMS: 95, UserID: 12, UserType: Consumer},
			{Time: 4001, Action: SelectMail, LatencyMS: 0, UserID: 1 << 40},
		},
		{
			{Time: 9000, Action: Search, LatencyMS: 2200, UserID: 300, UserType: Consumer, TZOffset: 3600000},
			{Time: 8000, Action: SelectMail, LatencyMS: 61.25, UserID: 12, TZOffset: -5 * 3600000},
			{Time: 8500, Action: SwitchFolder, LatencyMS: 150, UserID: 7, Failed: true},
		},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, TBIN)
	for _, b := range blocks {
		if err := w.WriteAll(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil { // one block per group
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data = buf.Bytes()
	walked, n, err := walkTBIN(data)
	if err != nil || len(walked) != 3 || n != 8 {
		t.Fatalf("fixture walks to %d blocks, %d records, %v", len(walked), n, err)
	}
	// The payload aliases data, so their capacities end together.
	tr := tbinReader{payload: walked[0].payload}
	if err := tr.startBlock(walked[0].count); err != nil {
		t.Fatal(err)
	}
	return data, cap(data) - cap(walked[0].payload) + tr.pos
}

// TestDecodeTBINMatchesStreamingReader: every truncation, and every
// single-bit and whole-byte flip, of a three-block stream decodes, at any worker count, to
// the streaming reader's records or its first error text.
func TestDecodeTBINMatchesStreamingReader(t *testing.T) {
	data, firstTag := tbinFixture(t)
	checkDecodeTBIN(t, data)
	for cut := 0; cut < len(data); cut++ {
		checkDecodeTBIN(t, data[:cut])
	}
	for i := range data {
		for _, mask := range []byte{1, 2, 4, 8, 16, 32, 64, 128, 0xff} {
			mut := bytes.Clone(data)
			mut[i] ^= mask
			checkDecodeTBIN(t, mut)
		}
	}

	// A record error in the first block wins over a torn third block.
	mut := bytes.Clone(data[:len(data)-1])
	mut[firstTag] = 0xff
	checkDecodeTBIN(t, mut)
	if _, err := decodeStream(mut, 4); err == nil || !strings.Contains(err.Error(), "tbin block 1: invalid tag byte") {
		t.Fatalf("err = %v, want the first block's tag error", err)
	}

	// A record failing Validate is numbered by its place in the stream.
	mut = bytes.Clone(data)
	mut[len(mut)-1] ^= 0x80 // the sign of the eighth record's latency
	checkDecodeTBIN(t, mut)
	if _, err := decodeStream(mut, 4); err == nil || !strings.Contains(err.Error(), "tbin record 8: telemetry: negative latency") {
		t.Fatalf("err = %v, want record 8's validation error", err)
	}

	for _, empty := range []string{"", tbinMagic} {
		if rs, err := decodeStream([]byte(empty), 0); err != nil || len(rs) != 0 {
			t.Fatalf("decoding %q: %d records, %v", empty, len(rs), err)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, f := range []Format{JSONL, CSV, TBIN} {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("protobuf"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
