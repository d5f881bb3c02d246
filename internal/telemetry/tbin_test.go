package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// decode workers to equal the one built from want, the reference decoder's
// records, or to fail with wantErr's text.
var CheckColumnBuild func(t testing.TB, data []byte, want []Record, wantErr error)

// checkDecodeTBIN holds every TBIN consumer to the reference decoder
// (refDecodeTBIN) over data: the streaming Reader must hand out the same
// records and then fail with the same text after the same number of
// records; the whole-stream decode at one worker and at four, and the
// partition built on the decode workers (CheckColumnBuild), must give the
// same records or an error with the same text. Latencies compare by bits,
// so NaN counts as equal.
func checkDecodeTBIN(t testing.TB, data []byte) {
	t.Helper()
	want, wantErr := refDecodeTBIN(data)
	r := NewReader(bytes.NewReader(data), TBIN)
	var streamed []Record
	for {
		rec, err := r.Read()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("streaming reader over %q: err = %v after %d records, reference says %v after %d", data, err, len(streamed), wantErr, len(want))
			}
			break
		}
		if len(streamed) == len(want) {
			t.Fatalf("streaming reader over %q: record %d past the reference's %d (then %v)", data, len(streamed)+1, len(want), wantErr)
		}
		streamed = append(streamed, rec)
	}
	r.Close()
	requireSameRecords(t, "streaming reader", streamed, want)
	if CheckColumnBuild != nil {
		CheckColumnBuild(t, data, want, wantErr)
	}
	for _, workers := range []int{1, 4} {
		got, err := decodeStream(data, workers)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("workers=%d over %q: err = %v, reference says %v", workers, data, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("workers=%d over %q: %v, reference decodes %d records", workers, data, err, len(want))
		}
		requireSameRecords(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// requireSameRecords requires got to equal want record for record, the
// latencies compared by bits.
func requireSameRecords(t testing.TB, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, reference %d", what, len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if math.Float64bits(a.LatencyMS) != math.Float64bits(b.LatencyMS) {
			t.Fatalf("%s record %d: latency %v, reference %v", what, i, a.LatencyMS, b.LatencyMS)
		}
		a.LatencyMS, b.LatencyMS = 0, 0
		if a != b {
			t.Fatalf("%s record %d: %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// decodeStream gathers every record SplitTBIN(data).Decode hands its
// consumer into one slice, in stream order.
func decodeStream(data []byte, workers int) ([]Record, error) {
	s := SplitTBIN(data)
	out := make([]Record, s.Records())
	err := s.Decode(workers, func(_ int, c *TBINColumns) {
		for i := range c.Len() {
			out[c.First+i] = c.Record(i)
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
	// The payload aliases data, so their capacities end together; the
	// first tag byte follows the tz dictionary.
	p := walked[0].payload
	dictLen, pos := binary.Uvarint(p)
	for range dictLen {
		_, n := binary.Varint(p[pos:])
		pos += n
	}
	return data, cap(data) - cap(p) + pos
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

	// On a block's last record, trailing payload bytes are reported before
	// the record's negative latency.
	payload := []byte{1, 0, 0, 0, 1, 0} // a one-entry tz dictionary, then tag, delta, user, tz
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(-1))
	payload = append(payload, 0)
	trailing := binary.AppendUvarint(binary.AppendUvarint([]byte(tbinMagic), 1), uint64(len(payload)))
	trailing = append(trailing, payload...)
	checkDecodeTBIN(t, trailing)
	if _, err := decodeStream(trailing, 1); err == nil || !strings.HasSuffix(err.Error(), "tbin block 1: 1 trailing payload bytes") {
		t.Fatalf("err = %v, want the trailing bytes reported", err)
	}

	for _, empty := range []string{"", tbinMagic} {
		if rs, err := decodeStream([]byte(empty), 0); err != nil || len(rs) != 0 {
			t.Fatalf("decoding %q: %d records, %v", empty, len(rs), err)
		}
	}
}

// longFrame is a stream of one frame declaring n records, more than an
// encoder puts in a block, with trailing bytes after them: record i is of
// user i%300, a millisecond after the one before, with latency lat(i).
func longFrame(n, trailing int, lat func(i int) float64) []byte {
	payload := []byte{1, 0} // a one-entry tz dictionary: offset 0
	for i := range n {
		payload = append(payload, byte(i%4))
		payload = binary.AppendVarint(payload, 1)
		payload = binary.AppendUvarint(payload, uint64(i%300))
		payload = append(payload, 0)
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(lat(i)))
	}
	payload = append(payload, make([]byte, trailing)...)
	data := binary.AppendUvarint([]byte(tbinMagic), uint64(n))
	data = binary.AppendUvarint(data, uint64(len(payload)))
	return append(data, payload...)
}

// TestReaderDecodesLongFrameInPieces: the streaming reader decodes a frame
// declaring more records than an encoder's block a block's worth at a
// time, so its columns never outgrow one, yet hands out the reference's
// records and errors, numbered across the pieces.
func TestReaderDecodesLongFrameInPieces(t *testing.T) {
	n := 2*tbinBlockRecords + 100
	latency := func(i int) float64 { return float64(i) }
	data := longFrame(n, 0, latency)
	checkDecodeTBIN(t, data)
	checkDecodeTBIN(t, data[:len(data)-1])
	checkDecodeTBIN(t, longFrame(n, 1, latency))
	for _, bad := range []int{0, tbinBlockRecords - 1, tbinBlockRecords, 2*tbinBlockRecords + 50, n - 1} {
		bad := longFrame(n, 0, func(i int) float64 {
			if i == bad {
				return -1
			}
			return float64(i)
		})
		checkDecodeTBIN(t, bad)
		// A record error ends its block: the next read is the stream's end.
		r := NewReader(bytes.NewReader(bad), TBIN)
		for {
			if _, err := r.Read(); err != nil {
				break
			}
		}
		if _, err := r.Read(); err != io.EOF {
			t.Fatalf("read after the record error: %v, want EOF", err)
		}
		r.Close()
	}

	r := NewReader(bytes.NewReader(data), TBIN)
	defer r.Close()
	for i := range n {
		if _, err := r.Read(); err != nil {
			t.Fatalf("record %d: %v", i+1, err)
		}
		if c := cap(r.tbin.cols.Times); c > tbinBlockRecords {
			t.Fatalf("record %d: columns hold %d records, more than a block's %d", i+1, c, tbinBlockRecords)
		}
		if i == tbinBlockRecords-1 { // the first piece is handed out, not the block
			_, err := r.SkipBlock()
			if want := fmt.Sprintf("(%d records pending)", n-tbinBlockRecords); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("skip after the first piece: err = %v, want %s", err, want)
			}
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after the frame: err = %v, want EOF", err)
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
