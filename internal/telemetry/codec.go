package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"autosens/internal/timeutil"
)

// Format selects a wire/file encoding for telemetry records.
type Format int

// Supported formats.
const (
	// JSONL encodes one JSON object per line; it is the default log
	// format, mirroring structured web-access logs. Encoding and decoding
	// run on a hand-rolled allocation-free fast path that is
	// byte-compatible with encoding/json (the decoder falls back to the
	// stdlib on shapes it does not recognize).
	JSONL Format = iota
	// CSV encodes a header row plus one comma-separated row per record.
	CSV
	// TBIN is the compact binary format: block-framed, varint-delta
	// times, dictionary-coded enums. See tbin.go for the layout. It is
	// typically >5x smaller than JSONL and decodes without per-record
	// allocations.
	TBIN
)

// String implements fmt.Stringer with the names ParseFormat accepts.
func (f Format) String() string {
	switch f {
	case JSONL:
		return "jsonl"
	case CSV:
		return "csv"
	case TBIN:
		return "tbin"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat converts a -format flag value into a Format. "json" is an
// alias for jsonl, matching the wire encoding's name.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "jsonl", "json":
		return JSONL, nil
	case "csv":
		return CSV, nil
	case "tbin":
		return TBIN, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown format %q (want jsonl, csv or tbin)", s)
	}
}

// csvHeader is the column layout of the CSV format.
var csvHeader = []string{"time_ms", "action", "latency_ms", "user_id", "user_type", "tz_offset_ms", "failed"}

// Writer streams records to an underlying io.Writer in a fixed format.
// Close (or at least Flush) must be called to drain buffers; Close also
// returns the Writer's pooled scratch buffers.
type Writer struct {
	format  Format
	buf     *bufio.Writer
	csvw    *csv.Writer
	scratch []byte // pooled JSONL line or TBIN frame buffer
	tbin    *TBINEncoder
	wrote   bool
	count   int
}

// NewWriter returns a Writer emitting the given format to w.
func NewWriter(w io.Writer, format Format) *Writer {
	tw := &Writer{format: format, buf: bufio.NewWriterSize(w, 1<<16)}
	switch format {
	case CSV:
		tw.csvw = csv.NewWriter(tw.buf)
	case TBIN:
		tw.tbin = &TBINEncoder{block: getBuf()}
		tw.scratch = getBuf()
	default:
		tw.scratch = getBuf()
	}
	return tw
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	switch w.format {
	case JSONL:
		line, err := AppendRecordJSON(w.scratch[:0], r)
		if err != nil {
			return err
		}
		w.scratch = append(line, '\n')
		if _, err := w.buf.Write(w.scratch); err != nil {
			return err
		}
	case CSV:
		if !w.wrote {
			if err := w.csvw.Write(csvHeader); err != nil {
				return err
			}
		}
		row := []string{
			strconv.FormatInt(int64(r.Time), 10),
			r.Action.String(),
			strconv.FormatFloat(r.LatencyMS, 'g', -1, 64),
			strconv.FormatUint(r.UserID, 10),
			r.UserType.String(),
			strconv.FormatInt(int64(r.TZOffset), 10),
			strconv.FormatBool(r.Failed),
		}
		if err := w.csvw.Write(row); err != nil {
			return err
		}
	case TBIN:
		w.scratch = w.tbin.add(w.scratch[:0], r)
		if _, err := w.buf.Write(w.scratch); err != nil {
			return err
		}
	default:
		return fmt.Errorf("telemetry: unknown format %d", w.format)
	}
	w.wrote = true
	w.count++
	observeEncoded(1)
	return nil
}

// WriteAll appends every record in rs.
func (w *Writer) WriteAll(rs []Record) error {
	for _, r := range rs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.count }

// Flush drains buffered output to the underlying writer. For TBIN this
// frames and emits the partially filled block (and the stream header, so
// an empty flushed stream is still a valid TBIN file).
func (w *Writer) Flush() error {
	if w.csvw != nil {
		w.csvw.Flush()
		if err := w.csvw.Error(); err != nil {
			return err
		}
	}
	if w.tbin != nil {
		w.scratch = w.tbin.flush(w.scratch[:0])
		if _, err := w.buf.Write(w.scratch); err != nil {
			return err
		}
	}
	return w.buf.Flush()
}

// Close flushes and returns the Writer's pooled buffers. The Writer must
// not be used after Close.
func (w *Writer) Close() error {
	err := w.Flush()
	if w.scratch != nil {
		putBuf(w.scratch)
		w.scratch = nil
	}
	if w.tbin != nil {
		putBuf(w.tbin.block)
		w.tbin = nil
	}
	return err
}

// Reader streams records from an underlying io.Reader. JSONL input is
// decoded on an allocation-free fast path, falling back to encoding/json
// line by line for shapes the fast path does not recognize. TBIN input is
// decoded a whole block at a time into columns and handed out record by
// record, a block's error after the records before it.
type Reader struct {
	format  Format
	scan    *bufio.Scanner
	scanBuf []byte // pooled initial scanner buffer
	csvr    *csv.Reader
	in      *bufio.Reader // TBIN input buffer
	tbin    *tbinReader
	header  bool
	line    int
}

// NewReader returns a Reader decoding the given format from r.
func NewReader(r io.Reader, format Format) *Reader {
	tr := &Reader{format: format}
	tr.Reset(r)
	return tr
}

// Reset makes the Reader decode src from its start, exactly as a fresh
// NewReader(src, format) would, while keeping its buffers: a TBIN Reader
// reset for each stream decodes without allocating in steady state.
func (r *Reader) Reset(src io.Reader) {
	r.header, r.line = false, 0
	switch r.format {
	case CSV:
		r.csvr = csv.NewReader(src)
		r.csvr.FieldsPerRecord = len(csvHeader)
	case TBIN:
		if r.tbin == nil {
			r.in = bufio.NewReaderSize(src, 1<<16)
			r.tbin = &tbinReader{r: r.in, br: r.in, payload: getBuf()}
			return
		}
		r.in.Reset(src)
		r.tbin.reset()
	default:
		if r.scanBuf == nil {
			r.scanBuf = getBuf()
		}
		r.scan = bufio.NewScanner(src)
		r.scan.Buffer(r.scanBuf[:0], 1<<20)
	}
}

// Read returns the next record, or io.EOF when the stream ends.
func (r *Reader) Read() (Record, error) {
	switch r.format {
	case JSONL:
		for {
			if !r.scan.Scan() {
				if err := r.scan.Err(); err != nil {
					return Record{}, err
				}
				return Record{}, io.EOF
			}
			r.line++
			line := r.scan.Bytes()
			if len(line) == 0 {
				continue
			}
			rec, ok := parseRecordFast(line)
			if !ok {
				var err error
				// The fallback lives in its own function so taking &rec for
				// json.Unmarshal there does not force this rec — the one the
				// fast path fills on every call — onto the heap.
				if rec, err = unmarshalRecordSlow(line); err != nil {
					return Record{}, fmt.Errorf("telemetry: line %d: %w", r.line, err)
				}
			}
			if err := rec.Validate(); err != nil {
				return Record{}, fmt.Errorf("telemetry: line %d: %w", r.line, err)
			}
			observeDecoded(1)
			return rec, nil
		}
	case CSV:
		for {
			row, err := r.csvr.Read()
			if err != nil {
				return Record{}, err
			}
			r.line++
			if !r.header {
				r.header = true
				if row[0] == csvHeader[0] {
					continue
				}
			}
			rec, err := parseCSVRow(row)
			if err != nil {
				return Record{}, fmt.Errorf("telemetry: line %d: %w", r.line, err)
			}
			observeDecoded(1)
			return rec, nil
		}
	case TBIN:
		t := r.tbin
		for t.cols == nil || t.next == t.cols.Len() {
			if err := t.err; err != nil {
				t.err = nil
				return Record{}, err
			}
			if err := t.fill(r.line); err != nil {
				return Record{}, err
			}
		}
		rec := t.cols.Record(t.next)
		t.next++
		r.line++
		return rec, nil
	default:
		return Record{}, fmt.Errorf("telemetry: unknown format %d", r.format)
	}
}

// SkipBlock discards the next TBIN block without decoding it, returning
// the number of records skipped; io.EOF marks the end of the stream. It
// is the primitive for samplers that shard a file by block. Only valid for
// TBIN readers positioned on a block boundary.
func (r *Reader) SkipBlock() (int, error) {
	if r.format != TBIN {
		return 0, fmt.Errorf("telemetry: SkipBlock requires TBIN input, have %v", r.format)
	}
	n, err := r.tbin.skipBlock()
	r.line += n
	return n, err
}

// unmarshalRecordSlow is the encoding/json fallback for JSONL lines the
// fast path declines.
//
//go:noinline
func unmarshalRecordSlow(line []byte) (Record, error) {
	observeJSONLFallback()
	var rec Record
	err := json.Unmarshal(line, &rec)
	return rec, err
}

func parseCSVRow(row []string) (Record, error) {
	var rec Record
	t, err := strconv.ParseInt(row[0], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad time: %w", err)
	}
	rec.Time = timeutil.Millis(t)
	if rec.Action, err = ParseActionType(row[1]); err != nil {
		return rec, err
	}
	if rec.LatencyMS, err = strconv.ParseFloat(row[2], 64); err != nil {
		return rec, fmt.Errorf("bad latency: %w", err)
	}
	if rec.UserID, err = strconv.ParseUint(row[3], 10, 64); err != nil {
		return rec, fmt.Errorf("bad user id: %w", err)
	}
	if rec.UserType, err = ParseUserType(row[4]); err != nil {
		return rec, err
	}
	tz, err := strconv.ParseInt(row[5], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad tz offset: %w", err)
	}
	rec.TZOffset = timeutil.Millis(tz)
	if rec.Failed, err = strconv.ParseBool(row[6]); err != nil {
		return rec, fmt.Errorf("bad failed flag: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return rec, err
	}
	return rec, nil
}

// ReadAll drains the reader into a slice.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Close returns the Reader's pooled buffers. The Reader must not be used
// after Close.
func (r *Reader) Close() {
	if r.scanBuf != nil {
		putBuf(r.scanBuf)
		r.scanBuf = nil
	}
	if r.tbin != nil {
		r.tbin.release()
		r.tbin = nil
	}
}
