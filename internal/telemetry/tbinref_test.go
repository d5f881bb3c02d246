package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"autosens/internal/timeutil"
)

// refDecodeTBIN is the reference TBIN decoder: the record-at-a-time reader
// the format was first read with, one frame, one dictionary and one record
// at a time, each record checked by Validate. It returns the records that
// decode before the stream's first error, and that error. The block
// decoder behind every non-test consumer is held to it, so it shares no
// decoding code with them: only the format's constants.
func refDecodeTBIN(data []byte) ([]Record, error) {
	in := bytes.NewReader(data)
	t := refTBINReader{r: in}
	var out []Record
	for {
		rec, err := t.read()
		if err == io.EOF {
			return out, nil
		}
		if err == nil {
			if verr := rec.Validate(); verr != nil {
				err = fmt.Errorf("telemetry: tbin record %d: %w", len(out)+1, verr)
			}
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// refTBINReader is refDecodeTBIN's stream state.
type refTBINReader struct {
	r        *bytes.Reader
	payload  []byte
	pos      int
	remain   int
	prevTime int64
	dict     []int64
	header   bool
	block    int
}

func (t *refTBINReader) errf(format string, args ...any) error {
	return fmt.Errorf("telemetry: tbin block %d: %s", t.block, fmt.Sprintf(format, args...))
}

// nextBlock reads the next frame, checks its header and loads its payload
// and tz dictionary; io.EOF is a clean end of stream.
func (t *refTBINReader) nextBlock() error {
	if !t.header {
		var magic [len(tbinMagic)]byte
		n, err := io.ReadFull(t.r, magic[:])
		if n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			return io.EOF
		}
		if err != nil {
			return fmt.Errorf("telemetry: tbin header: %w", err)
		}
		if string(magic[:]) != tbinMagic {
			return fmt.Errorf("telemetry: not a TBIN stream (bad magic %q)", magic[:])
		}
		t.header = true
	}
	count, err := binary.ReadUvarint(t.r)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return t.errf("frame count: %v", err)
	}
	size, err := binary.ReadUvarint(t.r)
	if err != nil {
		return t.errf("frame length: %v", err)
	}
	if size > tbinMaxPayload {
		return t.errf("payload length %d exceeds cap %d", size, tbinMaxPayload)
	}
	if count == 0 || count > size/tbinMinRecordBytes {
		return t.errf("implausible record count %d for %d payload bytes", count, size)
	}
	if rest := t.r.Len(); uint64(rest) < size {
		// io.ReadFull's error, without sizing a buffer by a short frame.
		cause := io.ErrUnexpectedEOF
		if rest == 0 {
			cause = io.EOF
		}
		return t.errf("payload: %v", cause)
	}
	t.payload = make([]byte, size)
	_, _ = io.ReadFull(t.r, t.payload) // in range: checked above
	t.pos, t.prevTime = 0, 0
	dictLen, ok := t.uvarint()
	if !ok || dictLen > uint64(len(t.payload)) || dictLen > count {
		return t.errf("bad tz dictionary length")
	}
	t.dict = t.dict[:0]
	for i := uint64(0); i < dictLen; i++ {
		v, n := binary.Varint(t.payload[t.pos:])
		if n <= 0 {
			return t.errf("truncated tz dictionary")
		}
		t.pos += n
		t.dict = append(t.dict, v)
	}
	t.remain = int(count)
	t.block++
	return nil
}

func (t *refTBINReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(t.payload[t.pos:])
	if n <= 0 {
		return 0, false
	}
	t.pos += n
	return v, true
}

// read decodes the next record, crossing block boundaries as needed.
func (t *refTBINReader) read() (Record, error) {
	for t.remain == 0 {
		if err := t.nextBlock(); err != nil {
			return Record{}, err
		}
	}
	if t.pos >= len(t.payload) {
		return Record{}, t.errf("payload ends mid-record")
	}
	tag := t.payload[t.pos]
	t.pos++
	if tag&^0b1111 != 0 {
		return Record{}, t.errf("invalid tag byte %#x", tag)
	}
	var rec Record
	rec.Action = ActionType(tag & 3)
	rec.UserType = UserType(tag >> 2 & 1)
	rec.Failed = tag&(1<<3) != 0
	delta, n := binary.Varint(t.payload[t.pos:])
	if n <= 0 {
		return Record{}, t.errf("truncated time delta")
	}
	t.pos += n
	t.prevTime += delta
	rec.Time = timeutil.Millis(t.prevTime)
	user, ok := t.uvarint()
	if !ok {
		return Record{}, t.errf("truncated user id")
	}
	rec.UserID = user
	tzIdx, ok := t.uvarint()
	if !ok {
		return Record{}, t.errf("truncated tz index")
	}
	if tzIdx >= uint64(len(t.dict)) {
		return Record{}, t.errf("tz index %d outside dictionary of %d", tzIdx, len(t.dict))
	}
	rec.TZOffset = timeutil.Millis(t.dict[tzIdx])
	if t.pos+8 > len(t.payload) {
		return Record{}, t.errf("truncated latency")
	}
	rec.LatencyMS = math.Float64frombits(binary.LittleEndian.Uint64(t.payload[t.pos:]))
	t.pos += 8
	t.remain--
	if t.remain == 0 && t.pos != len(t.payload) {
		return Record{}, t.errf("%d trailing payload bytes", len(t.payload)-t.pos)
	}
	return rec, nil
}
