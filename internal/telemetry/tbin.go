package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"autosens/internal/parallel"
	"autosens/internal/timeutil"
)

// TBIN is a compact block-framed binary record format:
//
//	stream  := magic block*
//	magic   := "TBN1"
//	block   := uvarint(recordCount) uvarint(len(payload)) payload
//	payload := uvarint(len(tzDict)) zigzag(tzDict[0]) ... records
//	record  := tag delta user tz latency
//	tag     := byte — bits 0-1 action, bit 2 user type, bit 3 failed
//	delta   := zigzag varint of Time minus the previous record's Time
//	           (the first record in a block is relative to zero)
//	user    := uvarint UserID
//	tz      := uvarint index into the block's tzDict
//	latency := 8-byte little-endian IEEE 754 bits
//
// Times are delta-coded because telemetry is written roughly
// chronologically, timezone offsets are dictionary-coded because a block
// sees only a handful of distinct values, and the enums ride in one tag
// byte. Each block resets the time base and dictionary and announces its
// record count and byte length up front, so a reader can skip blocks
// without parsing them and workers can decode different blocks in
// parallel (TBINStream.Decode).
//
// One decoder reads the format: TBINColumns.start reads a block's tz
// dictionary and TBINColumns.decode turns its records into per-field
// columns in one loop, making every check the format and Record.Validate
// require and keeping the records before the block's first error. It has
// two consumers. TBINStream.Decode decodes each block whole and hands its
// columns to a worker (the batch load, pipeline.Load.TBIN, stages its rows
// straight from them); the streaming Reader (collector beacons, WAL
// replay) decodes the block it reaches at most tbinBlockRecords records at
// a time and hands them out one by one, then the block's error.

const tbinMagic = "TBN1"

const (
	// tbinBlockRecords caps records per block.
	tbinBlockRecords = 4096
	// tbinBlockBytes triggers an early block flush on bulky payloads.
	tbinBlockBytes = 1 << 16
	// tbinMaxPayload bounds the payload length a reader will buffer, so a
	// corrupt frame cannot provoke a huge allocation.
	tbinMaxPayload = 1 << 24
	// tbinMinRecordBytes is the smallest encoded record: tag, three
	// one-byte varints and the 8 latency bytes.
	tbinMinRecordBytes = 12
)

// bufPool recycles the scratch buffers behind writers and readers; Close
// returns them. One pool serves every codec because the buffers are all
// plain byte slices of similar magnitude.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1<<16)
		return &b
	},
}

func getBuf() []byte  { return (*bufPool.Get().(*[]byte))[:0] }
func putBuf(b []byte) { bufPool.Put(&b) }

// TBINEncoder is the TBIN encoder. It appends a stream to a caller's
// slice: the magic, then one frame per block, each block framed once it
// holds tbinBlockRecords records or tbinBlockBytes bytes. Its block
// scratch and tz dictionary are kept from stream to stream, so an encoder
// that lives as long as its caller (the WAL keeps one) encodes without
// allocating in steady state. Writer's TBIN path runs on one too. The zero
// value is ready to use; an encoder is not safe for concurrent use.
type TBINEncoder struct {
	block    []byte // encoded records of the open block
	recs     int
	prevTime int64
	dict     map[int64]uint64 // tz offset -> index
	tzs      []byte           // the dictionary's varint tz offsets, in index order
	header   bool             // the stream magic is out
}

// Append appends the whole TBIN stream of rs to dst: the bytes NewWriter,
// WriteAll and Close write for rs. A record failing Validate fails the
// stream with Validate's error, and dst is returned unextended.
func (e *TBINEncoder) Append(dst []byte, rs []Record) ([]byte, error) {
	e.clearBlock()
	e.header = false
	n := len(dst)
	for _, r := range rs {
		if err := r.Validate(); err != nil {
			return dst[:n], err
		}
		dst = e.add(dst, r)
	}
	observeEncoded(len(rs))
	return e.flush(dst), nil
}

// clearBlock empties the open block: its records, time base and dictionary.
func (e *TBINEncoder) clearBlock() {
	e.block = e.block[:0]
	e.recs = 0
	e.prevTime = 0
	clear(e.dict)
	e.tzs = e.tzs[:0]
}

// add encodes r, which must be valid, into the open block, and frames the
// block onto dst once it is full.
func (e *TBINEncoder) add(dst []byte, r Record) []byte {
	tag := byte(r.Action)&3 | byte(r.UserType)&1<<2
	if r.Failed {
		tag |= 1 << 3
	}
	e.block = append(e.block, tag)
	e.block = binary.AppendVarint(e.block, int64(r.Time)-e.prevTime)
	e.prevTime = int64(r.Time)
	e.block = binary.AppendUvarint(e.block, r.UserID)
	if e.dict == nil {
		e.dict = make(map[int64]uint64, 8)
	}
	idx, ok := e.dict[int64(r.TZOffset)]
	if !ok {
		idx = uint64(len(e.dict))
		e.dict[int64(r.TZOffset)] = idx
		e.tzs = binary.AppendVarint(e.tzs, int64(r.TZOffset))
	}
	e.block = binary.AppendUvarint(e.block, idx)
	e.block = binary.LittleEndian.AppendUint64(e.block, math.Float64bits(r.LatencyMS))
	e.recs++
	if e.recs >= tbinBlockRecords || len(e.block) >= tbinBlockBytes {
		return e.flush(dst)
	}
	return dst
}

// flush appends the stream magic if it is not out yet, then frames the
// open block (nothing when it is empty) onto dst.
func (e *TBINEncoder) flush(dst []byte) []byte {
	if !e.header {
		dst = append(dst, tbinMagic...)
		e.header = true
	}
	if e.recs == 0 {
		return dst
	}
	var v [binary.MaxVarintLen64]byte
	dictLen := binary.AppendUvarint(v[:0], uint64(len(e.dict)))
	dst = binary.AppendUvarint(dst, uint64(e.recs))
	dst = binary.AppendUvarint(dst, uint64(len(dictLen)+len(e.tzs)+len(e.block)))
	dst = append(append(append(dst, dictLen...), e.tzs...), e.block...)
	observeTBINBlock()
	e.clearBlock()
	return dst
}

// tbinReader reads TBIN frames off a stream and decodes each block into
// columns at most tbinBlockRecords records at a time, from which Reader
// hands out its records one by one. However many records a frame
// declares, its columns never outgrow an encoder's block.
type tbinReader struct {
	br      io.ByteReader
	r       io.Reader
	payload []byte       // pooled backing for the current block
	cols    *TBINColumns // the current piece of the block; pooled, nil before the first block
	cur     tbinCursor   // where the current block's decode stands
	next    int          // the next record of cols to hand out
	err     error        // the current block's error, due after its decoded records
	header  bool
	block   int // frames read or skipped
}

// reset rewinds t to the start of a new stream on the same input, keeping
// its payload buffer unless an outsized frame grew it, and handing its
// columns back to their pool.
func (t *tbinReader) reset() {
	payload := t.payload[:0]
	if cap(payload) > 2*tbinBlockBytes {
		payload = getBuf()
	}
	if t.cols != nil {
		putColumns(t.cols)
	}
	*t = tbinReader{r: t.r, br: t.br, payload: payload}
}

// tbinErr is a decode error in block (the frame's 0-based index while its
// header and tz dictionary are read, its 1-based one within its records).
func tbinErr(block int, format string, args ...any) error {
	return fmt.Errorf("telemetry: tbin block %d: %s", block, fmt.Sprintf(format, args...))
}

// readHeader consumes the magic. An immediately empty stream is a valid
// empty log.
func (t *tbinReader) readHeader() error {
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
	return nil
}

// readFrame reads the next frame header, consuming the stream magic first
// if it is still unread, and checks it: the payload length against the cap,
// and the record count against what the payload can hold. io.EOF means a
// clean end of stream.
func (t *tbinReader) readFrame() (count, size uint64, err error) {
	if !t.header {
		if err := t.readHeader(); err != nil {
			return 0, 0, err
		}
	}
	count, err = binary.ReadUvarint(t.br)
	if err == io.EOF {
		return 0, 0, io.EOF
	}
	if err != nil {
		return 0, 0, tbinErr(t.block, "frame count: %v", err)
	}
	size, err = binary.ReadUvarint(t.br)
	if err != nil {
		return 0, 0, tbinErr(t.block, "frame length: %v", err)
	}
	if size > tbinMaxPayload {
		return 0, 0, tbinErr(t.block, "payload length %d exceeds cap %d", size, tbinMaxPayload)
	}
	// A count the payload cannot hold is corruption, not data, and is
	// refused before anything is sized by it.
	if count == 0 || count > size/tbinMinRecordBytes {
		return 0, 0, tbinErr(t.block, "implausible record count %d for %d payload bytes", count, size)
	}
	return count, size, nil
}

// fill decodes the next piece of the current block into t.cols, reading
// the next frame first once the block is done; first is the stream
// position of the next record. A block's own error waits in t.err until
// the records decoded before it are handed out, and ends the block; the
// error returned is the frame's, io.EOF at a clean end of stream.
func (t *tbinReader) fill(first int) error {
	if t.cols == nil {
		t.cols = columnsPool.Get().(*TBINColumns)
	}
	if t.cur.next == t.cur.count {
		count, size, err := t.readFrame()
		if err != nil {
			return err
		}
		if cap(t.payload) < int(size) {
			t.payload = make([]byte, size)
		}
		t.payload = t.payload[:size]
		if _, err := io.ReadFull(t.r, t.payload); err != nil {
			return tbinErr(t.block, "payload: %v", err)
		}
		t.cur, t.err = t.cols.start(t.payload, int(count), t.block, first)
		t.block++
	}
	if t.err == nil {
		t.err = t.cols.decode(&t.cur, tbinBlockRecords)
	}
	if t.err != nil {
		t.cur.next = t.cur.count
	}
	t.next = 0
	observeDecoded(t.cols.Len())
	return nil
}

// skipBlock discards the next whole frame without parsing it and returns
// the number of records skipped. It is only valid on a block boundary:
// once every record of the current block, and its error, is handed out.
func (t *tbinReader) skipBlock() (int, error) {
	if t.cols != nil && (t.next < t.cols.Len() || t.err != nil || t.cur.next < t.cur.count) {
		handed := t.cols.First - t.cur.first + t.next
		return 0, tbinErr(t.block, "skip mid-block (%d records pending)", t.cur.count-handed)
	}
	count, size, err := t.readFrame()
	if err != nil {
		return 0, err
	}
	if _, err := io.CopyN(io.Discard, t.r, int64(size)); err != nil {
		return 0, tbinErr(t.block, "skip payload: %v", err)
	}
	t.block++
	return int(count), nil
}

// release returns pooled buffers; the reader must not be used afterwards.
func (t *tbinReader) release() {
	if t.payload != nil {
		putBuf(t.payload)
		t.payload = nil
	}
	if t.cols != nil {
		putColumns(t.cols)
		t.cols = nil
	}
}

// TBINColumns is one TBIN block decoded into columns: entry i of each is
// the block's record i. Times, Lats and Users are those fields as they
// are; the tag byte and the tz dictionary index are read back through
// Action, UserType, Failed and TZOffset. Columns come from a pool and are
// only valid until handed back.
type TBINColumns struct {
	First int // the stream position of the block's first record
	Times []timeutil.Millis
	Lats  []float64
	Users []uint64
	tags  []byte   // the records' tag bytes
	tz    []uint32 // the records' indexes into dict
	dict  []timeutil.Millis
}

// columnsPool recycles block columns. Columns or a dictionary grown past
// an encoder's block are dropped rather than kept, as outsized payload
// buffers are.
var columnsPool = sync.Pool{New: func() any { return new(TBINColumns) }}

func putColumns(c *TBINColumns) {
	if cap(c.Times) <= tbinBlockRecords && cap(c.dict) <= tbinBlockRecords {
		columnsPool.Put(c)
	}
}

// Len is the number of records decoded.
func (c *TBINColumns) Len() int { return len(c.Times) }

// Action, UserType, Failed and TZOffset read record i's fields.
func (c *TBINColumns) Action(i int) ActionType        { return ActionType(c.tags[i] & 3) }
func (c *TBINColumns) UserType(i int) UserType        { return UserType(c.tags[i] >> 2 & 1) }
func (c *TBINColumns) Failed(i int) bool              { return c.tags[i]&(1<<3) != 0 }
func (c *TBINColumns) TZOffset(i int) timeutil.Millis { return c.dict[c.tz[i]] }

// Record reads record i back whole.
func (c *TBINColumns) Record(i int) Record {
	return Record{
		Time: c.Times[i], Action: c.Action(i), LatencyMS: c.Lats[i], UserID: c.Users[i],
		UserType: c.UserType(i), TZOffset: c.TZOffset(i), Failed: c.Failed(i),
	}
}

// truncate keeps the first n records.
func (c *TBINColumns) truncate(n int) {
	c.Times, c.Lats, c.Users, c.tags, c.tz = c.Times[:n], c.Lats[:n], c.Users[:n], c.tags[:n], c.tz[:n]
}

// tbinCursor is where the decode of one block's payload stands, so the
// block can be decoded a piece at a time.
type tbinCursor struct {
	p           []byte // the payload
	pos         int    // the next record's offset in p
	prev        int64  // the previous record's time
	next, count int    // the next record's index in the block, and the records its frame declares
	block       int    // the frame's 1-based index, as its record errors give it
	first       int    // the stream position of the block's first record
}

// start reads the tz dictionary heading p, the payload of the stream's
// frame block (0-based), which declares count records, the first at
// stream position first (0-based). It empties c and returns the cursor at
// the block's first record, with the dictionary's error if it has one.
func (c *TBINColumns) start(p []byte, count, block, first int) (tbinCursor, error) {
	c.First = first
	c.truncate(0)
	// Once the dictionary is read, the block counts as started.
	cur := tbinCursor{p: p, count: count, block: block + 1, first: first}
	// The dictionary holds the distinct offsets the block's records use, so
	// it has no more entries than the block has records.
	dictLen, pos := binary.Uvarint(p)
	if pos <= 0 || dictLen > uint64(len(p)) || dictLen > uint64(count) {
		return cur, tbinErr(block, "bad tz dictionary length")
	}
	c.dict = c.dict[:0]
	for range dictLen {
		v, n := binary.Varint(p[pos:])
		if n <= 0 {
			return cur, tbinErr(block, "truncated tz dictionary")
		}
		pos += n
		c.dict = append(c.dict, timeutil.Millis(v))
	}
	cur.pos = pos
	return cur, nil
}

// decode decodes the block's next records, at most n of them, into c in
// place of what it held, with the tz dictionary start read. It makes the
// checks the format and Record.Validate require, and leaves in c the
// records that decode before the block's first error, which it returns. A
// record failing Validate is numbered by its place in the stream, 1-based.
func (c *TBINColumns) decode(cur *tbinCursor, n int) error {
	n = min(n, cur.count-cur.next)
	c.First = cur.first + cur.next
	c.Times = slices.Grow(c.Times[:0], n)[:n]
	c.Lats = slices.Grow(c.Lats[:0], n)[:n]
	c.Users = slices.Grow(c.Users[:0], n)[:n]
	c.tags = slices.Grow(c.tags[:0], n)[:n]
	c.tz = slices.Grow(c.tz[:0], n)[:n]
	times, lats, users, tags, tz := c.Times, c.Lats, c.Users, c.tags, c.tz
	p, pos, prev, block := cur.p, cur.pos, cur.prev, cur.block
	dictN := uint64(len(c.dict))
	last := cur.count - cur.next - 1 // the block's last record, if this piece reaches it
	for i := range n {
		if pos >= len(p) {
			c.truncate(i)
			return tbinErr(block, "payload ends mid-record")
		}
		tag := p[pos]
		pos++
		if tag&^0b1111 != 0 {
			c.truncate(i)
			return tbinErr(block, "invalid tag byte %#x", tag)
		}
		delta, k := uvarintAt(p, pos)
		if k <= 0 {
			c.truncate(i)
			return tbinErr(block, "truncated time delta")
		}
		pos += k
		prev += int64(delta>>1) ^ -int64(delta&1) // binary.Varint's zigzag
		user, k := uvarintAt(p, pos)
		if k <= 0 {
			c.truncate(i)
			return tbinErr(block, "truncated user id")
		}
		pos += k
		idx, k := uvarintAt(p, pos)
		if k <= 0 {
			c.truncate(i)
			return tbinErr(block, "truncated tz index")
		}
		pos += k
		if idx >= dictN {
			c.truncate(i)
			return tbinErr(block, "tz index %d outside dictionary of %d", idx, dictN)
		}
		if len(p)-pos < 8 {
			c.truncate(i)
			return tbinErr(block, "truncated latency")
		}
		lat := math.Float64frombits(binary.LittleEndian.Uint64(p[pos:]))
		pos += 8
		// Validate's one check a decoded record can fail. On the block's
		// last record, trailing bytes are reported first.
		if lat < 0 && (i != last || pos == len(p)) {
			c.truncate(i)
			return tbinRecordErr(c.First+i+1, Record{LatencyMS: lat}.Validate())
		}
		times[i], lats[i], users[i], tags[i], tz[i] = timeutil.Millis(prev), lat, user, tag, uint32(idx)
	}
	cur.pos, cur.prev, cur.next = pos, prev, cur.next+n
	if cur.next == cur.count && pos != len(p) {
		c.truncate(n - 1)
		return tbinErr(block, "%d trailing payload bytes", len(p)-pos)
	}
	return nil
}

// uvarintAt is binary.Uvarint(p[pos:]), with the one- and two-byte cases
// read first. Each varint takes the short path on its own, so a record
// with a long user ID (an anonymized one is a 64-bit hash) still reads its
// time delta and tz index that way.
func uvarintAt(p []byte, pos int) (uint64, int) {
	if pos+1 < len(p) {
		b0, b1 := p[pos], p[pos+1]
		if b0 < 0x80 {
			return uint64(b0), 1
		}
		if b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, 2
		}
	}
	return binary.Uvarint(p[pos:])
}

// tbinRecordErr reports a decoded record that fails Validate, numbered by
// its 1-based position in the stream.
func tbinRecordErr(n int, err error) error {
	return fmt.Errorf("telemetry: tbin record %d: %w", n, err)
}

// TBINStream is a whole TBIN stream held in memory, cut at its frame
// headers so its blocks can be decoded in parallel. Blocks are independent
// because each one resets its time base and tz dictionary.
type TBINStream struct {
	blocks   []tbinBlock
	records  int
	frameErr error // the first bad frame's, after the blocks before it
}

// SplitTBIN reads data's frame headers with the streaming reader's checks,
// without parsing any payload. A bad frame ends the stream; Decode reports
// it after any record error in the blocks before it.
func SplitTBIN(data []byte) *TBINStream {
	blocks, n, err := walkTBIN(data)
	return &TBINStream{blocks: blocks, records: n, frameErr: err}
}

// Blocks is the number of frames before the first bad one.
func (s *TBINStream) Blocks() int { return len(s.blocks) }

// Records is the number of records those frames declare. A frame's count
// must fit its payload at 12 bytes a record, so it is bounded by the input.
func (s *TBINStream) Records() int { return s.records }

// Decode decodes every block into columns on up to workers goroutines (0
// means GOMAXPROCS), in no set order, and calls visit(block, cols) with
// the records of each that decode before its first error; cols is only
// valid during the call. The error is what draining the streaming reader
// over the same bytes returns first: a record error in one block wins over
// any error in a later block or frame.
func (s *TBINStream) Decode(workers int, visit func(block int, cols *TBINColumns)) error {
	errs := make([]error, len(s.blocks))
	parallel.ForEach(workers, len(s.blocks), func(i int) {
		b := s.blocks[i]
		cols := columnsPool.Get().(*TBINColumns)
		cur, err := cols.start(b.payload, b.count, i, b.first)
		if err == nil {
			err = cols.decode(&cur, b.count)
		}
		errs[i] = err
		visit(i, cols)
		putColumns(cols)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return s.frameErr
}

// tbinBlock is one frame of a whole stream: its payload, and the stream
// position and number of its records.
type tbinBlock struct {
	payload      []byte
	first, count int
}

// walkTBIN reads the frame headers of a whole stream with the streaming
// reader's checks and slices out each payload. It stops at the first bad
// frame and returns that frame's error with the blocks before it, whose
// records the streaming reader would reach first.
func walkTBIN(data []byte) (blocks []tbinBlock, records int, err error) {
	r := bytes.NewReader(data)
	t := tbinReader{r: r, br: r}
	for {
		count, size, err := t.readFrame()
		if err == io.EOF {
			return blocks, records, nil
		}
		if err != nil {
			return blocks, records, err
		}
		off := len(data) - r.Len()
		if rest := r.Len(); uint64(rest) < size {
			// io.ReadFull's error, as the streaming reader reports it.
			cause := io.ErrUnexpectedEOF
			if rest == 0 {
				cause = io.EOF
			}
			return blocks, records, tbinErr(t.block, "payload: %v", cause)
		}
		_, _ = r.Seek(int64(size), io.SeekCurrent) // in range: checked above
		blocks = append(blocks, tbinBlock{payload: data[off : off+int(size)], first: records, count: int(count)})
		t.block++
		records += int(count)
	}
}
