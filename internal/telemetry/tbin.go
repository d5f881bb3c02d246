package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

// tbinReader streams records back out of TBIN frames.
type tbinReader struct {
	br       io.ByteReader
	r        io.Reader
	payload  []byte // pooled backing for the current block
	pos      int
	remain   int
	prevTime int64
	dict     []int64
	header   bool
	block    int
}

// reset rewinds t to the start of a new stream on the same input, keeping
// its dictionary and, unless an outsized frame grew it, its payload buffer.
func (t *tbinReader) reset() {
	payload := t.payload[:0]
	if cap(payload) > 2*tbinBlockBytes {
		payload = getBuf()
	}
	*t = tbinReader{r: t.r, br: t.br, payload: payload, dict: t.dict[:0]}
}

func (t *tbinReader) errf(format string, args ...any) error {
	return fmt.Errorf("telemetry: tbin block %d: %s", t.block, fmt.Sprintf(format, args...))
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
		return 0, 0, t.errf("frame count: %v", err)
	}
	size, err = binary.ReadUvarint(t.br)
	if err != nil {
		return 0, 0, t.errf("frame length: %v", err)
	}
	if size > tbinMaxPayload {
		return 0, 0, t.errf("payload length %d exceeds cap %d", size, tbinMaxPayload)
	}
	// A count the payload cannot hold is corruption, not data, and is
	// refused before anything is sized by it.
	if count == 0 || count > size/tbinMinRecordBytes {
		return 0, 0, t.errf("implausible record count %d for %d payload bytes", count, size)
	}
	return count, size, nil
}

// nextBlock loads and validates the next frame. io.EOF means a clean end
// of stream.
func (t *tbinReader) nextBlock() error {
	count, size, err := t.readFrame()
	if err != nil {
		return err
	}
	if cap(t.payload) < int(size) {
		t.payload = make([]byte, size)
	}
	t.payload = t.payload[:size]
	if _, err := io.ReadFull(t.r, t.payload); err != nil {
		return t.errf("payload: %v", err)
	}
	return t.startBlock(int(count))
}

// startBlock parses the tz dictionary at the head of t.payload and leaves
// t on the first of the block's count records.
func (t *tbinReader) startBlock(count int) error {
	t.pos = 0
	t.prevTime = 0
	dictLen, ok := t.uvarint()
	if !ok || dictLen > uint64(len(t.payload)) {
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
	t.remain = count
	t.block++
	return nil
}

func (t *tbinReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(t.payload[t.pos:])
	if n <= 0 {
		return 0, false
	}
	t.pos += n
	return v, true
}

// read decodes the next record, crossing block boundaries as needed.
func (t *tbinReader) read() (Record, error) {
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

// skipBlock discards the next whole frame without parsing it and returns
// the number of records skipped. It is only valid on a block boundary
// (before the first Read of a block).
func (t *tbinReader) skipBlock() (int, error) {
	if t.remain != 0 {
		return 0, t.errf("skip mid-block (%d records pending)", t.remain)
	}
	count, size, err := t.readFrame()
	if err != nil {
		return 0, err
	}
	if _, err := io.CopyN(io.Discard, t.r, int64(size)); err != nil {
		return 0, t.errf("skip payload: %v", err)
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

// Decode calls visit(block, b) once for every block, on up to workers
// goroutines (0 means GOMAXPROCS), in no set order; b.Next decodes the
// block's records. The error is what draining the streaming reader over the
// same bytes returns first: a record error in one block wins over any error
// in a later block or frame, and a record failing Validate is numbered by
// its place in the stream.
func (s *TBINStream) Decode(workers int, visit func(block int, b *TBINBlock)) error {
	errs := make([]error, len(s.blocks))
	parallel.ForEach(workers, len(s.blocks), func(i int) {
		b := TBINBlock{First: s.blocks[i].first, count: s.blocks[i].count}
		b.t = tbinReader{payload: s.blocks[i].payload, block: i}
		b.err = b.t.startBlock(b.count)
		visit(i, &b)
		for b.err == nil && b.done < b.count {
			b.Next() // what visit left unread must still be valid
		}
		errs[i] = b.err
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
			return blocks, records, t.errf("payload: %v", cause)
		}
		_, _ = r.Seek(int64(size), io.SeekCurrent) // in range: checked above
		blocks = append(blocks, tbinBlock{payload: data[off : off+int(size)], first: records, count: int(count)})
		t.block++
		records += int(count)
	}
}

// TBINBlock decodes one block of a whole stream, record by record.
type TBINBlock struct {
	First int // the stream position of the block's first record
	count int
	t     tbinReader
	done  int // records decoded
	err   error
}

// Next decodes the block's next record with the streaming reader's code,
// or reports false at the block's end or after its first bad record.
func (b *TBINBlock) Next() (Record, bool) {
	if b.err != nil || b.done == b.count {
		return Record{}, false
	}
	rec, err := b.t.read()
	if err == nil {
		if err = rec.Validate(); err != nil {
			err = tbinRecordErr(b.First+b.done+1, err)
		}
	}
	if err != nil {
		b.err = err
		return Record{}, false
	}
	b.done++
	return rec, true
}
