package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// Block file wire form: magic "ASBK", one version byte, then chunks to
// EOF. Each chunk is
//
//	uvarint record count n
//	uvarint payload length
//	u32le   CRC32-C of the payload
//	payload (version 2):
//	  varint  min record time in the chunk
//	  uvarint time span (max time − min time)
//	  n × zigzag-varint time deltas   (running; restarts at 0 per chunk)
//	  n × f64le latencies
//	  n × tag bytes                   (the live engine's dictionary byte)
//	  n × zigzag-varint seq deltas    (restarts at 0 per chunk; seqs are
//	      not monotone in time order, so the deltas are signed)
//	  n × uvarint user IDs
//
// Version 1, written by older builds without the min/max prefix, is
// refused as corrupt.
//
// Rows within a block are sorted by (time, seq) and chunks restart their
// delta chains, so the version-2 min/max prefix lets a windowed scan
// skip whole chunks without reading their payloads: chunk time ranges
// ascend, so the scan skips leading chunks below the window and stops at
// the first chunk at or past its upper bound. The column order is chosen
// for selective decoding — tags can be skipped in one jump when the
// slice matches everything, and user IDs (which no scan needs) come last
// so the scan path never touches them. The min/max prefix lives inside
// the CRC-covered payload: a decoded chunk verifies it against the
// actual times, while a skipped chunk trusts it exactly as scans already
// trust the manifest zone maps.
var blockMagic = [4]byte{'A', 'S', 'B', 'K'}

const blockVersion = 2

// chunkRecs is the row capacity of one chunk.
const chunkRecs = 4096

// DefaultBlockRecords is the default row capacity of one block file.
const DefaultBlockRecords = 32768

// maxChunkPayload bounds a chunk payload a reader will buffer; far above
// any real chunk (chunkRecs rows cost tens of bytes each), so hitting it
// means the header bytes are garbage.
const maxChunkPayload = 64 << 20

// ErrBlockCorrupt marks an unreadable block file.
var ErrBlockCorrupt = errors.New("store: corrupt block")

// BlockReadError is a block read failure carrying the file name, so an
// operator can quarantine one bad block instead of losing the whole
// window. Corrupt() distinguishes on-disk corruption (the file is
// readable but fails validation — ScanWindow skips and counts these)
// from transient I/O failures (the scan aborts so the caller can retry).
type BlockReadError struct {
	File string
	Err  error
}

func (e *BlockReadError) Error() string { return fmt.Sprintf("store: block %s: %v", e.File, e.Err) }
func (e *BlockReadError) Unwrap() error { return e.Err }

// Corrupt reports whether the failure is on-disk corruption rather than
// a transient I/O error.
func (e *BlockReadError) Corrupt() bool { return errors.Is(e.Err, ErrBlockCorrupt) }

// row is one record inside the compactor, carrying everything a block
// stores about it.
type row struct {
	time timeutil.Millis
	lat  float64
	seq  uint64
	user uint64
	tag  uint8
}

// before reports whether a sorts strictly ahead of b in (time, seq) order.
func (a *row) before(b *row) bool { return core.Less(a.time, a.seq, b.time, b.seq) }

// blockCols holds a block's scan-relevant columns as parallel slices.
// User IDs are decoded only by the row-level reader — no scan needs them.
type blockCols struct {
	core.Columns
	tags []uint8
}

func (c *blockCols) reset() {
	c.Reset()
	c.tags = c.tags[:0]
}

// memBytes approximates the heap footprint of the decoded columns, for
// the block cache's byte accounting.
func (c *blockCols) memBytes() int64 {
	return int64(cap(c.Times))*8 + int64(cap(c.Lats))*8 + int64(cap(c.Seqs))*8 + int64(cap(c.tags))
}

// blockName returns the block file name for an ID.
func blockName(id uint64) string { return fmt.Sprintf("blk-%016x.asb", id) }

// isBlockFile reports whether name looks like a block file.
func isBlockFile(name string) bool {
	return len(name) == len("blk-0000000000000000.asb") &&
		name[:4] == "blk-" && name[len(name)-4:] == ".asb"
}

// appendBlock encodes rows (sorted by (time, seq)) into dst as one block
// file's bytes, in the version-2 layout.
func appendBlock(dst []byte, rows []row) []byte {
	dst = append(dst, blockMagic[:]...)
	dst = append(dst, blockVersion)
	var payload []byte
	for len(rows) > 0 {
		chunk := rows
		if len(chunk) > chunkRecs {
			chunk = chunk[:chunkRecs]
		}
		rows = rows[len(chunk):]

		payload = payload[:0]
		minT := chunk[0].time
		maxT := chunk[len(chunk)-1].time
		payload = binary.AppendVarint(payload, int64(minT))
		payload = binary.AppendUvarint(payload, uint64(maxT-minT))
		var lastT, lastS int64
		for i := range chunk {
			payload = binary.AppendVarint(payload, int64(chunk[i].time)-lastT)
			lastT = int64(chunk[i].time)
		}
		for i := range chunk {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(chunk[i].lat))
		}
		for i := range chunk {
			payload = append(payload, chunk[i].tag)
		}
		for i := range chunk {
			payload = binary.AppendVarint(payload, int64(chunk[i].seq)-lastS)
			lastS = int64(chunk[i].seq)
		}
		for i := range chunk {
			payload = binary.AppendUvarint(payload, chunk[i].user)
		}

		dst = binary.AppendUvarint(dst, uint64(len(chunk)))
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
		dst = append(dst, payload...)
	}
	return dst
}

// blockHeader validates the magic and the version byte and returns the
// offset of the first chunk.
func blockHeader(data []byte) (off int, err error) {
	if len(data) < len(blockMagic)+1 || !bytes.Equal(data[:4], blockMagic[:]) {
		return 0, fmt.Errorf("%w: bad magic", ErrBlockCorrupt)
	}
	if v := data[4]; v != blockVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBlockCorrupt, v)
	}
	return len(blockMagic) + 1, nil
}

// chunkFrame is one parsed chunk framing entry. payload is the full
// CRC-covered payload; cols is payload minus the min/max prefix.
// minT/maxT are peeked from the prefix WITHOUT verifying the CRC —
// verification costs reading the whole payload, which is exactly what
// chunk skipping avoids — so a skipped chunk trusts them like scans trust
// the manifest zone maps.
type chunkFrame struct {
	n          int
	sum        uint32
	payload    []byte
	cols       []byte
	minT, maxT timeutil.Millis
}

// checkCRC verifies the chunk payload against its framed checksum.
func (c *chunkFrame) checkCRC() error {
	if crc32.Checksum(c.payload, castagnoli) != c.sum {
		return fmt.Errorf("%w: chunk CRC mismatch", ErrBlockCorrupt)
	}
	return nil
}

// nextChunk parses one chunk's framing starting at off.
func nextChunk(data []byte, off int) (c chunkFrame, next int, err error) {
	n64, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return c, 0, fmt.Errorf("%w: bad chunk count at byte %d", ErrBlockCorrupt, off)
	}
	off += k
	plen64, k := binary.Uvarint(data[off:])
	if k <= 0 || plen64 > maxChunkPayload {
		return c, 0, fmt.Errorf("%w: bad chunk length at byte %d", ErrBlockCorrupt, off)
	}
	off += k
	if off+4 > len(data) {
		return c, 0, fmt.Errorf("%w: truncated chunk header", ErrBlockCorrupt)
	}
	c.sum = binary.LittleEndian.Uint32(data[off:])
	off += 4
	plen := int(plen64)
	if off+plen > len(data) {
		return c, 0, fmt.Errorf("%w: truncated chunk payload", ErrBlockCorrupt)
	}
	c.payload = data[off : off+plen]
	off += plen
	// Each row costs at least 12 payload bytes (1+8+1+1+1); the min/max
	// prefix only makes payloads larger.
	if n64 > uint64(len(c.payload))/12+1 {
		return c, 0, fmt.Errorf("%w: implausible chunk count %d", ErrBlockCorrupt, n64)
	}
	c.n = int(n64)
	minT, k1 := binary.Varint(c.payload)
	if k1 <= 0 {
		return c, 0, fmt.Errorf("%w: bad chunk min time", ErrBlockCorrupt)
	}
	span, k2 := binary.Uvarint(c.payload[k1:])
	if k2 <= 0 || span > math.MaxInt64 || minT > int64(math.MaxInt64-span) {
		return c, 0, fmt.Errorf("%w: bad chunk time span", ErrBlockCorrupt)
	}
	c.minT = timeutil.Millis(minT)
	c.maxT = timeutil.Millis(minT + int64(span))
	c.cols = c.payload[k1+k2:]
	return c, off, nil
}

// decodeBlock parses one block file's bytes back into rows (all columns,
// user IDs included), validating magic, version, every chunk CRC, exact
// payload consumption, and the (time, seq) sort — within chunks and
// across chunk boundaries.
func decodeBlock(data []byte) ([]row, error) {
	off, err := blockHeader(data)
	if err != nil {
		return nil, err
	}
	var rows []row
	for off < len(data) {
		c, next, err := nextChunk(data, off)
		if err != nil {
			return nil, err
		}
		off = next
		if err := c.checkCRC(); err != nil {
			return nil, err
		}
		prev := len(rows)
		rows, err = decodeChunkRows(rows, &c)
		if err != nil {
			return nil, err
		}
		if prev > 0 && len(rows) > prev {
			if !rows[prev-1].before(&rows[prev]) {
				return nil, fmt.Errorf("%w: chunks not (time, seq)-sorted", ErrBlockCorrupt)
			}
		}
	}
	return rows, nil
}

// decodeChunkRows parses one CRC-verified chunk's columns into rows,
// appending to dst.
func decodeChunkRows(dst []row, c *chunkFrame) ([]row, error) {
	n := c.n
	payload := c.cols
	base := len(dst)
	dst = append(dst, make([]row, n)...)
	rows := dst[base:]
	off := 0
	var last int64
	for i := 0; i < n; i++ {
		d, k := binary.Varint(payload[off:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: bad time delta", ErrBlockCorrupt)
		}
		off += k
		last += d
		rows[i].time = timeutil.Millis(last)
	}
	for i := 0; i < n; i++ {
		if off+8 > len(payload) {
			return nil, fmt.Errorf("%w: truncated latencies", ErrBlockCorrupt)
		}
		rows[i].lat = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		if math.IsNaN(rows[i].lat) {
			return nil, fmt.Errorf("%w: NaN latency", ErrBlockCorrupt)
		}
		off += 8
	}
	if off+n > len(payload) {
		return nil, fmt.Errorf("%w: truncated tags", ErrBlockCorrupt)
	}
	for i := 0; i < n; i++ {
		rows[i].tag = payload[off+i]
	}
	off += n
	last = 0
	for i := 0; i < n; i++ {
		d, k := binary.Varint(payload[off:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: bad seq delta", ErrBlockCorrupt)
		}
		off += k
		last += d
		if last < 0 {
			return nil, fmt.Errorf("%w: negative seq", ErrBlockCorrupt)
		}
		rows[i].seq = uint64(last)
	}
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(payload[off:])
		if k <= 0 {
			return nil, fmt.Errorf("%w: bad user ID", ErrBlockCorrupt)
		}
		off += k
		rows[i].user = u
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBlockCorrupt, len(payload)-off)
	}
	for i := 1; i < n; i++ {
		if !rows[i-1].before(&rows[i]) {
			return nil, fmt.Errorf("%w: rows not (time, seq)-sorted", ErrBlockCorrupt)
		}
	}
	if n > 0 && (rows[0].time != c.minT || rows[n-1].time != c.maxT) {
		return nil, fmt.Errorf("%w: chunk min/max prefix disagrees with times", ErrBlockCorrupt)
	}
	return dst, nil
}

// decodeBlockCols is the scan-path decoder: times, latencies, seqs and
// (when needTags) tags, appended to dst. User IDs are never decoded —
// the column order puts them last so the scan stops before them. Chunks
// whose framed time range misses win are
// skipped without reading (or CRC-checking) their payloads, and the scan
// stops at the first chunk at or past the window's upper bound; the
// result is therefore a SUPERSET of the window's rows (whole chunks),
// which the caller row-filters.
func decodeBlockCols(data []byte, win live.Window, needTags bool, dst *blockCols) error {
	off, err := blockHeader(data)
	if err != nil {
		return err
	}
	var prevMaxT timeutil.Millis
	havePrev := false
	for off < len(data) {
		c, next, err := nextChunk(data, off)
		if err != nil {
			return err
		}
		off = next
		// Framing-level ordering: chunk time ranges must ascend, or the
		// skip logic (and any reader) is operating on a corrupt block.
		if c.n > 0 && c.maxT < c.minT {
			return fmt.Errorf("%w: inverted chunk time range", ErrBlockCorrupt)
		}
		if havePrev && c.minT < prevMaxT {
			return fmt.Errorf("%w: chunks not time-sorted", ErrBlockCorrupt)
		}
		prevMaxT, havePrev = c.maxT, true
		if win.To != 0 && c.minT >= win.To {
			break // every later chunk starts at or past the bound too
		}
		if c.maxT < win.From {
			continue // entirely below the window: skip without decoding
		}
		if err := c.checkCRC(); err != nil {
			return err
		}
		if err := decodeChunkCols(&c, needTags, dst); err != nil {
			return err
		}
	}
	return nil
}

// decodeChunkCols parses one CRC-verified chunk's scan columns into dst.
// The user column is validated only by the CRC — its varints are never
// parsed here.
func decodeChunkCols(c *chunkFrame, needTags bool, dst *blockCols) error {
	n := c.n
	payload := c.cols
	base := len(dst.Times)
	dst.Times = append(dst.Times, make([]timeutil.Millis, n)...)
	dst.Lats = append(dst.Lats, make([]float64, n)...)
	dst.Seqs = append(dst.Seqs, make([]uint64, n)...)
	times := dst.Times[base:]
	lats := dst.Lats[base:]
	seqs := dst.Seqs[base:]
	off := 0
	var last int64
	for i := 0; i < n; i++ {
		d, k := binary.Varint(payload[off:])
		if k <= 0 {
			return fmt.Errorf("%w: bad time delta", ErrBlockCorrupt)
		}
		off += k
		last += d
		times[i] = timeutil.Millis(last)
	}
	if base > 0 && n > 0 {
		if prev := dst.Times[base-1]; times[0] < prev {
			return fmt.Errorf("%w: chunks not time-sorted", ErrBlockCorrupt)
		}
	}
	for i := 0; i < n; i++ {
		if off+8 > len(payload) {
			return fmt.Errorf("%w: truncated latencies", ErrBlockCorrupt)
		}
		lats[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		if math.IsNaN(lats[i]) {
			return fmt.Errorf("%w: NaN latency", ErrBlockCorrupt)
		}
		off += 8
	}
	if off+n > len(payload) {
		return fmt.Errorf("%w: truncated tags", ErrBlockCorrupt)
	}
	tags := payload[off : off+n]
	off += n
	last = 0
	for i := 0; i < n; i++ {
		d, k := binary.Varint(payload[off:])
		if k <= 0 {
			return fmt.Errorf("%w: bad seq delta", ErrBlockCorrupt)
		}
		off += k
		last += d
		if last < 0 {
			return fmt.Errorf("%w: negative seq", ErrBlockCorrupt)
		}
		seqs[i] = uint64(last)
	}
	if needTags {
		dst.tags = append(dst.tags, tags...)
	}
	for i := 1; i < n; i++ {
		if !core.Less(times[i-1], seqs[i-1], times[i], seqs[i]) {
			return fmt.Errorf("%w: rows not (time, seq)-sorted", ErrBlockCorrupt)
		}
	}
	if n > 0 && (times[0] != c.minT || times[n-1] != c.maxT) {
		return fmt.Errorf("%w: chunk min/max prefix disagrees with times", ErrBlockCorrupt)
	}
	return nil
}

// writeBlock encodes rows, writes them as the block file for id (synced
// before close), and returns the file's manifest entry plus the encode
// buffer for reuse. Create truncates, so rewriting a crashed compaction's
// orphan is safe and exact.
func writeBlock(fsys wal.FS, dir string, id uint64, rows []row, buf []byte) (BlockMeta, []byte, error) {
	data := appendBlock(buf[:0], rows)
	name := blockName(id)
	f, err := fsys.Create(filepath.Join(dir, name))
	if err != nil {
		return BlockMeta{}, data, fmt.Errorf("store: create block %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return BlockMeta{}, data, fmt.Errorf("store: write block %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return BlockMeta{}, data, fmt.Errorf("store: sync block %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return BlockMeta{}, data, fmt.Errorf("store: close block %s: %w", name, err)
	}

	meta := BlockMeta{
		ID: id, File: name, Records: len(rows), Bytes: int64(len(data)),
		MinTime: rows[0].time, MaxTime: rows[len(rows)-1].time,
		MinSeq: rows[0].seq, MaxSeq: rows[0].seq,
		MinUser: rows[0].user, MaxUser: rows[0].user,
	}
	for i := range rows {
		r := &rows[i]
		if r.seq < meta.MinSeq {
			meta.MinSeq = r.seq
		}
		if r.seq > meta.MaxSeq {
			meta.MaxSeq = r.seq
		}
		if r.user < meta.MinUser {
			meta.MinUser = r.user
		}
		if r.user > meta.MaxUser {
			meta.MaxUser = r.user
		}
		meta.Actions |= 1 << tagAction(r.tag)
		meta.UserTypes |= 1 << tagUser(r.tag)
	}
	return meta, data, nil
}

// readBlockBytes loads one block file into buf (grown as needed),
// wrapping failures in *BlockReadError.
func readBlockBytes(fsys wal.FS, dir, name string, buf []byte) ([]byte, error) {
	f, err := fsys.Open(filepath.Join(dir, name))
	if err != nil {
		return buf, &BlockReadError{File: name, Err: err}
	}
	defer f.Close()
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 64<<10)
	}
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), 2*cap(buf))
			copy(grown, buf)
			buf = grown
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, &BlockReadError{File: name, Err: err}
		}
	}
}

// readBlock loads and decodes one block file into rows (the full-fidelity
// path used by tests and tools; scans use the column decoder).
func readBlock(fsys wal.FS, dir, name string) ([]row, error) {
	data, err := readBlockBytes(fsys, dir, name, nil)
	if err != nil {
		return nil, err
	}
	rows, err := decodeBlock(data)
	if err != nil {
		return nil, &BlockReadError{File: name, Err: err}
	}
	return rows, nil
}

// tagAction and tagUser unpack the dictionary byte exactly as the live
// engine packs it (bits 0-1 action, bit 2 user type); the byte itself
// comes from live.TagOf, so the two tiers cannot drift.
func tagAction(tag uint8) int { return int(tag & 0b11) }
func tagUser(tag uint8) int   { return int(tag >> 2 & 0b1) }
