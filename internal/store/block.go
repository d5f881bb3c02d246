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
	"sync"

	"autosens/internal/cell"
	"autosens/internal/colcodec"
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
//	  n times         colcodec delta column (the chain restarts per chunk)
//	  n latencies     colcodec float column
//	  n × tag bytes   (each record's cell.Cell)
//	  n seqs          colcodec delta column (restarts per chunk)
//	  n × uvarint user IDs
//
// Package colcodec defines the time, latency and seq columns, as it does
// for the cluster's partials. Version 1, written by older builds without
// the min/max prefix, is refused as corrupt.
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

// blockCols holds a block's decoded columns as parallel slices. Tags and
// user IDs are filled only when a decode asks for them (see colSet).
type blockCols struct {
	core.Columns
	tags  []uint8
	users []uint64
}

func (c *blockCols) reset() {
	c.Reset()
	c.tags = c.tags[:0]
	c.users = c.users[:0]
}

// memBytes approximates the heap footprint of the decoded columns, for
// the block cache's byte accounting.
func (c *blockCols) memBytes() int64 {
	return int64(cap(c.Times))*8 + int64(cap(c.Lats))*8 + int64(cap(c.Seqs))*8 +
		int64(cap(c.tags)) + int64(cap(c.users))*8
}

// colSet selects what a block decode fills beside times, latencies and
// seqs, which it always fills.
type colSet uint8

const (
	scanCols colSet = iota // nothing more: a scan whose slice matches everything
	tagCols                // tags: a slice-filtered scan, or the block cache
	allCols                // tags and user IDs: the row reader
)

// allTime is the window that skips no chunk, negative times included.
var allTime = live.Window{From: math.MinInt64}

// blockName returns the block file name for an ID.
func blockName(id uint64) string { return fmt.Sprintf("blk-%016x.asb", id) }

// isBlockFile reports whether name looks like a block file.
func isBlockFile(name string) bool {
	return len(name) == len("blk-0000000000000000.asb") &&
		name[:4] == "blk-" && name[len(name)-4:] == ".asb"
}

// chunkColsPool recycles the scratch appendBlock gathers each chunk's
// time, latency and seq columns into for the column codec.
var chunkColsPool = sync.Pool{New: func() any { return new(core.Columns) }}

// appendBlock encodes rows (sorted by (time, seq)) into dst as one block
// file's bytes, in the version-2 layout.
func appendBlock(dst []byte, rows []row) []byte {
	dst = append(dst, blockMagic[:]...)
	dst = append(dst, blockVersion)
	var payload []byte
	cols := chunkColsPool.Get().(*core.Columns)
	defer chunkColsPool.Put(cols)
	for len(rows) > 0 {
		chunk := rows
		if len(chunk) > chunkRecs {
			chunk = chunk[:chunkRecs]
		}
		rows = rows[len(chunk):]

		cols.Reset()
		for i := range chunk {
			cols.Times = append(cols.Times, chunk[i].time)
			cols.Lats = append(cols.Lats, chunk[i].lat)
			cols.Seqs = append(cols.Seqs, chunk[i].seq)
		}
		payload = payload[:0]
		minT := chunk[0].time
		maxT := chunk[len(chunk)-1].time
		payload = binary.AppendVarint(payload, int64(minT))
		payload = binary.AppendUvarint(payload, uint64(maxT-minT))
		payload = colcodec.AppendDeltas(payload, cols.Times)
		payload = colcodec.AppendFloats(payload, cols.Lats)
		for i := range chunk {
			payload = append(payload, chunk[i].tag)
		}
		payload = colcodec.AppendDeltas(payload, cols.Seqs)
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

// decodeBlockCols is the one block decoder. It validates the magic and
// version, the CRC of every chunk it decodes, and the (time, seq) sort —
// within chunks and across chunk edges — and appends times, latencies,
// seqs and the optional columns cols selects to dst.
//
// Chunks whose framed time range misses win are skipped without reading
// (or CRC-checking) their payloads, and the decode stops at the first
// chunk at or past the window's upper bound; the result is therefore a
// SUPERSET of the window's rows (whole chunks), which the caller
// row-filters. User IDs come last in a chunk, so a decode that does not
// ask for them never parses them; their bytes are then checked by the CRC
// alone.
func decodeBlockCols(data []byte, win live.Window, cols colSet, dst *blockCols) error {
	off, err := blockHeader(data)
	if err != nil {
		return err
	}
	start := len(dst.Times)
	prevMaxT := timeutil.Millis(math.MinInt64)
	for off < len(data) {
		c, next, err := nextChunk(data, off)
		if err != nil {
			return err
		}
		off = next
		// Framing-level ordering: chunk time ranges must ascend, or the
		// skip logic (and any reader) is operating on a corrupt block.
		// (nextChunk already guarantees maxT >= minT within a chunk.)
		if c.minT < prevMaxT {
			return fmt.Errorf("%w: chunks not time-sorted", ErrBlockCorrupt)
		}
		prevMaxT = c.maxT
		if win.To != 0 && c.minT >= win.To {
			break // every later chunk starts at or past the bound too
		}
		if c.maxT < win.From {
			continue // entirely below the window: skip without decoding
		}
		if err := c.checkCRC(); err != nil {
			return err
		}
		if err := decodeChunk(&c, cols, start, dst); err != nil {
			return err
		}
	}
	return nil
}

// decodeChunk parses one CRC-verified chunk's columns into dst. start is
// where the block's rows begin in dst, so the sort check can reach across
// the edge from the previous chunk.
func decodeChunk(c *chunkFrame, cols colSet, start int, dst *blockCols) error {
	n := c.n
	p := c.cols
	base := len(dst.Times)
	dst.Times = append(dst.Times, make([]timeutil.Millis, n)...)
	dst.Lats = append(dst.Lats, make([]float64, n)...)
	dst.Seqs = append(dst.Seqs, make([]uint64, n)...)
	times := dst.Times[base:]
	seqs := dst.Seqs[base:]
	k, err := colcodec.Deltas(times, p)
	if err != nil {
		return fmt.Errorf("%w: time column: %w", ErrBlockCorrupt, err)
	}
	p = p[k:]
	if k, err = colcodec.Floats(dst.Lats[base:], p); err != nil {
		return fmt.Errorf("%w: latency column: %w", ErrBlockCorrupt, err)
	}
	p = p[k:]
	if len(p) < n {
		return fmt.Errorf("%w: truncated tags", ErrBlockCorrupt)
	}
	tags := p[:n]
	p = p[n:]
	if k, err = colcodec.Deltas(seqs, p); err != nil {
		return fmt.Errorf("%w: seq column: %w", ErrBlockCorrupt, err)
	}
	p = p[k:]
	if cols >= tagCols {
		dst.tags = append(dst.tags, tags...)
	}
	if cols == allCols {
		for i := 0; i < n; i++ {
			u, k := binary.Uvarint(p)
			if k <= 0 {
				return fmt.Errorf("%w: bad user ID", ErrBlockCorrupt)
			}
			p = p[k:]
			dst.users = append(dst.users, u)
		}
		if len(p) != 0 {
			return fmt.Errorf("%w: %d trailing payload bytes", ErrBlockCorrupt, len(p))
		}
	}
	for i := max(base, start+1); i < base+n; i++ {
		if !core.Less(dst.Times[i-1], dst.Seqs[i-1], dst.Times[i], dst.Seqs[i]) {
			return fmt.Errorf("%w: rows not (time, seq)-sorted", ErrBlockCorrupt)
		}
	}
	if n > 0 && (times[0] != c.minT || times[n-1] != c.maxT) {
		return fmt.Errorf("%w: chunk min/max prefix disagrees with times", ErrBlockCorrupt)
	}
	return nil
}

// decodeBlock is the row reader: decodeBlockCols over every chunk with
// every column, as rows.
func decodeBlock(data []byte) ([]row, error) {
	var cols blockCols
	if err := decodeBlockCols(data, allTime, allCols, &cols); err != nil {
		return nil, err
	}
	rows := make([]row, cols.Len())
	for i := range rows {
		rows[i] = row{time: cols.Times[i], lat: cols.Lats[i], seq: cols.Seqs[i], user: cols.users[i], tag: cols.tags[i]}
	}
	return rows, nil
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
		c := cell.Cell(r.tag)
		meta.Actions |= 1 << c.Action()
		meta.UserTypes |= 1 << c.UserType()
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
// path used by tests and tools; scans decode only the columns they need).
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
