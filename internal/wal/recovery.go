package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"autosens/internal/telemetry"
)

// segScan is the result of scanning one segment file.
type segScan struct {
	goodBytes int64  // offset after the last intact frame (>= header)
	fileSize  int64  // total bytes read
	records   uint64 // records in intact frames
	lost      uint64 // records in a torn frame with a readable header
	headerOK  bool
	format    telemetry.Format
}

// isSegment reports whether name looks like a WAL segment file.
func isSegment(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal")
}

// segIndex parses the sequence number out of a segment file name.
func segIndex(name string) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(name, "seg-%08d.wal", &i); err != nil {
		return 0, false
	}
	return i, true
}

// recover_ scans every segment in dir, truncating torn tails (and
// removing segments whose header never made it to disk), and returns the
// aggregate report plus the highest segment index seen.
func recover_(fsys FS, dir string) (*Recovery, int, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, -1, fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	rec := &Recovery{}
	lastSeq := -1
	for _, name := range names {
		if !isSegment(name) {
			continue
		}
		if i, ok := segIndex(name); ok && i > lastSeq {
			lastSeq = i
		}
		scan, err := scanSegment(fsys, dir, name)
		if err != nil {
			return nil, -1, err
		}
		rec.Segments++
		rec.RecordsRecovered += scan.records
		rec.RecordsLost += scan.lost
		if !scan.headerOK {
			// Nothing recoverable: the crash hit before the 9-byte header
			// landed. Remove the file rather than leaving junk.
			rec.TornBytes += uint64(scan.fileSize)
			rec.TruncatedSegments = append(rec.TruncatedSegments, name)
			if err := fsys.Remove(join(dir, name)); err != nil {
				return nil, -1, fmt.Errorf("wal: remove torn segment %s: %w", name, err)
			}
			continue
		}
		if scan.goodBytes < scan.fileSize {
			rec.TornBytes += uint64(scan.fileSize - scan.goodBytes)
			rec.TruncatedSegments = append(rec.TruncatedSegments, name)
			if err := fsys.Truncate(join(dir, name), scan.goodBytes); err != nil {
				return nil, -1, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
			}
		}
	}
	return rec, lastSeq, nil
}

// scanSegment walks one segment's frames, CRC-checking each, and returns
// how far the intact prefix reaches. It never decodes payloads: the frame
// header's record count is enough for the recovery report, and replay
// re-validates records anyway.
func scanSegment(fsys FS, dir, name string) (segScan, error) {
	f, err := fsys.Open(join(dir, name))
	if err != nil {
		return segScan{}, fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)

	var s segScan
	hdr := make([]byte, segHeaderLen)
	n, err := io.ReadFull(r, hdr)
	s.fileSize = int64(n)
	if err != nil || !bytes.Equal(hdr[:len(segMagic)], segMagic[:]) {
		// Short or bad header: count whatever is there as torn.
		s.fileSize += drain(r)
		return s, nil
	}
	s.headerOK = true
	s.format = telemetry.Format(hdr[len(segMagic)])
	s.goodBytes = int64(segHeaderLen)

	frame := make([]byte, frameHdrLen)
	var payload []byte
	for {
		n, err := io.ReadFull(r, frame)
		s.fileSize += int64(n)
		if err == io.EOF {
			return s, nil // clean end
		}
		if err != nil {
			s.fileSize += drain(r)
			return s, nil // torn mid-header: no record count to report
		}
		plen := binary.LittleEndian.Uint32(frame[0:4])
		count := binary.LittleEndian.Uint32(frame[4:8])
		sum := binary.LittleEndian.Uint32(frame[8:12])
		if plen > maxFramePayload {
			// Garbage length: the header itself is corrupt, so its count
			// cannot be trusted either.
			s.fileSize += drain(r)
			return s, nil
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		n, err = io.ReadFull(r, payload)
		s.fileSize += int64(n)
		if err != nil {
			s.lost += uint64(count)
			s.fileSize += drain(r)
			return s, nil // torn mid-payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			s.lost += uint64(count)
			s.fileSize += drain(r)
			return s, nil // corrupt payload
		}
		s.records += uint64(count)
		s.goodBytes += int64(frameHdrLen) + int64(plen)
	}
}

// drain counts the remaining bytes in r without keeping them.
func drain(r io.Reader) int64 {
	n, _ := io.Copy(io.Discard, r)
	return n
}

// Replay streams every record in dir's intact frames, in append order,
// through fn. Torn tails (when dir has not been through Open's truncating
// scan) are skipped, never surfaced as errors; a decode error inside a
// CRC-valid frame is real corruption and is returned. Safe to run on a
// live WAL directory: segments are append-only and frames atomic.
func Replay(fsys FS, dir string, fn func(telemetry.Record) error) error {
	if fsys == nil {
		fsys = OSFS()
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	for _, name := range names {
		if !isSegment(name) {
			continue
		}
		if err := replaySegment(fsys, dir, name, fn); err != nil {
			return err
		}
	}
	return nil
}

// ReplaySegment streams every record in one segment's intact frames
// through fn, with the same torn-tail tolerance as Replay. The store
// compactor folds sealed segments one at a time so it can checkpoint
// per segment; everything else should use Replay.
func ReplaySegment(fsys FS, dir, name string, fn func(telemetry.Record) error) error {
	if fsys == nil {
		fsys = OSFS()
	}
	return replaySegment(fsys, dir, name, fn)
}

// replaySegment decodes the intact frames of one segment.
func replaySegment(fsys FS, dir, name string, fn func(telemetry.Record) error) error {
	f, err := fsys.Open(join(dir, name))
	if err != nil {
		return fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)

	hdr := make([]byte, segHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil || !bytes.Equal(hdr[:len(segMagic)], segMagic[:]) {
		return nil // torn/empty header: nothing to replay
	}
	format := telemetry.Format(hdr[len(segMagic)])

	frame := make([]byte, frameHdrLen)
	var payload []byte
	// One decoder serves every frame of the segment, reset onto each.
	var src bytes.Reader
	tr := telemetry.NewReader(nil, format)
	defer tr.Close()
	for {
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil // clean EOF or torn tail
		}
		plen := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[8:12])
		if plen > maxFramePayload {
			return nil
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil
		}
		src.Reset(payload)
		tr.Reset(&src)
		for {
			rec, err := tr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("wal: segment %s: decode intact frame: %w", name, err)
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
}

// Load replays dir (on the real filesystem) into a slice — the
// convenience entry point for analyzers pointed at a WAL directory.
func Load(dir string) ([]telemetry.Record, error) {
	var out []telemetry.Record
	err := Replay(nil, dir, func(rec telemetry.Record) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}
