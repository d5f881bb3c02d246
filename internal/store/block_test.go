package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"autosens/internal/colcodec"
)

// appendChunk frames one hand-built chunk payload the way appendBlock
// does, with a valid CRC, so only the payload's contents are at fault.
func appendChunk(dst []byte, n int, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// oneRowPayload is a one-row chunk payload at time -5: the min/max prefix,
// then the given time, latency and seq columns, a zero tag, user ID 1 and
// any trailing bytes.
func oneRowPayload(timeCol, latCol, seqCol, trailing []byte) []byte {
	p := binary.AppendVarint(nil, -5)
	p = binary.AppendUvarint(p, 0)
	p = append(p, timeCol...)
	p = append(p, latCol...)
	p = append(p, 0)
	p = append(p, seqCol...)
	p = append(p, 1)
	return append(p, trailing...)
}

// TestBlockDecodeRefusals pins the one block decoder's rules on chunks
// whose CRC is valid. With or without user IDs it refuses every codec
// violation (wrapping both ErrBlockCorrupt and colcodec.ErrCorrupt), a
// min/max prefix that disagrees with the times, and rows out of (time,
// seq) order within a chunk or across a chunk edge. Trailing payload
// bytes are refused when user IDs are decoded; a scan, which never parses
// them, leaves that tail to the CRC.
func TestBlockDecodeRefusals(t *testing.T) {
	head := []byte("ASBK\x02")[:5:5] // full: every appendChunk copies
	timeCol := colcodec.AppendDeltas(nil, []int64{-5})
	latCol := colcodec.AppendFloats(nil, []float64{100})
	seqCol := colcodec.AppendDeltas(nil, []uint64{9})
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))

	valid := appendChunk(head, 1, oneRowPayload(timeCol, latCol, seqCol, nil))
	if rows, err := decodeBlock(valid); err != nil || len(rows) != 1 || rows[0].time != -5 {
		t.Fatalf("the unmodified fixture decodes to %+v, %v; want its one row", rows, err)
	}

	tie := appendChunk(appendChunk(head, 1, oneRowPayload(timeCol, latCol, seqCol, nil)),
		1, oneRowPayload(timeCol, latCol, seqCol, nil))
	badPrefix := oneRowPayload(timeCol, latCol, seqCol, nil)
	badPrefix[0] = 7 // min time -4, decoded time -5
	unsorted := binary.AppendVarint(nil, -5)
	unsorted = binary.AppendUvarint(unsorted, 0)
	unsorted = colcodec.AppendDeltas(unsorted, []int64{-5, -5})
	unsorted = colcodec.AppendFloats(unsorted, []float64{1, 2})
	unsorted = append(unsorted, 0, 0)
	unsorted = colcodec.AppendDeltas(unsorted, []uint64{9, 8})
	unsorted = append(unsorted, 1, 1)

	for _, tc := range []struct {
		name  string
		data  []byte
		codec bool // the refusal comes from the column codec
	}{
		{"zero-padded time varint", appendChunk(head, 1, oneRowPayload([]byte{0x89, 0x00}, latCol, seqCol, nil)), true},
		{"NaN latency", appendChunk(head, 1, oneRowPayload(timeCol, nan, seqCol, nil)), true},
		{"negative seq", appendChunk(head, 1, oneRowPayload(timeCol, latCol, binary.AppendVarint(nil, -1), nil)), true},
		{"min/max prefix disagrees", appendChunk(head, 1, badPrefix), false},
		{"unsorted within a chunk", appendChunk(head, 2, unsorted), false},
		{"(time, seq) tie across a chunk edge", tie, false},
	} {
		for _, cs := range []colSet{scanCols, allCols} {
			var cols blockCols
			err := decodeBlockCols(tc.data, allTime, cs, &cols)
			if !errors.Is(err, ErrBlockCorrupt) || errors.Is(err, colcodec.ErrCorrupt) != tc.codec {
				t.Errorf("%s (colSet %d): %v", tc.name, cs, err)
			}
		}
	}

	trailing := appendChunk(head, 1, oneRowPayload(timeCol, latCol, seqCol, []byte{0}))
	if _, err := decodeBlock(trailing); !errors.Is(err, ErrBlockCorrupt) {
		t.Errorf("trailing payload byte with user IDs: %v, want a corrupt-block refusal", err)
	}
	var cols blockCols
	if err := decodeBlockCols(trailing, allTime, tagCols, &cols); err != nil || cols.Len() != 1 {
		t.Errorf("trailing payload byte without user IDs: %d rows, %v; want the row", cols.Len(), err)
	}
}
