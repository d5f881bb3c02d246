// Package colcodec is the one definition of the column encoding behind the
// cold tier's block chunks (ASBK) and the cluster's curve partials (ASPA).
// Both store records as parallel columns; this package writes and reads
// the columns, and each container keeps its own header, framing and
// record count.
//
// A column of n values carries no length of its own:
//
//	delta column  n × zigzag varint (encoding/binary.AppendVarint) of each
//	              value minus the one before it, the chain starting at 0.
//	              Times and seqs both use it; seqs are not monotone in
//	              time order, so their deltas are signed too.
//	float column  n × 8-byte little-endian IEEE 754 bits.
//
// Every value has exactly one encoding, so bytes a decoder accepts
// re-encode identically. The decoders refuse a truncated varint, a
// zero-padded varint (a final 0x00 group), a running value below zero in
// an unsigned column — so an unsigned column holds values below 2^63 —
// and NaN. Every refusal wraps ErrCorrupt.
package colcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is wrapped by every decode refusal.
var ErrCorrupt = errors.New("colcodec: corrupt column")

// AppendDeltas appends vals as a delta column.
func AppendDeltas[T ~int64 | ~uint64](dst []byte, vals []T) []byte {
	var last int64
	for _, v := range vals {
		dst = binary.AppendVarint(dst, int64(v)-last)
		last = int64(v)
	}
	return dst
}

// AppendFloats appends vals as a float column.
func AppendFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Deltas decodes a delta column of len(dst) values from the head of src
// into dst and returns the number of bytes it read.
func Deltas[T ~int64 | ~uint64](dst []T, src []byte) (int, error) {
	var zero T
	unsigned := ^zero > zero // all ones is -1 in a signed T
	off := 0
	var last int64
	for i := range dst {
		d, k := binary.Varint(src[off:])
		if k <= 0 || (k > 1 && src[off+k-1] == 0) {
			return 0, fmt.Errorf("%w: bad varint at value %d", ErrCorrupt, i)
		}
		off += k
		last += d
		if unsigned && last < 0 {
			return 0, fmt.Errorf("%w: negative value at %d in an unsigned column", ErrCorrupt, i)
		}
		dst[i] = T(last)
	}
	return off, nil
}

// Floats decodes a float column of len(dst) values from the head of src
// into dst and returns the number of bytes it read.
func Floats(dst []float64, src []byte) (int, error) {
	n := 8 * len(dst)
	if len(src) < n {
		return 0, fmt.Errorf("%w: %d bytes for %d floats", ErrCorrupt, len(src), len(dst))
	}
	for i := range dst {
		v := math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		if math.IsNaN(v) {
			return 0, fmt.Errorf("%w: NaN at value %d", ErrCorrupt, i)
		}
		dst[i] = v
	}
	return n, nil
}
