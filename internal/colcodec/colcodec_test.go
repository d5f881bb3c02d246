package colcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// millis stands in for a named time type: the delta codec takes any type
// whose underlying type is int64 or uint64.
type millis int64

func TestRoundTrip(t *testing.T) {
	times := []millis{-3000, -3000, 0, 7, 1 << 41, math.MinInt64, math.MaxInt64}
	seqs := []uint64{1 << 40, 3, 3, 0, 1<<63 - 1, 12}
	lats := []float64{0, math.Copysign(0, -1), 120.5, math.Inf(1), math.Inf(-1), 1e-300}

	enc := AppendDeltas(nil, times)
	enc = AppendFloats(enc, lats)
	enc = AppendDeltas(enc, seqs)

	gotT := make([]millis, len(times))
	gotL := make([]float64, len(lats))
	gotS := make([]uint64, len(seqs))
	off := 0
	for _, dec := range []func([]byte) (int, error){
		func(b []byte) (int, error) { return Deltas(gotT, b) },
		func(b []byte) (int, error) { return Floats(gotL, b) },
		func(b []byte) (int, error) { return Deltas(gotS, b) },
	} {
		k, err := dec(enc[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += k
	}
	if off != len(enc) {
		t.Fatalf("decoders read %d of %d bytes", off, len(enc))
	}
	for i := range times {
		if gotT[i] != times[i] {
			t.Fatalf("time %d = %d, want %d", i, gotT[i], times[i])
		}
	}
	for i := range lats {
		if math.Float64bits(gotL[i]) != math.Float64bits(lats[i]) {
			t.Fatalf("latency %d = %v, want %v", i, gotL[i], lats[i])
		}
	}
	for i := range seqs {
		if gotS[i] != seqs[i] {
			t.Fatalf("seq %d = %d, want %d", i, gotS[i], seqs[i])
		}
	}
}

func TestDecodersRefuse(t *testing.T) {
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	cases := []struct {
		name string
		dec  func() (int, error)
	}{
		{"truncated varint", func() (int, error) { return Deltas(make([]int64, 1), []byte{0x80}) }},
		{"missing value", func() (int, error) { return Deltas(make([]int64, 2), []byte{0x02}) }},
		{"zero-padded varint", func() (int, error) { return Deltas(make([]int64, 1), []byte{0x82, 0x00}) }},
		{"zero-padded zero", func() (int, error) { return Deltas(make([]uint64, 1), []byte{0x80, 0x00}) }},
		{"overlong varint", func() (int, error) { return Deltas(make([]int64, 1), bytes.Repeat([]byte{0xff}, 11)) }},
		{"negative unsigned", func() (int, error) { return Deltas(make([]uint64, 2), AppendDeltas(nil, []int64{4, -1})) }},
		{"truncated float", func() (int, error) { return Floats(make([]float64, 1), nan[:7]) }},
		{"NaN", func() (int, error) { return Floats(make([]float64, 1), nan) }},
	}
	for _, tc := range cases {
		if k, err := tc.dec(); !errors.Is(err, ErrCorrupt) || k != 0 {
			t.Errorf("%s: read %d bytes, err %v; want a refusal wrapping ErrCorrupt", tc.name, k, err)
		}
	}
	// A running value below zero is data in a signed column.
	if _, err := Deltas(make([]int64, 2), AppendDeltas(nil, []int64{4, -1})); err != nil {
		t.Fatalf("signed column refused a negative value: %v", err)
	}
}

// FuzzColumnRoundTrip drives the codec from both ends. Bytes a decoder
// accepts must re-encode byte-identically (one encoding per value), and
// int64, uint64 and float columns built from the input must survive an
// encode → decode round trip bit for bit.
func FuzzColumnRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x80, 0x00, 0x01}, uint8(2))
	f.Add(AppendDeltas(nil, []int64{-5, 0, 0, 1 << 40, math.MinInt64, math.MaxInt64}), uint8(6))
	f.Add(AppendFloats(nil, []float64{1, math.Inf(1), math.NaN()}), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		ints := make([]int64, n)
		if k, err := Deltas(ints, data); err == nil {
			if re := AppendDeltas(nil, ints); !bytes.Equal(re, data[:k]) {
				t.Fatalf("accepted int64 column re-encodes differently:\n in: %x\nout: %x", data[:k], re)
			}
		}
		uints := make([]uint64, n)
		if k, err := Deltas(uints, data); err == nil {
			if re := AppendDeltas(nil, uints); !bytes.Equal(re, data[:k]) {
				t.Fatalf("accepted uint64 column re-encodes differently:\n in: %x\nout: %x", data[:k], re)
			}
		}
		floats := make([]float64, n)
		if k, err := Floats(floats, data); err == nil {
			if re := AppendFloats(nil, floats); !bytes.Equal(re, data[:k]) {
				t.Fatalf("accepted float column re-encodes differently:\n in: %x\nout: %x", data[:k], re)
			}
		}

		var is []int64
		var us []uint64
		var fs []float64
		for off := 0; off+8 <= len(data); off += 8 {
			u := binary.LittleEndian.Uint64(data[off:])
			is = append(is, int64(u))
			us = append(us, u>>1)
			if v := math.Float64frombits(u); !math.IsNaN(v) {
				fs = append(fs, v)
			}
		}
		enc := AppendDeltas(nil, is)
		gotI := make([]int64, len(is))
		if k, err := Deltas(gotI, enc); err != nil || k != len(enc) {
			t.Fatalf("int64 round trip: read %d of %d bytes, %v", k, len(enc), err)
		}
		enc = AppendDeltas(nil, us)
		gotU := make([]uint64, len(us))
		if k, err := Deltas(gotU, enc); err != nil || k != len(enc) {
			t.Fatalf("uint64 round trip: read %d of %d bytes, %v", k, len(enc), err)
		}
		enc = AppendFloats(nil, fs)
		gotF := make([]float64, len(fs))
		if k, err := Floats(gotF, enc); err != nil || k != len(enc) {
			t.Fatalf("float round trip: read %d of %d bytes, %v", k, len(enc), err)
		}
		for i := range is {
			if gotI[i] != is[i] || gotU[i] != us[i] {
				t.Fatalf("value %d: (%d, %d), want (%d, %d)", i, gotI[i], gotU[i], is[i], us[i])
			}
		}
		for i := range fs {
			if math.Float64bits(gotF[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("float %d = %v, want %v", i, gotF[i], fs[i])
			}
		}
	})
}
