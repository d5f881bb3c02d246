package store

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"autosens/internal/timeutil"
)

// FuzzBlockRoundTrip drives the block codec from both ends. Arbitrary
// bytes must never panic the decoder, and anything it accepts must
// re-encode to an equally decodable block holding the same rows. Rows
// derived from the fuzz input must survive an encode → decode round trip
// bit for bit — times, latencies, seqs, users and tags. Whatever the
// decoder accepts with user IDs it must accept without them (the scan
// path's decode), with identical time, latency, seq and tag columns.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ASBK\x01"))
	f.Add([]byte("ASBK\x01\x03garbage-chunk-header"))
	f.Add(appendBlock(nil, []row{
		{time: 5, lat: 120.5, seq: 0, user: 7, tag: 3},
		{time: 5, lat: 99.25, seq: 4, user: 9, tag: 0},
		{time: 1 << 41, lat: 0.125, seq: 1 << 50, user: 1 << 33, tag: 0xff},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rows, err := decodeBlock(data); err == nil {
			requireUsersIrrelevant(t, data)
			re := appendBlock(nil, rows)
			rows2, err := decodeBlock(re)
			if err != nil {
				t.Fatalf("re-encode of an accepted block does not decode: %v", err)
			}
			requireRowsEqual(t, rows, rows2)
		}

		rows := rowsFromFuzz(data)
		enc := appendBlock(nil, rows)
		got, err := decodeBlock(enc)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		requireRowsEqual(t, rows, got)
		requireUsersIrrelevant(t, enc)
	})
}

// requireUsersIrrelevant decodes an accepted block with and without user
// IDs and requires both to succeed with the same other columns.
func requireUsersIrrelevant(t *testing.T, data []byte) {
	t.Helper()
	var with, without blockCols
	if err := decodeBlockCols(data, allTime, allCols, &with); err != nil {
		t.Fatalf("decode with user IDs: %v", err)
	}
	if err := decodeBlockCols(data, allTime, tagCols, &without); err != nil {
		t.Fatalf("decode without user IDs refused an accepted block: %v", err)
	}
	if !slices.Equal(with.Times, without.Times) || !slices.Equal(with.Seqs, without.Seqs) ||
		!slices.Equal(with.tags, without.tags) || len(with.Lats) != len(without.Lats) {
		t.Fatal("decodes with and without user IDs disagree")
	}
	for i := range with.Lats {
		if math.Float64bits(with.Lats[i]) != math.Float64bits(without.Lats[i]) {
			t.Fatalf("latency %d: %v with user IDs, %v without", i, with.Lats[i], without.Lats[i])
		}
	}
	if len(without.users) != 0 {
		t.Fatalf("decode without user IDs parsed %d of them", len(without.users))
	}
}

// rowsFromFuzz shapes raw fuzz bytes into a valid row set: (time, seq)
// sorted with no duplicate (time, seq) pair, finite latencies.
func rowsFromFuzz(data []byte) []row {
	var rows []row
	for off := 0; off+20 <= len(data); off += 20 {
		rows = append(rows, row{
			time: timeutil.Millis(int64(binary.LittleEndian.Uint64(data[off:])) % (1 << 41)),
			lat:  float64(int16(binary.LittleEndian.Uint16(data[off+8:]))) / 8,
			seq:  binary.LittleEndian.Uint64(data[off+10:]) % (1 << 50),
			user: uint64(binary.LittleEndian.Uint16(data[off+18:])),
			tag:  data[off+19],
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].time != rows[j].time {
			return rows[i].time < rows[j].time
		}
		return rows[i].seq < rows[j].seq
	})
	out := rows[:0]
	for i := range rows {
		if i > 0 && rows[i].time == out[len(out)-1].time && rows[i].seq == out[len(out)-1].seq {
			continue
		}
		out = append(out, rows[i])
	}
	return out
}

func requireRowsEqual(t *testing.T, want, got []row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d rows decoded, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
