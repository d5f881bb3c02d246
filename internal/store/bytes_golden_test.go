package store

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"autosens/internal/timeutil"
)

// goldenBlockRows is the fixed fixture behind TestBlockBytesGolden: two
// chunks (chunkRecs+300 rows), times running from negative to positive in
// groups of four equal times (one group straddles the chunk edge, its
// seqs ascending across it), seqs far from monotone in time order, a +Inf
// latency, user IDs past 2^33 and every tag byte value.
func goldenBlockRows() []row {
	rows := make([]row, chunkRecs+300)
	for i := range rows {
		g, k := (i+2)/4, (i+2)%4
		rows[i] = row{
			time: timeutil.Millis(g*7 - 3000),
			lat:  float64(i%1000) / 8,
			seq:  1<<34 + uint64((g*7919)%10007)*4 + uint64(k),
			user: uint64(i * 131),
			tag:  uint8(i),
		}
		if i%2 == 1 {
			rows[i].user += 1 << 33
		}
	}
	rows[100].lat = math.Inf(1)
	return rows
}

// TestBlockBytesGolden pins the block encoder's output bytes: the hash was
// recorded from the encoder before the column codec was shared, so any
// change to the on-disk form fails here.
func TestBlockBytesGolden(t *testing.T) {
	const want = "94f4f6a884fb6b08a6c328bb8f95e1932817917d8dc9e8030317e62c8dc0b80b"
	rows := goldenBlockRows()
	data := appendBlock(nil, rows)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("block bytes sha256 = %s, want %s", got, want)
	}
	got, err := decodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, rows, got)
}
