package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"autosens/internal/histogram"
	"autosens/internal/timeutil"
)

// TestPartialBytesGolden pins the partial encoder's output bytes for four
// fixed fixtures: the hashes were recorded from the encoder before the
// column codec was shared, so any change to the wire form fails here.
func TestPartialBytesGolden(t *testing.T) {
	h := histogram.MustNew(0, 1000, 10)
	lats := []float64{120, 55.5, math.Inf(1), 0, 430.25, 999}
	for _, v := range lats {
		if !math.IsInf(v, 0) {
			h.Add(v)
		}
	}
	cols := Partial{
		Times: []timeutil.Millis{-400, -400, 0, 10, 10, 1 << 40},
		Lats:  lats,
		Seqs:  []uint64{1 << 40, 1<<40 + 3, 7, 19, 20, 2},
	}
	withHist := cols
	withHist.Version, withHist.Hist = 42, h
	noHist := cols
	noHist.Version = 1 << 60
	windowed := cols
	windowed.Version, windowed.Hist = 5, h
	windowed.Windowed, windowed.WindowFrom, windowed.WindowTo = true, -400, 0

	for _, tc := range []struct {
		name string
		p    *Partial
		want string
	}{
		{"v1 with histogram", &withHist, "fb3819f02652034ba5173e5fce43c9eb24bee9a8e979f2df352205c1934fc6b4"},
		{"v1 without histogram", &noHist, "1f19710049845f43713d7dddbd95183364d52b403d2294d0d984049ca3cdc4db"},
		{"v2 windowed unbounded", &windowed, "23eca33552a582b13141f5a8c420eb47a2a58581df528b92f4463cb808e38959"},
		{"empty", &Partial{Version: 7}, "0de72ce2e196f52b05cddf08abd835c98694cf95a097db6061dfbe13f7bde4f7"},
	} {
		enc := AppendPartial(nil, tc.p)
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: partial bytes sha256 = %s, want %s", tc.name, got, tc.want)
		}
		if p, err := DecodePartial(enc); err != nil || !bytes.Equal(AppendPartial(nil, p), enc) {
			t.Errorf("%s: fixture does not round-trip: %v", tc.name, err)
		}
	}
}
