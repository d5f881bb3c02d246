package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"autosens/internal/timeutil"
)

// plainFolds cuts sorted columns into the fold schedules an Incremental is
// pinned over, seqs being column positions: an advancing stream (each delta
// later than everything held, so the window moves and the sweep rebuilds),
// in-window backfill (delta-maintained folds) and a delta before the first
// record (the window's start moves).
func plainFolds(times []timeutil.Millis, lats []float64) map[string][]Columns {
	n := len(times)
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	span := func(i, j int) Columns { return Columns{Times: times[i:j], Lats: lats[i:j], Seqs: seqs[i:j]} }
	pick := func(keep func(i int) bool) Columns {
		var d Columns
		for i := range times {
			if keep(i) {
				d.Times, d.Lats, d.Seqs = append(d.Times, times[i]), append(d.Lats, lats[i]), append(d.Seqs, seqs[i])
			}
		}
		return d
	}
	adv := []Columns{span(0, n/2)}
	for k := 0; k < 4; k++ {
		adv = append(adv, span(n/2+k*(n-n/2)/4, n/2+(k+1)*(n-n/2)/4))
	}
	back := []Columns{pick(func(i int) bool { return i%4 != 1 || i == n-1 })}
	for k := 0; k < 3; k++ {
		back = append(back, pick(func(i int) bool { return i%4 == 1 && i != n-1 && i/4%3 == k }))
	}
	moved := []Columns{span(n/3, n), span(0, n/3)}
	return map[string][]Columns{"advancing": adv, "backfill": back, "window start moved": moved}
}

// TestPlainBytesGolden pins the plain point curve and plain band bytes, or
// their refusals, from the stateless finisher and from an Incremental after
// every fold of advancing, backfill and window-moving schedules, over a
// tie-heavy fixture (equal-timestamp runs, exact midpoints, a negative lo)
// and a simulated one, as recorded and at a 5 s resolution. Workers 1, 2 and
// 8 with a lowered chunk threshold run the partitioned key draw and the
// split sweeps; every worker count must give the same hash.
func TestPlainBytesGolden(t *testing.T) {
	splitSmall(t, 256)
	owaTimes, owaLats := owasimColumns(t, 2, 10, 10, 29)
	tieTimes, tieLats := tieColumns(7, -1000, 64)
	// The simulated stream at 5 s resolution: a few hundred draws on
	// equal-timestamp runs, too few for the Incremental to degrade.
	coarse := make([]timeutil.Millis, len(owaTimes))
	for i, x := range owaTimes {
		coarse[i] = x - x%5000
	}
	defaults := func(w int) Options {
		o := DefaultOptions()
		o.Workers = w
		return o
	}
	cases := []struct {
		name     string
		times    []timeutil.Millis
		lats     []float64
		opts     func(workers int) Options
		blockLen timeutil.Millis
		want     string
	}{
		{"owasim", owaTimes, owaLats, defaults, 6 * timeutil.MillisPerHour,
			"6898470dc8939be0857e998ba89ec51ef67c9565b5af157d6869ed7528bc1f83"},
		{"owasim at 5 s", coarse, owaLats, defaults, 6 * timeutil.MillisPerHour,
			"b3a41826b6e01dedf494096a86e16527457f154a27ab43c0ad8504f7829fde7f"},
		{"ties", tieTimes, tieLats, tieOptions, 8 * 64,
			"c20e98b457f78d06802c04cf180eef158047fae310317819f78e87146bb3e34f"},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2, 8} {
			e, err := NewEstimator(c.opts(w))
			if err != nil {
				t.Fatal(err)
			}
			ciOpts := DefaultCIOptions()
			ciOpts.Resamples = 8
			ciOpts.BlockLen = c.blockLen
			ciOpts.Workers = w
			reqs := []Request{{}, bandRequest(ciOpts)}
			h := sha256.New()
			record := func(ci *CurveCI, err error) {
				if err != nil {
					h.Write([]byte("error: " + err.Error()))
					return
				}
				h.Write(bandBytes(ci))
			}
			for _, req := range reqs {
				record(e.Finish(req, summaryOf(c.times, c.lats), nil))
			}
			folds := plainFolds(c.times, c.lats)
			for _, name := range []string{"advancing", "backfill", "window start moved"} {
				inc := e.NewIncremental()
				for _, d := range folds[name] {
					if err := inc.Fold(d.Times, d.Lats, d.Seqs); err != nil {
						t.Fatal(err)
					}
					for _, req := range reqs {
						record(inc.Finish(req))
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("%s workers=%d: plain bytes sha256 = %s, want %s (%d records)",
					c.name, w, got, c.want, len(c.times))
			}
		}
	}
}
