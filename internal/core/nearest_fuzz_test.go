package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// nearestAt is the per-draw reference for the nearest sample to the instant
// t, given idx, the first sample at or after t. mid reports an exact
// midpoint: samples idx-1 (the one returned) and idx are equally near.
func nearestAt(times []timeutil.Millis, idx int, t timeutil.Millis) (j int, mid bool) {
	switch {
	case idx == 0:
		return 0, false
	case idx == len(times):
		return idx - 1, false
	}
	dLeft, dRight := t-times[idx-1], times[idx]-t
	switch {
	case dLeft < dRight:
		return idx - 1, false
	case dRight < dLeft:
		return idx, false
	}
	return idx - 1, true
}

// tied reports whether sample j shares its timestamp with a neighbour.
func tied(times []timeutil.Millis, j int) bool {
	return (j > 0 && times[j-1] == times[j]) || (j+1 < len(times) && times[j+1] == times[j])
}

// pickTied is the per-draw reference tie-break: the aux word's top bit
// picks the side of an exact midpoint, the word modulo the run size picks
// within the chosen sample's equal-timestamp run.
func pickTied(times []timeutil.Millis, j int, mid bool, aux uint64) int {
	if mid && aux>>63 != 0 {
		j++
	}
	rLo, rHi := j, j
	for rLo > 0 && times[rLo-1] == times[j] {
		rLo--
	}
	for rHi+1 < len(times) && times[rHi+1] == times[j] {
		rHi++
	}
	return rLo + int(aux%uint64(rHi-rLo+1))
}

// tiedDraw is a draw that took the tie path: its rank and the record the
// aux word Mix64(seed + rank) picks.
type tiedDraw struct{ rank, pick int }

// nearestCase is a kernel input decoded from fuzz bytes.
type nearestCase struct {
	times  []timeutil.Millis
	lats   []float64
	lo     timeutil.Millis
	keys   []uint64 // sorted; with tag 32, offset<<32 | generation
	tag    uint
	quota  uint32
	i1, i2 int // the swept sub-range of keys
}

// decodeNearest builds a time column from data — each byte one record, its
// low three bits a gap (0 a timestamp tie; even and odd gaps) — a lo up to
// 4 ms before the first record, and a sorted schedule of keys over a span
// reaching past the last record, drawn from seed, of which the middle half
// or more is swept. Tagged, every key carries its generation and about one
// in five generations lies at or past the quota.
func decodeNearest(seed uint64, data []byte, tagged bool) nearestCase {
	gaps := [8]timeutil.Millis{0, 0, 0, 1, 2, 3, 4, 10}
	var c nearestCase
	t := timeutil.Millis(-37)
	for _, b := range data {
		t += gaps[b&7]
		c.times = append(c.times, t)
		c.lats = append(c.lats, float64(b>>3))
	}
	src := rng.New(seed)
	c.lo = c.times[0] - timeutil.Millis(src.Uint64n(5))
	span := uint64(c.times[len(c.times)-1]-c.lo) + 1 + src.Uint64n(8)
	n := 1 + int(src.Uint64n(uint64(8*len(data)+8)))
	c.keys = make([]uint64, n)
	src.FillUint64n(c.keys, span)
	c.quota = allDraws
	if tagged {
		c.tag = 32
		c.quota = uint32(n - n/5)
		for g := range c.keys {
			c.keys[g] = c.keys[g]<<32 | uint64(g)
		}
	}
	slices.Sort(c.keys)
	c.i1 = int(src.Uint64n(uint64(n/4 + 1)))
	c.i2 = n - int(src.Uint64n(uint64(n/4+1)))
	return c
}

// FuzzNearestSweep holds sweepNearest to the per-draw reference over a
// decoded time column with heavy ties, even and odd gaps and a lo before
// the first record: over a sub-range of a sorted schedule, untagged and
// generation-filtered, the certain draws must make the same histogram bits
// and the tie-path draws the same ranks and picks as nearestAt and pickTied
// key by key. Unfiltered, the certain draws reported for record j must be
// exactly the keys the reference adopts j for.
func FuzzNearestSweep(f *testing.F) {
	f.Add(uint64(1), []byte{0x12, 0x0b, 0x22, 0x31, 0x44, 0x51, 0x63, 0x70, 0x82, 0x94, 0xa1, 0xb5, 0xc3, 0xd0, 0xe6, 0xf2})
	f.Add(uint64(2), []byte{4, 4, 4, 4, 5, 5, 6, 6, 7})
	f.Add(uint64(3), []byte{9, 8, 0x1c, 0x2c, 0x3c, 0x4b, 0x5b, 0x6b, 0x7a, 0x89, 0x98})
	f.Add(uint64(4), []byte{0xff})
	f.Add(uint64(5), []byte{3, 3, 0, 0, 3, 0, 3, 4, 4, 0, 6})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) == 0 || len(data) > 1500 {
			return
		}
		for _, tagged := range []bool{false, true} {
			c := decodeNearest(seed, data, tagged)
			checkNearestSweep(t, c, seed)
		}
	})
}

func checkNearestSweep(t *testing.T, c nearestCase, seed uint64) {
	t.Helper()
	newHist := func() *histogram.Histogram { return histogram.MustNew(0, 32, 1) }
	drawn := func(k uint64) bool { return c.tag == 0 || uint32(k) < c.quota }

	// The reference, key by key over the whole schedule.
	want, wantTies := newHist(), []tiedDraw(nil)
	wantAdopt := make([]int, len(c.keys)) // record, or -1 on the tie path
	rank, rank0 := 0, 0
	for k, key := range c.keys {
		if k == c.i1 {
			rank0 = rank
		}
		if !drawn(key) {
			continue
		}
		at := c.lo + timeutil.Millis(key>>c.tag)
		idx := sort.Search(len(c.times), func(i int) bool { return c.times[i] >= at })
		j, mid := nearestAt(c.times, idx, at)
		inRange := k >= c.i1 && k < c.i2
		switch {
		case mid || tied(c.times, j):
			wantAdopt[k] = -1
			if inRange {
				wantTies = append(wantTies, tiedDraw{rank, pickTied(c.times, j, mid, rng.Mix64(seed+uint64(rank)))})
			}
		case inRange:
			wantAdopt[k] = j
			want.Add(c.lats[j])
		default:
			wantAdopt[k] = j
		}
		rank++
	}

	got, gotTies := newHist(), []tiedDraw(nil)
	gotAdopt := make([]int, len(c.keys))
	for k := range gotAdopt {
		gotAdopt[k] = -2 // not reported
	}
	sweepNearest(c.times, c.lo, c.keys[c.i1:c.i2], c.tag, c.quota, rank0,
		func(j0, k0 int, counts []uint64) {
			got.AddCounts(c.lats[j0:], counts)
			k := c.i1 + k0
			for i, m := range counts {
				for ; m > 0; m-- {
					gotAdopt[k] = j0 + i
					k++
				}
			}
		},
		func(rank, k, j int, at timeutil.Millis) {
			gotTies = append(gotTies, tiedDraw{rank, pickAt(c.times, j, at, rng.Mix64(seed+uint64(rank)))})
			gotAdopt[c.i1+k] = -1
		})

	for b := 0; b < want.Bins(); b++ {
		if math.Float64bits(got.Count(b)) != math.Float64bits(want.Count(b)) {
			t.Fatalf("tag=%d keys[%d:%d]: bin %d holds %v certain draws, want %v", c.tag, c.i1, c.i2, b, got.Count(b), want.Count(b))
		}
	}
	if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
		t.Fatalf("tag=%d keys[%d:%d]: total %v, want %v", c.tag, c.i1, c.i2, got.Total(), want.Total())
	}
	if !slices.Equal(gotTies, wantTies) {
		t.Fatalf("tag=%d keys[%d:%d]: tie-path draws %v, want %v", c.tag, c.i1, c.i2, gotTies, wantTies)
	}
	if c.tag != 0 {
		return // filtered certain draws are counted, not placed
	}
	for k := c.i1; k < c.i2; k++ {
		if gotAdopt[k] != wantAdopt[k] {
			t.Fatalf("keys[%d:%d]: key %d adopts %d, want %d (-1: tie path, -2: unreported)", c.i1, c.i2, k, gotAdopt[k], wantAdopt[k])
		}
	}
}
