package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// curveBits is every number a curve carries, in a fixed binary layout.
func curveBits(c *Curve) []byte {
	var b []byte
	for _, xs := range [][]float64{c.BinCenters, c.Biased, c.Unbiased, c.Raw, c.Smoothed, c.NLP,
		{c.ReferenceMS, float64(c.BiasedN), float64(c.UnbiasedN)}} {
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	for _, v := range c.Valid {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// replicatesMatchBatch runs every replicate of a time-normalized bootstrap
// over the columns through the shared slot state and from scratch over the
// same resampled series, and fails unless each yields the same curve bytes
// or the same error text, and is cut into the slots cutSlots cuts that
// series into. Tables are cut to quarters/4 of their size, so a
// value below 4 sends the larger replicates' quotas past them. It returns
// the slot counts of the shared path and how many (rank, original slot)
// pairs recur: full-span slots of retained rank r that re-time original
// slot s whole, within the table, under two or more quotas.
func replicatesMatchBatch(t testing.TB, e *Estimator, times []timeutil.Millis, lats []float64, opts CIOptions, quarters int) (repStats, int) {
	t.Helper()
	bb, err := partitionBlocks(times, lats, opts.BlockLen)
	if err != nil {
		return repStats{}, 0
	}
	one := *e
	one.opts.Workers = 1
	base := rng.New(opts.Seed)
	srcs := make([]*rng.Source, opts.Resamples)
	for rep := range srcs {
		srcs[rep] = base.Split(uint64(rep))
	}
	nb := one.newNormBoot(bb, srcs)
	if nb == nil {
		t.Fatal("no shared state for 16-bit bins")
	}
	nb.size = nb.size * quarters / 4
	scratches := make([]ciScratch, 2)
	one.planPairs(bb, nb, srcs, scratches)
	sc, ref := &scratches[0], &ciScratch{}
	dur := one.opts.SlotDuration
	quotas := make(map[[2]int]map[int]bool)
	for rep, src := range srcs {
		// The from-scratch reference: the whole resampled series.
		s := *src
		bb.pick(&s, ref)
		bb.resample(ref)
		times, lats := ref.series.times, ref.series.lats
		if len(times) == 0 {
			continue
		}
		cuts, totalDur := one.cutSlots(nil, times)
		for r, c := range cuts {
			quota := one.drawQuota(len(times), c.hi-c.lo, totalDur)
			pos, ok := bb.blockOf(c.slot, dur)
			if !ok || nb.step == 0 || c.hi-c.lo != dur || quota > nb.size {
				continue
			}
			origin := c.slot - (pos-ref.picks[pos])*nb.step
			if _, ok := bb.blockOf(origin, dur); !ok {
				continue
			}
			pair := [2]int{r, origin}
			if quotas[pair] == nil {
				quotas[pair] = make(map[int]bool)
			}
			quotas[pair][quota] = true
		}
		want, wantErr := one.estimateTimeNormalizedColumns(nil, times, lats)
		s = *src
		got, gotErr := one.runNormalizedReplicate(bb, nb, rep, &s, sc)
		if !slices.Equal(sc.cuts, cuts) {
			t.Fatalf("replicate %d: cut into %v, want cutSlots' %v", rep, sc.cuts, cuts)
		}
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("replicate %d: shared path error %v, batch error %v", rep, gotErr, wantErr)
		case wantErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("replicate %d: shared path error %q, batch error %q", rep, gotErr, wantErr)
			}
		case string(curveBits(got)) != string(curveBits(want)):
			t.Fatalf("replicate %d: shared path curve differs from the batch estimate", rep)
		}
	}
	recurring := 0
	for _, qs := range quotas {
		if len(qs) > 1 {
			recurring++
		}
	}
	sc.stats.add(scratches[1].stats)
	return sc.stats, recurring
}

// gridColumns is a stream whose records sit on multiples of grid over
// [lo, lo+span), a Poisson number per grid instant: a coarse grid makes
// equal-timestamp runs and exact midpoints common. Latency steps up every
// third stretch of 2·grid·32 ms so slots differ.
func gridColumns(seed uint64, lo, span, grid timeutil.Millis, perInstant float64) ([]timeutil.Millis, []float64) {
	src := rng.New(seed)
	var times []timeutil.Millis
	var lats []float64
	for t := lo - lo%grid; t < lo+span; t += grid {
		for k := src.Poisson(perInstant); k > 0; k-- {
			lat := 120 + 80*src.LogNormal(0, 0.6)
			if (t/(64*grid))%3 == 0 {
				lat *= 2.5
			}
			times = append(times, t)
			lats = append(lats, lat)
		}
	}
	return times, lats
}

// TestNormalizedReplicatesMatchBatch is the differential check of the
// bootstrap's shared slot state: every replicate's curve (or refusal) must
// be the from-scratch estimate's over the same resampled series, on inputs
// that put each shortcut under stress — ties and exact midpoints, blocks
// that do not tile into slots (no biased reuse, the series resampled), thin
// slots that shift every later slot's rank, windows across Go's truncating
// t/dur at 0 (the series resampled), a gap that empties a block, a window
// starting on a slot boundary (no slot straddles a block edge), and the
// fewest replicates. The 40-replicate cases make (rank, original slot)
// pairs recur under different quotas, tie-heavy ones included.
func TestNormalizedReplicatesMatchBatch(t *testing.T) {
	const h = timeutil.MillisPerHour
	owaTimes, owaLats := owasimColumns(t, 3, 25, 25, 23)
	negTimes := make([]timeutil.Millis, len(owaTimes))
	onHour := make([]timeutil.Millis, len(owaTimes))
	var gapTimes []timeutil.Millis
	var gapLats []float64
	for i, tm := range owaTimes {
		negTimes[i] = tm - 30*h - 1234
		onHour[i] = tm - owaTimes[0]%h + 2*h
		if tm-owaTimes[0] < 30*h || tm-owaTimes[0] >= 39*h {
			gapTimes, gapLats = append(gapTimes, tm), append(gapLats, owaLats[i])
		}
	}
	tieTimes, tieLats := gridColumns(5, 0, 64*48, 2, 1.2)
	tieNegTimes, tieNegLats := gridColumns(6, -64*20-7, 64*40, 2, 1.2)
	runTimes, runLats := tieColumns(5, -1000, 48)
	// A sparse millisecond grid: a few tie keys a slot, too few to send a
	// pair back to the per-slot sweep.
	sparseTimes, sparseLats := gridColumns(7, 0, 1024*48, 1, 0.05)
	sparseOpts := DefaultOptions()
	sparseOpts.SlotDuration = 1024
	sparseOpts.MinSlotActions = 20
	hourOpts := func(minSlot int) Options {
		o := DefaultOptions()
		o.MinSlotActions = minSlot
		return o
	}
	cases := []struct {
		name      string
		times     []timeutil.Millis
		lats      []float64
		opts      Options
		blockLen  timeutil.Millis
		resamples int
		reuse     bool // whole-carried slots expected
		quarters  int  // table size, in quarters of the replicates' largest quota
		recur     bool // pairs recurring under different quotas expected
	}{
		{"owasim", owaTimes, owaLats, hourOpts(10), 6 * h, 8, true, 4, true},
		{"owasim-5h", owaTimes, owaLats, hourOpts(10), 5 * h, 8, true, 4, true},
		{"owasim-90min", owaTimes, owaLats, hourOpts(10), 90 * timeutil.MillisPerMinute, 8, false, 4, false},
		{"owasim-thin", owaTimes, owaLats, hourOpts(120), 6 * h, 8, true, 4, true},
		{"owasim-across-0", negTimes, owaLats, hourOpts(10), 6 * h, 8, true, 4, true},
		{"owasim-gap", gapTimes, gapLats, hourOpts(10), 6 * h, 8, true, 4, true},
		{"owasim-on-hour", onHour, owaLats, hourOpts(10), 6 * h, 8, true, 4, true},
		{"owasim-2", owaTimes, owaLats, hourOpts(10), 6 * h, 2, true, 4, false},
		{"owasim-small-tables", owaTimes, owaLats, hourOpts(10), 6 * h, 8, true, 3, false},
		{"owasim-40", owaTimes, owaLats, hourOpts(10), 6 * h, 40, true, 4, true},
		{"owasim-40-small-tables", owaTimes, owaLats, hourOpts(10), 6 * h, 40, true, 3, true},
		{"ties", tieTimes, tieLats, tieOptions(1), 6 * 64, 8, true, 4, true},
		{"ties-5", tieTimes, tieLats, tieOptions(1), 5 * 64, 8, true, 4, true},
		{"ties-96", tieTimes, tieLats, tieOptions(1), 96, 8, false, 4, false},
		{"ties-across-0", tieNegTimes, tieNegLats, tieOptions(1), 6 * 64, 8, true, 4, true},
		{"ties-40", tieTimes, tieLats, tieOptions(1), 6 * 64, 40, true, 4, true},
		{"runs-40", runTimes, runLats, tieOptions(1), 6 * 64, 40, true, 4, true},
		{"sparse-ties-40", sparseTimes, sparseLats, sparseOpts, 6 * 1024, 40, true, 4, true},
	}
	var total repStats
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewEstimator(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultCIOptions()
			opts.TimeNormalized = true
			opts.BlockLen = c.blockLen
			opts.Resamples = c.resamples
			st, recurring := replicatesMatchBatch(t, e, c.times, c.lats, opts, c.quarters)
			t.Logf("%+v, %d recurring pairs", st, recurring)
			if (recurring > 0) != c.recur {
				t.Errorf("%d pairs recur under different quotas, want recurrence %v", recurring, c.recur)
			}
			if st.table+st.filled == 0 || st.fallback == 0 {
				t.Errorf("%d table slots, %d pair slots, %d fallback slots: tables and the batch kernel must both run",
					st.table, st.filled, st.fallback)
			}
			if (st.reused > 0) != c.reuse {
				t.Errorf("%d biased histograms reused, want reuse %v", st.reused, c.reuse)
			}
			if (st.pairs > 0) != c.reuse {
				t.Errorf("%d pairs swept, want pairs %v", st.pairs, c.reuse)
			}
			// Replicates are slotted from their picks exactly when blocks
			// tile into slots and no instant is below 0.
			if sliced := c.blockLen%c.opts.SlotDuration == 0 && c.times[0] >= 0; (st.resampled == 0) != sliced {
				t.Errorf("%d of %d replicates resampled, want slotting from picks %v", st.resampled, c.resamples, sliced)
			}
			total.add(st)
		})
	}
	// Every path runs somewhere in the table: per-slot table sweeps, slots
	// filled from a pair, the batch kernel, reused biased histograms, slots
	// joined across a block edge, pairs sent back for their tie keys, and
	// resampled series.
	if total.table == 0 || total.filled == 0 || total.fallback == 0 || total.reused == 0 || total.joined == 0 ||
		total.tied == 0 || total.resampled == 0 {
		t.Errorf("over all cases %+v: every path must run", total)
	}
}

// FuzzNormalizedReplicateMatchesBatch is the differential check over
// generated grids, slot and block lengths, thin-slot thresholds and table
// sizes. Seeds 5–7 make (rank, original slot) pairs recur under different
// quotas: over a tie-heavy grid, over equal-timestamp runs, and over a
// sparse millisecond grid whose few tie keys leave its pairs filled. Seed 8
// has a grid coarser than its blocks, so every other block is empty, and
// seed 9 a window starting on a slot boundary.
func FuzzNormalizedReplicateMatchesBatch(f *testing.F) {
	f.Add(uint64(1), int16(0), uint8(64), uint8(2), uint8(6), uint8(1), uint8(20), uint8(48), uint8(12), uint8(3))
	f.Add(uint64(2), int16(-1500), uint8(64), uint8(2), uint8(5), uint8(1), uint8(20), uint8(40), uint8(12), uint8(3))
	f.Add(uint64(3), int16(77), uint8(50), uint8(3), uint8(3), uint8(2), uint8(5), uint8(30), uint8(20), uint8(2))
	f.Add(uint64(4), int16(-9), uint8(16), uint8(1), uint8(7), uint8(4), uint8(1), uint8(60), uint8(3), uint8(1))
	f.Add(uint64(5), int16(0), uint8(64), uint8(1), uint8(5), uint8(0), uint8(19), uint8(40), uint8(11), uint8(3))
	f.Add(uint64(6), int16(700), uint8(64), uint8(7), uint8(3), uint8(0), uint8(9), uint8(30), uint8(31), uint8(3))
	f.Add(uint64(7), int16(13), uint8(199), uint8(0), uint8(5), uint8(0), uint8(4), uint8(40), uint8(0), uint8(3))
	f.Add(uint64(8), int16(0), uint8(0), uint8(7), uint8(0), uint8(0), uint8(0), uint8(60), uint8(31), uint8(3))
	f.Add(uint64(9), int16(128), uint8(60), uint8(1), uint8(6), uint8(0), uint8(9), uint8(40), uint8(15), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, lo int16, slotDur, grid, blockNum, blockDen, minSlot, slots, rate, quarters uint8) {
		dur := timeutil.Millis(slotDur%200) + 4
		g := timeutil.Millis(grid%8) + 1
		blockLen := dur * timeutil.Millis(blockNum%12+1) / timeutil.Millis(blockDen%4+1)
		if blockLen <= 0 {
			return
		}
		times, lats := gridColumns(seed, timeutil.Millis(lo), dur*timeutil.Millis(slots%64+2), g, float64(rate%32+1)/10)
		if len(times) == 0 {
			return
		}
		o := DefaultOptions()
		o.SlotDuration = dur
		o.MinSlotActions = int(minSlot%40) + 1
		e, err := NewEstimator(o)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultCIOptions()
		opts.TimeNormalized = true
		opts.BlockLen = blockLen
		opts.Resamples = 3
		opts.Seed = seed
		st, recurring := replicatesMatchBatch(t, e, times, lats, opts, int(quarters%4)+1)
		t.Logf("%+v, %d recurring pairs", st, recurring)
	})
}
