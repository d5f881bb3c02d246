package core

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/stats"
	"autosens/internal/timeutil"
)

// AlphaProfile is the time-based activity factor α evaluated per 6-hour
// local period — the quantity plotted in Figure 8 of the paper. PerBin
// holds α per latency bin before the averaging step (the figure shows it is
// roughly flat in latency, which justifies averaging); Mean is the averaged
// α for the period.
type AlphaProfile struct {
	BinCenters []float64
	PerBin     [timeutil.NumPeriods][]float64
	Mean       [timeutil.NumPeriods]float64
	Reference  timeutil.Period
}

// interval is a half-open absolute time range.
type interval struct{ lo, hi timeutil.Millis }

// periodStartHour maps each period to its local start hour.
func periodStartHour(p timeutil.Period) int {
	switch p {
	case timeutil.Period8am2pm:
		return 8
	case timeutil.Period2pm8pm:
		return 14
	case timeutil.Period8pm2am:
		return 20
	default:
		return 2
	}
}

// periodIntervals enumerates the absolute-time intervals during which a
// user at tzOffset is inside period p, clipped to [windowLo, windowHi).
func periodIntervals(p timeutil.Period, tz timeutil.Millis, windowLo, windowHi timeutil.Millis) []interval {
	h0 := timeutil.Millis(periodStartHour(p)) * timeutil.MillisPerHour
	const span = 6 * timeutil.MillisPerHour
	firstDay := timeutil.DayIndex(windowLo, tz) - 1
	lastDay := timeutil.DayIndex(windowHi, tz) + 1
	var out []interval
	for d := firstDay; d <= lastDay; d++ {
		localStart := timeutil.Millis(d)*timeutil.MillisPerDay + h0
		lo := localStart - tz
		hi := lo + span
		if lo < windowLo {
			lo = windowLo
		}
		if hi > windowHi {
			hi = windowHi
		}
		if lo < hi {
			out = append(out, interval{lo, hi})
		}
	}
	return out
}

// sweepIntervals sweeps sorted draw offsets into the union of the
// ascending, disjoint intervals ivs laid end to end into every histogram in
// hists: the offsets below the first interval's length fall in it, the
// next interval's length of them in the next, and so on. Each interval's
// run of keys is swept from its own start with its first key's rank in the
// whole schedule, so tie-break randomness is what one sweep over the union
// would take.
func sweepIntervals(times []timeutil.Millis, lats []float64, ivs []interval, keys []uint64, auxSeed uint64, hists ...*histogram.Histogram) {
	a, before := 0, timeutil.Millis(0) // the run's first key, the union's length before it
	for _, iv := range ivs {
		b := a + keysBelow(keys[a:], uint64(before+iv.hi-iv.lo))
		// Offset k of the run is the instant iv.lo + (k - before).
		sweepSortedKeys(times, lats, iv.lo-before, keys[a:b], a, auxSeed, hists...)
		a, before = b, before+iv.hi-iv.lo
	}
}

// AlphaByPeriod estimates the time-based activity factor α for each of the
// four 6-hour local periods relative to the given reference period
// (Figure 8 uses 8am–2pm), over usable rows as time-sorted time, latency
// and timezone-offset columns. Rows are grouped by (local period,
// timezone); each group's unbiased distribution is drawn from uniformly
// random instants inside that period's absolute intervals for its
// timezone (sweepIntervals), from the group's own split stream.
func (e *Estimator) AlphaByPeriod(times []timeutil.Millis, lats []float64, tzs []timeutil.Millis, ref timeutil.Period) (*AlphaProfile, error) {
	if err := checkColumns(times, lats); err != nil {
		return nil, err
	}
	if len(tzs) != len(times) {
		return nil, errColumnLengths
	}
	src := rng.New(e.opts.Seed)
	windowLo := times[0]
	windowHi := times[len(times)-1] + 1

	// Group by (period, tz).
	type key struct {
		p  timeutil.Period
		tz timeutil.Millis
	}
	groups := make(map[key]Columns)
	for i, t := range times {
		k := key{timeutil.PeriodOf(t, tzs[i]), tzs[i]}
		g := groups[k]
		g.Times, g.Lats = append(g.Times, t), append(g.Lats, lats[i])
		groups[k] = g
	}

	// Per-period biased and unbiased coarse histograms.
	var biased, unbiased [timeutil.NumPeriods]*histogram.Histogram
	for p := 0; p < timeutil.NumPeriods; p++ {
		biased[p] = histogram.MustNew(0, e.opts.MaxLatencyMS, e.opts.AlphaBinWidthMS)
		unbiased[p] = histogram.MustNew(0, e.opts.MaxLatencyMS, e.opts.AlphaBinWidthMS)
	}
	// Groups are visited in (period, tz) order, each drawing from its own
	// split stream, so α does not depend on map order.
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.p, b.p), cmp.Compare(a.tz, b.tz))
	})
	var draws, scratch []uint64
	for i, k := range keys {
		g, gsrc := groups[k], src.Split(uint64(i))
		for _, v := range g.Lats {
			biased[k.p].Add(v)
		}
		ivs := periodIntervals(k.p, k.tz, windowLo, windowHi)
		var span timeutil.Millis
		for _, iv := range ivs {
			span += iv.hi - iv.lo
		}
		if span == 0 {
			continue
		}
		draws = extend(draws[:0], drawCount(g.Len(), e.opts.UnbiasedPerSample))
		auxSeed := drawKeys(gsrc, uint64(span), draws, &scratch, false)
		sweepIntervals(g.Times, g.Lats, ivs, draws, auxSeed, unbiased[k.p])
	}

	// Rates and α.
	prof := &AlphaProfile{Reference: ref}
	bins := biased[0].Bins()
	prof.BinCenters = make([]float64, bins)
	for i := range prof.BinCenters {
		prof.BinCenters[i] = biased[0].Center(i)
	}
	refRate, ok := binRates(biased[ref], unbiased[ref], e.opts.MinAlphaBinCount)
	if !ok {
		return nil, errors.New("core: reference period has no usable latency bins")
	}
	// Periods cover equal spans of time, so rates are directly
	// comparable without duration scaling.
	for p := 0; p < timeutil.NumPeriods; p++ {
		prof.PerBin[p] = make([]float64, bins)
		if timeutil.Period(p) == ref {
			for i := range prof.PerBin[p] {
				if math.IsNaN(refRate[i]) {
					prof.PerBin[p][i] = math.NaN()
				} else {
					prof.PerBin[p][i] = 1
				}
			}
			prof.Mean[p] = 1
			continue
		}
		rate, ok := binRates(biased[p], unbiased[p], e.opts.MinAlphaBinCount)
		if !ok {
			for i := range prof.PerBin[p] {
				prof.PerBin[p][i] = math.NaN()
			}
			prof.Mean[p] = math.NaN()
			continue
		}
		for i := 0; i < bins; i++ {
			if math.IsNaN(rate[i]) || math.IsNaN(refRate[i]) || refRate[i] <= 0 {
				prof.PerBin[p][i] = math.NaN()
			} else {
				prof.PerBin[p][i] = rate[i] / refRate[i]
			}
		}
		if m, err := stats.MeanIgnoringNaN(prof.PerBin[p]); err == nil {
			prof.Mean[p] = m
		} else {
			prof.Mean[p] = math.NaN()
		}
	}
	return prof, nil
}
