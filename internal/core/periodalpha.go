package core

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/stats"
	"autosens/internal/telemetry"
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

// intervalSampler draws uniform times over a union of disjoint intervals.
type intervalSampler struct {
	ivs   []interval
	cum   []timeutil.Millis // cumulative lengths
	total timeutil.Millis
}

func newIntervalSampler(ivs []interval) *intervalSampler {
	s := &intervalSampler{ivs: ivs, cum: make([]timeutil.Millis, len(ivs))}
	for i, iv := range ivs {
		s.total += iv.hi - iv.lo
		s.cum[i] = s.total
	}
	return s
}

// draw returns a uniformly random time within the union.
func (s *intervalSampler) draw(src *rng.Source) timeutil.Millis {
	off := timeutil.Millis(src.Uint64n(uint64(s.total)))
	i := sort.Search(len(s.cum), func(k int) bool { return s.cum[k] > off })
	prev := timeutil.Millis(0)
	if i > 0 {
		prev = s.cum[i-1]
	}
	return s.ivs[i].lo + (off - prev)
}

// AlphaByPeriod estimates the time-based activity factor α for each of the
// four 6-hour local periods relative to the given reference period
// (Figure 8 uses 8am–2pm). Records are grouped by the user's local period;
// each period's unbiased distribution is sampled from random times inside
// that period's absolute intervals, per represented timezone.
func (e *Estimator) AlphaByPeriod(records []telemetry.Record, ref timeutil.Period) (*AlphaProfile, error) {
	records = telemetry.Successful(records)
	if len(records) == 0 {
		return nil, errors.New("core: no usable records")
	}
	telemetry.SortByTime(records)
	src := rng.New(e.opts.Seed)
	windowLo := records[0].Time
	windowHi := records[len(records)-1].Time + 1

	// Group by (period, tz).
	type key struct {
		p  timeutil.Period
		tz timeutil.Millis
	}
	groups := make(map[key][]telemetry.Record)
	for _, r := range records {
		k := key{timeutil.PeriodOf(r.Time, r.TZOffset), r.TZOffset}
		groups[k] = append(groups[k], r)
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
	for i, k := range keys {
		rs, gsrc := groups[k], src.Split(uint64(i))
		for _, r := range rs {
			biased[k.p].Add(r.LatencyMS)
		}
		ivs := periodIntervals(k.p, k.tz, windowLo, windowHi)
		if len(ivs) == 0 {
			continue
		}
		sampler := newUnbiasedSampler(rs)
		times := newIntervalSampler(ivs)
		draws := int(math.Ceil(float64(len(rs)) * e.opts.UnbiasedPerSample))
		for j := 0; j < draws; j++ {
			unbiased[k.p].Add(sampler.nearest(times.draw(gsrc), gsrc))
		}
	}

	// Rates and α.
	prof := &AlphaProfile{Reference: ref}
	bins := biased[0].Bins()
	prof.BinCenters = make([]float64, bins)
	for i := range prof.BinCenters {
		prof.BinCenters[i] = biased[0].Center(i)
	}
	refRate, ok := periodRates(biased[ref], unbiased[ref], e.opts.MinAlphaBinCount)
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
		rate, ok := periodRates(biased[p], unbiased[p], e.opts.MinAlphaBinCount)
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

// periodRates mirrors binRates for period histograms.
func periodRates(b, u *histogram.Histogram, minCount float64) ([]float64, bool) {
	bins := b.Bins()
	out := make([]float64, bins)
	uTotal := u.Total()
	any := false
	for i := 0; i < bins; i++ {
		c := b.Count(i)
		uc := u.Count(i)
		if c < minCount || uc < minCount || uTotal == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = c / (uc / uTotal)
		any = true
	}
	return out, any
}
