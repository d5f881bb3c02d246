package core

import (
	"sort"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// unbiasedSampler is the per-draw form of the unbiased sampling of Section
// 2.2, kept as the distributional reference for the sweep: pick a uniformly
// random time in the window and adopt the latency of the sample nearest in
// time; when several samples are equally near (same timestamp, or an exact
// midpoint), pick one at random. Every draw binary-searches the time-sorted
// samples and takes its tie-break randomness from the key stream.
type unbiasedSampler struct {
	times     []timeutil.Millis
	latencies []float64
}

// draw picks one unbiased latency for a random time in [lo, hi).
func (s *unbiasedSampler) draw(lo, hi timeutil.Millis, src *rng.Source) float64 {
	t := lo + timeutil.Millis(src.Uint64n(uint64(hi-lo)))
	return s.nearest(t, src)
}

// nearest returns the latency of the sample closest in time to t, breaking
// ties uniformly at random.
func (s *unbiasedSampler) nearest(t timeutil.Millis, src *rng.Source) float64 {
	n := len(s.times)
	idx := sort.Search(n, func(i int) bool { return s.times[i] >= t })
	// Candidate on each side of the insertion point.
	switch {
	case idx == 0:
		return s.pickRun(0, src)
	case idx == n:
		return s.pickRun(n-1, src)
	}
	dRight := s.times[idx] - t
	dLeft := t - s.times[idx-1]
	switch {
	case dLeft < dRight:
		return s.pickRun(idx-1, src)
	case dRight < dLeft:
		return s.pickRun(idx, src)
	default:
		// Exact midpoint: both sides are equally near.
		if src.Bool(0.5) {
			return s.pickRun(idx-1, src)
		}
		return s.pickRun(idx, src)
	}
}

// pickRun returns a uniformly random latency among all samples sharing the
// timestamp of index i.
func (s *unbiasedSampler) pickRun(i int, src *rng.Source) float64 {
	t := s.times[i]
	lo, hi := i, i
	for lo > 0 && s.times[lo-1] == t {
		lo--
	}
	for hi+1 < len(s.times) && s.times[hi+1] == t {
		hi++
	}
	if lo == hi {
		return s.latencies[lo]
	}
	return s.latencies[lo+src.Intn(hi-lo+1)]
}

// intervalSampler is the per-draw instant of a union of disjoint intervals:
// uniform over the union, one binary search per draw.
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
