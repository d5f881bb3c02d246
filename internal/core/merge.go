package core

import (
	"errors"
	"time"

	"autosens/internal/histogram"
	"autosens/internal/timeutil"
)

// Summary is a mergeable, delta-foldable partial of one record slice: the
// usable records as (time, seq)-sorted flat columns plus their biased
// latency histogram, maintained incrementally so re-estimations cost
// O(records since the last fold) instead of O(rescan).
//
// The seq column carries the global ack sequence number of each record.
// Ack order breaks time ties (seqs strictly increase in ack order), so a
// (time, seq) merge of sorted partials reproduces exactly the stable
// by-time sort the batch estimator applies to the ack-ordered stream —
// the invariant the live engine's byte-identity guarantee rests on.
//
// The biased histogram is a pure append of weight-1 counts (exact integer
// arithmetic in float64, hence order-independent), so folding deltas in
// arrival order yields the same histogram bit for bit as a from-scratch
// rebuild — Fold never needs to revisit old records.
type Summary struct {
	Times []timeutil.Millis
	Lats  []float64
	Seqs  []uint64
	// B, when non-nil, is the delta-maintained biased histogram over Lats.
	// Fold keeps it in sync; estimators consume it in place of an O(n)
	// rebuild.
	B *histogram.Histogram

	// Retired column buffers, reused by the next out-of-order fold so that
	// steady-state folding allocates only on capacity growth.
	spareTimes []timeutil.Millis
	spareLats  []float64
	spareSeqs  []uint64
}

// Len returns the number of records summarized.
func (s *Summary) Len() int { return len(s.Times) }

// summaryLess orders (time, seq) pairs.
func summaryLess(t1 timeutil.Millis, s1 uint64, t2 timeutil.Millis, s2 uint64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return s1 < s2
}

var errSummaryColumns = errors.New("core: summary columns differ in length")

// check validates the parallel-column invariant.
func (s *Summary) check() error {
	if len(s.Times) != len(s.Lats) || len(s.Times) != len(s.Seqs) {
		return errSummaryColumns
	}
	return nil
}

// Fold merges a (time, seq)-sorted delta into s. The delta's columns are
// read-only and not retained; s owns its own storage. When the delta lands
// entirely past s's maximum (time, seq) — the common case under in-order
// arrival — the fold is a pure append, O(len(delta)) amortized. Otherwise
// a single two-way merge into retained spare buffers runs in
// O(len(s) + len(delta)) with no allocation at steady state.
//
// When s.B is non-nil every delta latency is added to it, keeping the
// biased histogram exact (see the type comment for why add order cannot
// matter).
func (s *Summary) Fold(dTimes []timeutil.Millis, dLats []float64, dSeqs []uint64) error {
	if len(dTimes) != len(dLats) || len(dTimes) != len(dSeqs) {
		return errSummaryColumns
	}
	if err := s.check(); err != nil {
		return err
	}
	if len(dTimes) == 0 {
		return nil
	}
	if s.B != nil {
		for _, v := range dLats {
			s.B.Add(v)
		}
	}
	n := len(s.Times)
	if n == 0 || !summaryLess(dTimes[0], dSeqs[0], s.Times[n-1], s.Seqs[n-1]) {
		// Append fast path: the whole delta sorts after everything held.
		s.Times = append(s.Times, dTimes...)
		s.Lats = append(s.Lats, dLats...)
		s.Seqs = append(s.Seqs, dSeqs...)
		return nil
	}
	// Out-of-order delta: two-way merge into the spare buffers, then swap.
	// Grown buffers take 25% headroom so a run of small folds amortizes
	// instead of reallocating on every one-record growth.
	total := n + len(dTimes)
	mt := s.spareTimes[:0]
	if cap(mt) < total {
		mt = make([]timeutil.Millis, 0, total+total/4)
	}
	ml := s.spareLats[:0]
	if cap(ml) < total {
		ml = make([]float64, 0, total+total/4)
	}
	ms := s.spareSeqs[:0]
	if cap(ms) < total {
		ms = make([]uint64, 0, total+total/4)
	}
	i, j := 0, 0
	for i < n && j < len(dTimes) {
		if summaryLess(s.Times[i], s.Seqs[i], dTimes[j], dSeqs[j]) {
			mt = append(mt, s.Times[i])
			ml = append(ml, s.Lats[i])
			ms = append(ms, s.Seqs[i])
			i++
		} else {
			mt = append(mt, dTimes[j])
			ml = append(ml, dLats[j])
			ms = append(ms, dSeqs[j])
			j++
		}
	}
	mt = append(append(mt, s.Times[i:]...), dTimes[j:]...)
	ml = append(append(ml, s.Lats[i:]...), dLats[j:]...)
	ms = append(append(ms, s.Seqs[i:]...), dSeqs[j:]...)
	s.spareTimes, s.Times = s.Times, mt
	s.spareLats, s.Lats = s.Lats, ml
	s.spareSeqs, s.Seqs = s.Seqs, ms
	return nil
}

// FoldSummary folds another summary's columns into s (d is read-only).
func (s *Summary) FoldSummary(d *Summary) error {
	return s.Fold(d.Times, d.Lats, d.Seqs)
}

// MergeSummaries k-way merges sorted partials into dst (reset first),
// preserving the (time, seq) order — the wire-form combine step a
// scatter-gather coordinator runs over per-node partials. Partial
// histograms are summed into dst.B when dst.B is non-nil and every part
// carries one; parts with nil histograms contribute per-record adds.
func MergeSummaries(dst *Summary, parts ...*Summary) error {
	dst.Times = dst.Times[:0]
	dst.Lats = dst.Lats[:0]
	dst.Seqs = dst.Seqs[:0]
	if dst.B != nil {
		dst.B.Reset()
	}
	n := 0
	for _, p := range parts {
		if err := p.check(); err != nil {
			return err
		}
		n += p.Len()
	}
	if cap(dst.Times) < n {
		dst.Times = make([]timeutil.Millis, 0, n)
		dst.Lats = make([]float64, 0, n)
		dst.Seqs = make([]uint64, 0, n)
	}
	cursors := make([]int, len(parts))
	for {
		best := -1
		for i, p := range parts {
			c := cursors[i]
			if c >= p.Len() {
				continue
			}
			if best < 0 || summaryLess(p.Times[c], p.Seqs[c],
				parts[best].Times[cursors[best]], parts[best].Seqs[cursors[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := cursors[best]
		dst.Times = append(dst.Times, parts[best].Times[c])
		dst.Lats = append(dst.Lats, parts[best].Lats[c])
		dst.Seqs = append(dst.Seqs, parts[best].Seqs[c])
		cursors[best]++
	}
	if dst.B != nil {
		for _, p := range parts {
			if p.B != nil {
				if err := dst.B.AddHistogram(p.B); err != nil {
					return err
				}
			} else {
				for _, v := range p.Lats {
					dst.B.Add(v)
				}
			}
		}
	}
	return nil
}

// EstimateSummary computes the plain pooled NLP curve (Sections 2.2–2.3)
// over a delta-maintained Summary, bit-identical to EstimateColumns over
// the same columns. s.B, when non-nil, stands in for the O(n) biased
// histogram build; plan, when non-nil, retains the unbiased draw-key
// schedule across calls so a re-estimation after a small fold regenerates
// no keys unless the observation window moved (see UnbiasedPlan); sc
// reuses the output-side histograms. With all three retained by the
// caller, a re-estimation costs one linear sweep over the columns plus
// curve finishing — no sort, no per-epoch key generation, and no
// allocation beyond the returned Curve.
func (e *Estimator) EstimateSummary(s *Summary, plan *UnbiasedPlan, sc *Scratch) (*Curve, error) {
	defer observeEstimate(time.Now())
	sp := e.trace.StartChild("estimate_summary")
	defer sp.End()
	if err := s.check(); err != nil {
		return nil, err
	}
	if err := checkColumns(s.Times, s.Lats); err != nil {
		return nil, err
	}
	sp.SetAttr("records", s.Len())
	if plan == nil {
		return e.estimateColumns(sp, s.B, s.Times, s.Lats, sc)
	}

	b := s.B
	if b == nil {
		if sc != nil {
			b = sc.biased(e)
		} else {
			b = e.newHist()
		}
		for _, v := range s.Lats {
			b.Add(v)
		}
	}

	uSp := sp.StartChild("sample_unbiased")
	lo := s.Times[0]
	hi := s.Times[len(s.Times)-1] + 1
	draws := drawCount(s.Len(), e.opts.UnbiasedPerSample)
	plan.update(e.opts.Seed, uint64(hi-lo), draws)
	var u *histogram.Histogram
	if sc != nil {
		u = sc.unbiased(e)
	} else {
		u = e.newHist()
	}
	sweepSortedKeys(s.Times, s.Lats, lo, plan.sorted, 0, plan.auxSeed, u)
	uSp.SetAttr("draws", draws)
	uSp.SetAttr("reused_keys", plan.reused)
	uSp.End()

	return e.finishCurve(sp, b, u, s.Len(), draws)
}
