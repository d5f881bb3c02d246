package core

import (
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
	Columns
	// B, when non-nil, is the delta-maintained biased histogram over Lats.
	// Fold keeps it in sync; estimators consume it in place of an O(n)
	// rebuild.
	B *histogram.Histogram

	// spare holds the column buffers the last out-of-order fold retired,
	// reused by the next one so that steady-state folding allocates only on
	// capacity growth.
	spare Columns
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
func (s *Summary) Fold(d Columns) error {
	if err := d.check(); err != nil {
		return err
	}
	if err := s.check(); err != nil {
		return err
	}
	if d.Len() == 0 {
		return nil
	}
	if s.B != nil {
		for _, v := range d.Lats {
			s.B.Add(v)
		}
	}
	n := s.Len()
	if n == 0 || !Less(d.Times[0], d.Seqs[0], s.Times[n-1], s.Seqs[n-1]) {
		// Append fast path: the whole delta sorts after everything held.
		s.Times = append(s.Times, d.Times...)
		s.Lats = append(s.Lats, d.Lats...)
		s.Seqs = append(s.Seqs, d.Seqs...)
		return nil
	}
	// Out-of-order delta: merge into the spare buffers, then swap. Grown
	// buffers take 25% headroom so a run of small folds amortizes instead
	// of reallocating on every one-record growth.
	m := s.spare
	m.Reset()
	if total := n + d.Len(); cap(m.Times) < total {
		c := total + total/4
		m = Columns{
			Times: make([]timeutil.Millis, 0, c), Lats: make([]float64, 0, c), Seqs: make([]uint64, 0, c),
		}
	}
	MergeColumns(&m, s.Columns, d)
	s.spare, s.Columns = s.Columns, m
	return nil
}

// MergeSummaries merges sorted partials into dst (reset first), preserving
// the (time, seq) order with equal keys kept in part order — the wire-form
// combine step a scatter-gather coordinator runs over per-node partials.
// Partial histograms are summed into dst.B when dst.B is non-nil and every
// part carries one; parts with nil histograms contribute per-record adds.
func MergeSummaries(dst *Summary, parts ...*Summary) error {
	dst.Reset()
	if dst.B != nil {
		dst.B.Reset()
	}
	runs := make([]Columns, len(parts))
	for i, p := range parts {
		if err := p.check(); err != nil {
			return err
		}
		runs[i] = p.Columns
	}
	MergeColumns(&dst.Columns, runs...)
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
