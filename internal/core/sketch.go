package core

import (
	"errors"
	"math"
	"sort"

	"autosens/internal/histogram"
	"autosens/internal/rng"
)

// BootSketch is a mergeable Poisson-bootstrap confidence sketch maintained
// in lockstep with an Incremental's stable sweep state. Where the exact
// moving-block bootstrap must rerun every replicate's full unbiased sweep
// per epoch, the sketch keeps, per replicate r:
//
//   - a biased histogram whose records carry deterministic Poisson(1)
//     weights w(r, seq) — the standard mergeable approximation of
//     multinomial resampling;
//   - a stable unbiased histogram where each aux-independent draw
//     contributes its adopted latency at the adopted RECORD's weight, so a
//     record's resampling multiplicity consistently scales both its biased
//     mass and every draw that lands on it.
//
// Both fold with the same interval machinery the point estimate uses —
// weights are pure functions of (seed, replicate, seq), so retracting and
// re-adding a draw is exact — and a bounds query is R histogram-copy +
// curve-finish passes with no per-replicate sweep.
//
// The trade: Poisson record resampling ignores the temporal block structure
// the exact bootstrap preserves, and a zero-weight record's draws vanish
// instead of adopting the next-nearest survivor. SketchBounds is therefore
// an approximation, and callers gate it on distribution-level KS
// equivalence against the exact bootstrap (KSBinsStat / KSCritical) before
// trusting it.
type BootSketch struct {
	e        *Estimator
	reps     int
	repSeeds []uint64
	b        []*histogram.Histogram
	u        []*histogram.Histogram
	uOut     *histogram.Histogram
	valid    bool

	// auxV/auxW cache the per-estimate aux-dependent draw resolutions so
	// the drawKeyIndex walk runs once, not once per replicate.
	auxV []float64
	auxS []uint64
}

// NewBootSketch returns a sketch with the given replicate count, weighted
// by seed. Attach it to an Incremental (inc.Sketch = s) BEFORE the first
// estimate so rebuilds keep it in sync.
func (e *Estimator) NewBootSketch(resamples int, seed uint64) *BootSketch {
	s := &BootSketch{
		e:        e,
		reps:     resamples,
		repSeeds: make([]uint64, resamples),
		b:        make([]*histogram.Histogram, resamples),
		u:        make([]*histogram.Histogram, resamples),
		uOut:     e.newHist(),
	}
	for r := range s.repSeeds {
		s.repSeeds[r] = rng.Mix64(seed + uint64(r)*0x9e3779b97f4a7c15)
		s.b[r] = e.newHist()
		s.u[r] = e.newHist()
	}
	return s
}

func (s *BootSketch) invalidate() { s.valid = false }

// weight is replicate r's resampling multiplicity for the record with ack
// sequence seq: Poisson(1) by inverse CDF over a mixed hash, deterministic
// and storage-free.
func (s *BootSketch) weight(r int, seq uint64) float64 {
	return poisson1(rng.Mix64(s.repSeeds[r] ^ seq))
}

// poisson1 maps a uniform 64-bit word to a Poisson(1) variate by walking
// the inverse CDF (mean 1 ⇒ the walk terminates in ~2 steps on average).
func poisson1(u uint64) float64 {
	f := float64(u>>11) * (1.0 / (1 << 53))
	term := math.Exp(-1)
	cum := term
	k := 0
	for f > cum && k < 32 {
		k++
		term /= float64(k)
		cum += term
	}
	return float64(k)
}

// foldRecords accumulates a delta's records into every replicate's biased
// histogram at their Poisson weights.
func (s *BootSketch) foldRecords(dLats []float64, dSeqs []uint64) {
	if !s.valid {
		return
	}
	for i, v := range dLats {
		for r := 0; r < s.reps; r++ {
			if w := s.weight(r, dSeqs[i]); w != 0 {
				s.b[r].AddWeighted(v, w)
			}
		}
	}
}

// retractDraw removes m draws that adopted the record (v, seq) from every
// replicate's stable unbiased histogram; addDraw is its inverse.
func (s *BootSketch) retractDraw(v float64, seq uint64, m int) {
	if !s.valid {
		return
	}
	for r := 0; r < s.reps; r++ {
		if w := s.weight(r, seq); w != 0 {
			s.u[r].SubWeighted(v, w*float64(m))
		}
	}
}

func (s *BootSketch) addDraw(v float64, seq uint64, m int) {
	if !s.valid {
		return
	}
	for r := 0; r < s.reps; r++ {
		if w := s.weight(r, seq); w != 0 {
			s.u[r].AddWeighted(v, w*float64(m))
		}
	}
}

// rebuild reconstructs every replicate histogram from the Incremental's
// columns and key schedule. O(n·R + draws·R); runs only when the point
// estimate itself rebuilt (first estimate or window move).
func (s *BootSketch) rebuild(inc *Incremental) {
	for r := 0; r < s.reps; r++ {
		s.b[r].Reset()
		s.u[r].Reset()
	}
	s.valid = true
	s.foldRecords(inc.sum.Lats, inc.sum.Seqs)
	lo := inc.sum.Times[0]
	classifyKeys(inc.sum.Times, lo, inc.plan.sorted, 0, len(inc.plan.sorted),
		func(_, j, m int) {
			if j >= 0 {
				s.addDraw(inc.sum.Lats[j], inc.sum.Seqs[j], m)
			}
		})
}

// ErrSketchUnavailable reports that the sketch cannot serve bounds for the
// current state (no stable sweep: tie-degenerate data or pre-first-estimate).
var ErrSketchUnavailable = errors.New("core: bootstrap sketch unavailable for this state")

// SketchBounds derives approximate confidence bounds from the maintained
// replicate histograms. point must be the curve EstimatePlain just returned
// (calling EstimatePlain first also guarantees the sketch state is built).
// Replicate aggregation mirrors the exact bootstrap's: per-bin quantiles at
// (1±Confidence)/2 over replicates, NaN where support falls under
// MinSupport.
func (s *BootSketch) SketchBounds(inc *Incremental, point *Curve, opts CIOptions) (*CurveCI, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.MinSupport == 0 {
		opts.MinSupport = 0.5
	}
	if !s.valid || !inc.stValid {
		return nil, ErrSketchUnavailable
	}
	n := inc.sum.Len()
	draws := len(inc.plan.sorted)
	lo := inc.sum.Times[0]

	// Resolve the aux-dependent draws once; replicates differ only in the
	// weight of the adopted record.
	s.auxV = s.auxV[:0]
	s.auxS = s.auxS[:0]
	for _, r := range inc.auxDep {
		aux := rng.Mix64(inc.plan.auxSeed + uint64(r))
		j := drawKeyIndex(inc.sum.Times, lo, inc.plan.sorted[r], aux)
		s.auxV = append(s.auxV, inc.sum.Lats[j])
		s.auxS = append(s.auxS, inc.sum.Seqs[j])
	}

	bins := len(point.NLP)
	samples := make([][]float64, bins)
	replicates := 0
	for r := 0; r < s.reps; r++ {
		if err := s.uOut.CopyFrom(s.u[r]); err != nil {
			return nil, err
		}
		for i, v := range s.auxV {
			if w := s.weight(r, s.auxS[i]); w != 0 {
				s.uOut.AddWeighted(v, w)
			}
		}
		c, err := s.e.finishCurve(nil, s.b[r], s.uOut, n, draws)
		if err != nil {
			continue // degenerate replicate: skipped, like the exact path
		}
		replicates++
		for i := 0; i < bins; i++ {
			if c.Valid[i] {
				samples[i] = append(samples[i], c.NLP[i])
			}
		}
	}
	if replicates < 2 {
		return nil, errors.New("core: too few successful sketch replicates")
	}

	out := &CurveCI{
		Curve:      point,
		Lower:      make([]float64, bins),
		Upper:      make([]float64, bins),
		Replicates: replicates,
	}
	alpha := (1 - opts.Confidence) / 2
	need := int(math.Ceil(opts.MinSupport * float64(replicates)))
	for i := 0; i < bins; i++ {
		vs := samples[i]
		if len(vs) < need || len(vs) < 2 {
			out.Lower[i] = math.NaN()
			out.Upper[i] = math.NaN()
			continue
		}
		sort.Float64s(vs)
		out.Lower[i] = quantileSorted(vs, alpha)
		out.Upper[i] = quantileSorted(vs, 1-alpha)
	}
	if opts.KeepSamples {
		out.BinSamples = samples
	}
	return out, nil
}

// KSBinsStat compares two bootstrap results' per-bin replicate
// distributions (both must carry BinSamples, i.e. be estimated with
// KeepSamples) with the two-sample Kolmogorov–Smirnov statistic, returning
// the mean and max statistic over bins where both sides have at least two
// samples. It is the sketch path's equivalence gate: accept the sketch when
// mean ≤ KSCritical(nA, nB, α) for the replicate counts involved.
func KSBinsStat(a, b *CurveCI) (mean, maxStat float64, bins int, err error) {
	if a.BinSamples == nil || b.BinSamples == nil {
		return 0, 0, 0, errors.New("core: KS gate needs KeepSamples on both estimates")
	}
	if len(a.BinSamples) != len(b.BinSamples) {
		return 0, 0, 0, errors.New("core: KS gate bin count mismatch")
	}
	var sum float64
	for i := range a.BinSamples {
		x, y := a.BinSamples[i], b.BinSamples[i]
		if len(x) < 2 || len(y) < 2 {
			continue
		}
		d := ksTwoSample(x, y)
		sum += d
		if d > maxStat {
			maxStat = d
		}
		bins++
	}
	if bins == 0 {
		return 0, 0, 0, errors.New("core: KS gate found no comparable bins")
	}
	return sum / float64(bins), maxStat, bins, nil
}

// ksTwoSample is the two-sample KS statistic sup|F1−F2|; inputs are copied
// and sorted.
func ksTwoSample(x, y []float64) float64 {
	xs := append([]float64(nil), x...)
	ys := append([]float64(nil), y...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	var d float64
	i, j := 0, 0
	for i < len(xs) && j < len(ys) {
		// Advance both sides past a shared value together: the empirical
		// CDFs only disagree BETWEEN distinct values, and measuring mid-tie
		// reports a spurious gap (two identical samples would score 1.0).
		v := math.Min(xs[i], ys[j])
		for i < len(xs) && xs[i] == v {
			i++
		}
		for j < len(ys) && ys[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(xs)) - float64(j)/float64(len(ys)))
		if diff > d {
			d = diff
		}
	}
	return d
}

// KSCritical returns the two-sample KS rejection threshold
// c(α)·sqrt((n+m)/(n·m)) for α in {0.10, 0.05, 0.01} (nearest taken).
func KSCritical(n, m int, alpha float64) float64 {
	c := 1.358 // α = 0.05
	switch {
	case alpha >= 0.10:
		c = 1.224
	case alpha <= 0.01:
		c = 1.628
	}
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}
