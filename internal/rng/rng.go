// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used throughout the AutoSens
// simulator and estimator.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014) with a 64-bit state and
// a selectable odd stream increment. Two properties matter for this project:
//
//   - Determinism: every stochastic component takes an explicit *Source so
//     experiments are exactly reproducible from a seed.
//   - Splittability: Split derives an independent stream from a parent
//     stream and an integer key, so per-user substreams can be created in
//     any order (or in parallel) without coordination.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; derive per-goroutine sources with Split.
type Source struct {
	state uint64
	inc   uint64 // always odd
}

const (
	pcgMultiplier = 6364136223846793005
	pcgIncrement  = 1442695040888963407
	// splitMix64 constants, used for seed scrambling and Split.
	smGamma = 0x9e3779b97f4a7c15
	smMul1  = 0xbf58476d1ce4e5b9
	smMul2  = 0x94d049bb133111eb
)

// splitMix64 scrambles x into a well-distributed 64-bit value.
func splitMix64(x uint64) uint64 {
	x += smGamma
	x = (x ^ (x >> 30)) * smMul1
	x = (x ^ (x >> 27)) * smMul2
	return x ^ (x >> 31)
}

// Mix64 scrambles x into a well-distributed 64-bit value (splitMix64). It
// is the same hash the generator uses internally for seed scrambling and
// Split; exported so batch samplers can derive per-item randomness from a
// seed and an item index without materializing a Source per item.
func Mix64(x uint64) uint64 { return splitMix64(x) }

// New returns a Source seeded from seed. Distinct seeds give independent
// streams; the same seed always yields the same sequence.
func New(seed uint64) *Source {
	return NewStream(seed, 0)
}

// NewStream returns a Source on an explicit stream. Sources with the same
// seed but different streams produce independent sequences.
func NewStream(seed, stream uint64) *Source {
	s := &Source{
		state: 0,
		inc:   (splitMix64(stream) << 1) | 1,
	}
	s.state = s.state*pcgMultiplier + s.inc
	s.state += splitMix64(seed)
	s.state = s.state*pcgMultiplier + s.inc
	return s
}

// Split derives a new independent Source from s and key. Splitting with the
// same key twice yields identical child streams; distinct keys yield
// independent streams. The parent stream is advanced once.
func (s *Source) Split(key uint64) *Source {
	return NewStream(s.Uint64()^splitMix64(key), splitMix64(key^smGamma))
}

// next32 advances the state and returns 32 output bits (PCG-XSH-RR).
func (s *Source) next32() uint32 {
	var out uint32
	s.state, out = pcgStep(s.state, s.inc)
	return out
}

// pcgStep is one generator step on a state held in a register: the next
// state and the 32 output bits of this one.
func pcgStep(state, inc uint64) (uint64, uint32) {
	xorshifted := uint32(((state >> 18) ^ state) >> 27)
	rot := uint32(state >> 59)
	return state*pcgMultiplier + inc, (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Source) Uint32() uint32 { return s.next32() }

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	hi := uint64(s.next32())
	lo := uint64(s.next32())
	return hi<<32 | lo
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded rejection is used to avoid modulo
// bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Rejection sampling on v mod n with the threshold 2⁶⁴ mod n: unbiased
	// for all n.
	d := newModulus(n)
	threshold := d.mod(-n)
	for {
		if v := s.Uint64(); v >= threshold {
			return d.mod(v)
		}
	}
}

// FillUint64n fills dst with uniform integers in [0, n), consuming exactly
// the stream len(dst) successive Uint64n(n) calls would and yielding the
// same values; the modulus and the rejection threshold are set up once
// instead of once per value, and the generator state stays in a register.
// It panics if n == 0.
func (s *Source) FillUint64n(dst []uint64, n uint64) {
	if n == 0 {
		panic("rng: FillUint64n with zero n")
	}
	d := newModulus(n)
	threshold := d.mod(-n)
	state, inc := s.state, s.inc
	for i := range dst {
		var hi, lo uint32
		state, hi = pcgStep(state, inc)
		state, lo = pcgStep(state, inc)
		v := uint64(hi)<<32 | uint64(lo)
		for v < threshold {
			state, hi = pcgStep(state, inc)
			state, lo = pcgStep(state, inc)
			v = uint64(hi)<<32 | uint64(lo)
		}
		dst[i] = d.mod(v)
	}
	s.state = state
}

// modulus computes v mod n exactly with a multiply instead of a 64-bit
// divide: m = ⌊(2⁶⁴−1)/n⌋ makes q = ⌊v·m/2⁶⁴⌋ the quotient ⌊v/n⌋ or one
// less (v·m/2⁶⁴ undershoots v/n by v·(1 + (2⁶⁴−1) mod n)/(n·2⁶⁴) < 1), so
// v − q·n is the remainder or the remainder plus n, and one conditional
// subtract corrects it.
type modulus struct{ n, m uint64 }

func newModulus(n uint64) modulus { return modulus{n, ^uint64(0) / n} }

func (d modulus) mod(v uint64) uint64 {
	q, _ := bits.Mul64(v, d.m)
	r := v - q*d.n
	if r >= d.n {
		r -= d.n
	}
	return r
}

// Advance moves the generator delta steps forward in O(log delta) (Brown's
// LCG jump-ahead), leaving it exactly where delta Uint32 calls would. A
// Uint64 is two steps, so the word that follows k rejection-free Uint64n
// draws is read at Advance(2k) from the stream's origin.
func (s *Source) Advance(delta uint64) {
	accMul, accInc := uint64(1), uint64(0)
	curMul, curInc := uint64(pcgMultiplier), s.inc
	for ; delta > 0; delta >>= 1 {
		if delta&1 != 0 {
			accMul *= curMul
			accInc = accInc*curMul + curInc
		}
		curInc *= curMul + 1
		curMul *= curMul
	}
	s.state = accMul*s.state + accInc
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1): never exactly zero, which
// makes it safe as an argument to math.Log.
func (s *Source) Float64Open() float64 {
	for {
		v := s.Float64()
		if v > 0 {
			return v
		}
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(s.Float64Open()) / rate
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (s *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// LogNormal returns exp(Normal(mu, sigma)): log-normally distributed with
// log-mean mu and log-stddev sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Pareto returns a Pareto(xm, alpha) distributed value: xm * U^(-1/alpha).
// It panics if xm <= 0 or alpha <= 0.
func (s *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto with non-positive parameter")
	}
	return xm * math.Pow(s.Float64Open(), -1/alpha)
}

// Poisson returns a Poisson-distributed count with the given mean. For small
// means it uses Knuth's product method; for large means a normal
// approximation with continuity correction (adequate for workload synthesis).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := s.Normal(mean, math.Sqrt(mean)) + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Categorical returns an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if weights is empty, any weight is
// negative, or all weights are zero.
func (s *Source) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: Categorical with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle performs an in-place Fisher–Yates shuffle of n elements using the
// provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// ShuffleFloat64 shuffles xs in place.
func (s *Source) ShuffleFloat64(xs []float64) {
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
