package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestSeedIndependence(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestStreamIndependence(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams collided %d/1000 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	p1 := New(9)
	p2 := New(9)
	c1 := p1.Split(123)
	c2 := p2.Split(123)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split children diverged at %d", i)
		}
	}
}

func TestSplitIndependentKeys(t *testing.T) {
	p := New(9)
	c1 := p.Split(1)
	c2 := p.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children with distinct keys collided %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(8)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Fatalf("Normal mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("Normal variance = %v, want ~4", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(9)
	const n = 100001
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = s.LogNormal(math.Log(100), 0.5)
	}
	// Median of LogNormal(mu, sigma) is exp(mu) = 100.
	var below int
	for _, v := range vs {
		if v < 100 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestParetoTail(t *testing.T) {
	s := New(10)
	const n = 100000
	var minV float64 = math.Inf(1)
	exceed := 0
	for i := 0; i < n; i++ {
		v := s.Pareto(1, 2)
		if v < minV {
			minV = v
		}
		if v > 10 {
			exceed++
		}
	}
	if minV < 1 {
		t.Fatalf("Pareto(1,2) produced value below xm: %v", minV)
	}
	// P(X > 10) = (1/10)^2 = 0.01
	frac := float64(exceed) / n
	if math.Abs(frac-0.01) > 0.003 {
		t.Fatalf("Pareto tail fraction = %v, want ~0.01", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(11)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 4*math.Sqrt(mean/n)+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	s := New(12)
	if v := s.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", v)
	}
	if v := s.Poisson(-1); v != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", v)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	s := New(13)
	weights := []float64{1, 2, 3, 4}
	const n = 100000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[s.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want) {
			t.Fatalf("category %d count %d, want ~%v", i, counts[i], want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {1, -1}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Categorical(%v) did not panic", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(14)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := New(15)
	xs := []float64{1, 2, 3, 4, 5}
	sum := 15.0
	s.ShuffleFloat64(xs)
	var got float64
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %v", got)
	}
}

func TestUniformRangeProperty(t *testing.T) {
	s := New(16)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi || math.IsInf(hi-lo, 0) {
			return true
		}
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi || math.Abs(hi-lo) < 1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(17)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		v := s.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestFillUint64nMatchesUint64n pins the batched draw to the per-call
// stream: same values, same generator state afterwards — including over a
// span that rejects about half of all raw words.
func TestFillUint64nMatchesUint64n(t *testing.T) {
	for _, n := range []uint64{1, 7, 3_600_000, 1 << 40, 1<<62 + 1, 1<<63 + 1} {
		one, fill := New(23), New(23)
		got := make([]uint64, 4096)
		fill.FillUint64n(got, n)
		for i, v := range got {
			if want := one.Uint64n(n); v != want {
				t.Fatalf("n=%d: value %d is %d, Uint64n gives %d", n, i, v, want)
			}
		}
		if *one != *fill {
			t.Fatalf("n=%d: generator state diverged after the fill", n)
		}
		probe := New(23)
		probe.Advance(2 * uint64(len(got)))
		if rejected := *probe != *fill; rejected != (n > 1<<60) {
			t.Fatalf("n=%d: rejection seen=%v, want %v", n, rejected, n > 1<<60)
		}
	}
}

func TestAdvanceMatchesStepping(t *testing.T) {
	for _, delta := range []uint64{0, 1, 2, 3, 64, 1000, 12345} {
		step, jump := NewStream(29, 5), NewStream(29, 5)
		for i := uint64(0); i < delta; i++ {
			step.Uint32()
		}
		jump.Advance(delta)
		if *step != *jump {
			t.Fatalf("Advance(%d) differs from %d steps", delta, delta)
		}
	}
	a, b := New(31), New(31)
	a.Advance(1 << 40)
	b.Advance(1<<40 - 17)
	b.Advance(17)
	if *a != *b {
		t.Fatal("Advance does not compose")
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	s := New(18)
	for i := 0; i < 100000; i++ {
		if s.Float64Open() <= 0 {
			t.Fatal("Float64Open returned non-positive value")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(19)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}

// TestModulusMatchesRemainder pins the multiply-based remainder to Go's %
// at the divisors where one correction step is tightest (1, 2, 3, around
// 2³², 2⁶³, 2⁶⁴−1) and at random ones, over edge and random dividends.
func TestModulusMatchesRemainder(t *testing.T) {
	src := New(41)
	divisors := []uint64{1, 2, 3, 1<<32 - 1, 1<<32 + 1, 1 << 63, math.MaxUint64}
	for i := 0; i < 200; i++ {
		divisors = append(divisors, src.Uint64()>>(src.Uint64()%64))
	}
	for _, n := range divisors {
		if n == 0 {
			continue
		}
		d := newModulus(n)
		vs := []uint64{0, 1, n - 1, n, n + 1, -n, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 / n * n, math.MaxUint64/n*n - 1}
		for i := 0; i < 500; i++ {
			vs = append(vs, src.Uint64())
		}
		for _, v := range vs {
			if got, want := d.mod(v), v%n; got != want {
				t.Fatalf("%d mod %d = %d, want %d", v, n, got, want)
			}
		}
	}
}

// TestUint64nStream pins Uint64n and FillUint64n to the stream of the
// divide-based rejection sampler they replace: same values, same state.
func TestUint64nStream(t *testing.T) {
	ref := func(s *Source, n uint64) uint64 {
		threshold := -n % n
		for {
			if v := s.Uint64(); v >= threshold {
				return v % n
			}
		}
	}
	for _, n := range []uint64{1, 2, 3, 1000, 3_600_000, 1<<32 - 1, 1<<32 + 1, 1 << 40, 1<<63 + 1, math.MaxUint64} {
		want, one, fill := New(5), New(5), New(5)
		got := make([]uint64, 2000)
		fill.FillUint64n(got, n)
		for i := range got {
			w := ref(want, n)
			if v := one.Uint64n(n); v != w || got[i] != w {
				t.Fatalf("n=%d draw %d: Uint64n %d, FillUint64n %d, want %d", n, i, v, got[i], w)
			}
		}
		if *one != *want || *fill != *want {
			t.Fatalf("n=%d: generator state diverged from the reference", n)
		}
	}
}
