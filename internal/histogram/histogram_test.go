package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"autosens/internal/rng"
)

func TestNewValidation(t *testing.T) {
	cases := []struct{ min, max, width float64 }{
		{0, 0, 10},
		{10, 0, 10},
		{0, 100, 0},
		{0, 100, -1},
		{0, 100, math.NaN()},
	}
	for _, c := range cases {
		if _, err := New(c.min, c.max, c.width); err == nil {
			t.Fatalf("New(%v,%v,%v) succeeded", c.min, c.max, c.width)
		}
	}
}

func TestBinsCount(t *testing.T) {
	h := MustNew(0, 3000, 10)
	if h.Bins() != 300 {
		t.Fatalf("Bins = %d, want 300", h.Bins())
	}
	// Non-dividing width rounds up.
	h2 := MustNew(0, 105, 10)
	if h2.Bins() != 11 {
		t.Fatalf("Bins = %d, want 11", h2.Bins())
	}
}

func TestIndexAndClamping(t *testing.T) {
	h := MustNew(0, 100, 10)
	cases := []struct {
		v    float64
		want int
	}{
		{-5, 0}, {0, 0}, {9.999, 0}, {10, 1}, {55, 5}, {99.9, 9}, {100, 9}, {1e9, 9},
	}
	for _, c := range cases {
		if got := h.Index(c.v); got != c.want {
			t.Fatalf("Index(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestCenterAndEdge(t *testing.T) {
	h := MustNew(100, 200, 25)
	if h.LowerEdge(0) != 100 || h.Center(0) != 112.5 {
		t.Fatalf("edge/center wrong: %v %v", h.LowerEdge(0), h.Center(0))
	}
	if h.LowerEdge(3) != 175 || h.Center(3) != 187.5 {
		t.Fatalf("edge/center wrong for bin 3")
	}
}

func TestAddAndTotal(t *testing.T) {
	h := MustNew(0, 100, 10)
	h.Add(5)
	h.Add(5)
	h.AddWeighted(15, 3)
	if h.Count(0) != 2 || h.Count(1) != 3 {
		t.Fatalf("counts = %v", h.Counts())
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %v, want 5", h.Total())
	}
}

// TestAddIndexMatchesAddWeighted: adding at a value's Index is adding the
// value, clamped bins included.
func TestAddIndexMatchesAddWeighted(t *testing.T) {
	a, b := MustNew(0, 100, 10), MustNew(0, 100, 10)
	for _, v := range []float64{-5, 0, 5, 15, 99.9, 100, 250} {
		a.AddWeighted(v, 2)
		b.AddIndex(b.Index(v), 2)
	}
	for i := 0; i < a.Bins(); i++ {
		if a.Count(i) != b.Count(i) {
			t.Fatalf("bin %d: AddIndex %v, AddWeighted %v", i, b.Count(i), a.Count(i))
		}
	}
	if a.Total() != b.Total() {
		t.Fatalf("total: AddIndex %v, AddWeighted %v", b.Total(), a.Total())
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	MustNew(0, 10, 1).AddWeighted(1, -1)
}

func TestResetClearsCountsAndTotal(t *testing.T) {
	h := MustNew(0, 100, 10)
	h.Add(5)
	h.AddWeighted(25, 3)
	h.Reset()
	if h.Total() != 0 {
		t.Fatalf("Total after Reset = %v, want 0", h.Total())
	}
	for i := 0; i < h.Bins(); i++ {
		if h.Count(i) != 0 {
			t.Fatalf("bin %d = %v after Reset, want 0", i, h.Count(i))
		}
	}
	// The histogram stays usable after Reset.
	h.Add(15)
	if h.Total() != 1 || h.Count(1) != 1 {
		t.Fatalf("histogram unusable after Reset: total=%v bin1=%v", h.Total(), h.Count(1))
	}
}

func TestSetCountAdjustsTotal(t *testing.T) {
	h := MustNew(0, 100, 10)
	h.AddWeighted(5, 4)
	h.SetCount(0, 10)
	if h.Total() != 10 {
		t.Fatalf("Total = %v, want 10", h.Total())
	}
	h.SetCount(1, 2)
	if h.Total() != 12 {
		t.Fatalf("Total = %v, want 12", h.Total())
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	s := rng.New(1)
	h := MustNew(0, 3000, 10)
	for i := 0; i < 10000; i++ {
		h.Add(s.LogNormal(math.Log(400), 0.6))
	}
	pdf, err := h.PDF()
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	for _, d := range pdf {
		integral += d * h.Width()
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("PDF integral = %v", integral)
	}
}

func TestEmptyPDFError(t *testing.T) {
	h := MustNew(0, 10, 1)
	if _, err := h.PDF(); err == nil {
		t.Fatal("empty PDF succeeded")
	}
	if _, err := h.Fractions(); err == nil {
		t.Fatal("empty Fractions succeeded")
	}
	if _, err := h.Quantile(0.5); err == nil {
		t.Fatal("empty Quantile succeeded")
	}
}

func TestCDFMonotonicEndsAtOne(t *testing.T) {
	s := rng.New(2)
	h := MustNew(0, 1000, 10)
	for i := 0; i < 5000; i++ {
		h.Add(s.Uniform(0, 1000))
	}
	cdf, err := h.CDF()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, v := range cdf {
		if v < prev-1e-12 {
			t.Fatalf("CDF decreases at %d", i)
		}
		prev = v
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		t.Fatalf("CDF end = %v", cdf[len(cdf)-1])
	}
}

func TestQuantileUniform(t *testing.T) {
	h := MustNew(0, 1000, 1)
	s := rng.New(3)
	for i := 0; i < 200000; i++ {
		h.Add(s.Uniform(0, 1000))
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		v, err := h.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-q*1000) > 10 {
			t.Fatalf("Quantile(%v) = %v", q, v)
		}
	}
}

func TestQuantileBounds(t *testing.T) {
	h := MustNew(0, 10, 1)
	h.Add(5)
	if _, err := h.Quantile(-0.1); err == nil {
		t.Fatal("negative quantile accepted")
	}
	if _, err := h.Quantile(1.1); err == nil {
		t.Fatal("quantile > 1 accepted")
	}
	v, err := h.Quantile(0)
	if err != nil || v > 6 {
		t.Fatalf("Quantile(0) = %v, %v", v, err)
	}
}

func TestAddHistogram(t *testing.T) {
	a := MustNew(0, 100, 10)
	b := MustNew(0, 100, 10)
	a.Add(5)
	b.Add(5)
	b.Add(95)
	if err := a.AddHistogram(b); err != nil {
		t.Fatal(err)
	}
	if a.Count(0) != 2 || a.Count(9) != 1 || a.Total() != 3 {
		t.Fatalf("merged counts wrong: %v", a.Counts())
	}
}

func TestAddHistogramIncompatible(t *testing.T) {
	a := MustNew(0, 100, 10)
	b := MustNew(0, 100, 20)
	if err := a.AddHistogram(b); err == nil {
		t.Fatal("incompatible merge accepted")
	}
}

func TestRatio(t *testing.T) {
	num := MustNew(0, 30, 10)
	den := MustNew(0, 30, 10)
	// num: 2 in bin0, 1 in bin1; den: 1 in each of bin0, bin1, bin2.
	num.Add(1)
	num.Add(2)
	num.Add(12)
	den.Add(1)
	den.Add(11)
	den.Add(21)
	r, err := Ratio(num, den)
	if err != nil {
		t.Fatal(err)
	}
	// Fractions: num = [2/3, 1/3, 0], den = [1/3, 1/3, 1/3].
	if math.Abs(r[0]-2) > 1e-12 || math.Abs(r[1]-1) > 1e-12 || r[2] != 0 {
		t.Fatalf("Ratio = %v", r)
	}
}

func TestRatioZeroDenominatorIsNaN(t *testing.T) {
	num := MustNew(0, 20, 10)
	den := MustNew(0, 20, 10)
	num.Add(1)
	num.Add(15)
	den.Add(1)
	r, err := Ratio(num, den)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(r[1]) {
		t.Fatalf("zero-denominator bin = %v, want NaN", r[1])
	}
}

func TestCloneIndependent(t *testing.T) {
	a := MustNew(0, 10, 1)
	a.Add(3)
	b := a.Clone()
	b.Add(4)
	if a.Total() != 1 || b.Total() != 2 {
		t.Fatal("clone not independent")
	}
}

func TestMassConservationProperty(t *testing.T) {
	s := rng.New(4)
	f := func(n uint16) bool {
		h := MustNew(0, 500, 7)
		k := int(n%1000) + 1
		for i := 0; i < k; i++ {
			h.Add(s.Uniform(-100, 700)) // includes out-of-range values
		}
		var sum float64
		for _, c := range h.Counts() {
			sum += c
		}
		return sum == h.Total() && h.Total() == float64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	h := MustNew(0, 3000, 10)
	s := rng.New(1)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = s.LogNormal(math.Log(400), 0.6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i&1023])
	}
}

// TestAddCountsMatchesAddWeighted pins the batch add to one AddWeighted
// per value: the same bins and total, bit for bit, with zero counts skipped.
func TestAddCountsMatchesAddWeighted(t *testing.T) {
	vals := []float64{-5, 0, 9.99, 10, 55, 55, 2999, 3000, 1e9}
	counts := []uint64{3, 0, 1, 7, 2, 0, 1 << 40, 5, 1}
	got, want := MustNew(0, 3000, 10), MustNew(0, 3000, 10)
	got.AddCounts(vals, counts)
	for i, c := range counts {
		if c != 0 {
			want.AddWeighted(vals[i], float64(c))
		}
	}
	for i := 0; i < want.Bins(); i++ {
		if math.Float64bits(got.Count(i)) != math.Float64bits(want.Count(i)) {
			t.Fatalf("bin %d: %v, want %v", i, got.Count(i), want.Count(i))
		}
	}
	if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
		t.Fatalf("total %v, want %v", got.Total(), want.Total())
	}
}
