package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"autosens/internal/rng"
)

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Fatalf("Mean = %v, %v", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Fatal("empty mean accepted")
	}
}

func TestVarianceStdDev(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v", v)
	}
	sd, _ := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(sd-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("StdDev = %v", sd)
	}
	if _, err := Variance([]float64{1}); err == nil {
		t.Fatal("single-sample variance accepted")
	}
}

func TestQuantileMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	m, err := Median(xs)
	if err != nil || m != 2 {
		t.Fatalf("Median = %v, %v", m, err)
	}
	// Interpolation: quantile 0.5 of {1,2,3,4} = 2.5.
	m, _ = Median([]float64{4, 3, 2, 1})
	if m != 2.5 {
		t.Fatalf("Median of 4 = %v", m)
	}
	q, _ := Quantile([]float64{10, 20, 30, 40, 50}, 0.25)
	if q != 20 {
		t.Fatalf("Q1 = %v", q)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("quantile > 1 accepted")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileSortedEdges(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"single element q=0", []float64{3}, 0, 3},
		{"single element q=0.5", []float64{3}, 0.5, 3},
		{"single element q=1", []float64{3}, 1, 3},
		{"q=0 takes min", []float64{1, 2, 3}, 0, 1},
		{"q=1 takes max", []float64{1, 2, 3}, 1, 3},
		{"exact position no interpolation", []float64{1, 2, 3}, 0.5, 2},
		{"exact position on five", []float64{0, 1, 2, 3, 4}, 0.25, 1},
		{"interpolated midpoint", []float64{1, 2}, 0.5, 1.5},
		{"interpolated quarter", []float64{0, 4}, 0.25, 1},
		{"interpolated between ranks", []float64{10, 20, 40}, 0.75, 30},
	}
	for _, tc := range cases {
		if got, err := QuantileSorted(tc.sorted, tc.q); err != nil || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: QuantileSorted(%v, %v) = %v, %v; want %v", tc.name, tc.sorted, tc.q, got, err, tc.want)
		}
	}
	if _, err := QuantileSorted(nil, 0.5); err == nil {
		t.Error("QuantileSorted of nothing accepted")
	}
	if _, err := QuantileSorted([]float64{1, 2}, 1.5); err == nil {
		t.Error("QuantileSorted at q > 1 accepted")
	}
}

func TestQuartiles(t *testing.T) {
	q1, q2, q3, err := Quartiles([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Fatalf("Quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, %v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonIndependent(t *testing.T) {
	s := rng.New(1)
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = s.Normal(0, 1)
		ys[i] = s.Normal(0, 1)
	}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.03 {
		t.Fatalf("independent Pearson = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestAutocorrelation(t *testing.T) {
	// AR(1) with coefficient rho has lag-1 autocorrelation ~rho.
	s := rng.New(77)
	const rho = 0.9
	xs := make([]float64, 50000)
	x := 0.0
	for i := range xs {
		x = rho*x + s.Normal(0, 1)
		xs[i] = x
	}
	r, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-rho) > 0.03 {
		t.Fatalf("lag-1 autocorrelation %v, want ~%v", r, rho)
	}
	// IID noise: near zero.
	for i := range xs {
		xs[i] = s.Normal(0, 1)
	}
	r, err = Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.03 {
		t.Fatalf("iid lag-1 autocorrelation %v, want ~0", r)
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation([]float64{1, 2, 3}, 0); err == nil {
		t.Fatal("zero lag accepted")
	}
	if _, err := Autocorrelation([]float64{1, 2}, 5); err == nil {
		t.Fatal("short series accepted")
	}
	if _, err := Autocorrelation([]float64{2, 2, 2, 2, 2}, 1); err == nil {
		t.Fatal("constant series accepted")
	}
}

func TestMSD(t *testing.T) {
	v, err := MSD([]float64{1, 3, 2})
	if err != nil || v != 1.5 {
		t.Fatalf("MSD = %v, %v", v, err)
	}
	if _, err := MSD([]float64{1}); err == nil {
		t.Fatal("single-sample MSD accepted")
	}
}

func TestMADKnown(t *testing.T) {
	// Pairs of {1,2,4}: |1-2|=1, |1-4|=3, |2-4|=2 => mean 2.
	v, err := MAD([]float64{4, 1, 2})
	if err != nil || math.Abs(v-2) > 1e-12 {
		t.Fatalf("MAD = %v, %v", v, err)
	}
}

func TestMADMatchesBruteForce(t *testing.T) {
	s := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		n := 2 + s.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.Normal(0, 10)
		}
		var brute float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				brute += math.Abs(xs[i] - xs[j])
			}
		}
		brute /= float64(n) * float64(n-1) / 2
		fast, err := MAD(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-brute) > 1e-9 {
			t.Fatalf("trial %d: MAD fast %v != brute %v", trial, fast, brute)
		}
	}
}

func TestMSDMADRatioShuffledNearOne(t *testing.T) {
	s := rng.New(3)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = s.LogNormal(5, 0.5)
	}
	r, err := MSDMADRatio(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 0.05 {
		t.Fatalf("iid MSD/MAD = %v, want ~1", r)
	}
}

func TestMSDMADRatioSortedNearZero(t *testing.T) {
	s := rng.New(4)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = s.LogNormal(5, 0.5)
	}
	sort.Float64s(xs)
	r, err := MSDMADRatio(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.01 {
		t.Fatalf("sorted MSD/MAD = %v, want ~0", r)
	}
}

func TestMSDMADRatioLocalSeries(t *testing.T) {
	// AR(1) with high autocorrelation: ratio must be well below 1.
	s := rng.New(5)
	xs := make([]float64, 20000)
	x := 0.0
	for i := range xs {
		x = 0.99*x + s.Normal(0, 0.1)
		xs[i] = x
	}
	r, err := MSDMADRatio(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.5 {
		t.Fatalf("AR(1) MSD/MAD = %v, want << 1", r)
	}
}

func TestMSDMADConstantSeries(t *testing.T) {
	if _, err := MSDMADRatio([]float64{2, 2, 2}); err == nil {
		t.Fatal("constant series accepted")
	}
}

func TestLocalityReportOrdering(t *testing.T) {
	s := rng.New(6)
	xs := make([]float64, 10000)
	x := 0.0
	for i := range xs {
		x = 0.995*x + s.Normal(0, 0.1)
		xs[i] = x + 10
	}
	rep, err := Locality(xs, s.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	if !(rep.Sorted < rep.Actual && rep.Actual < rep.Shuffled) {
		t.Fatalf("expected sorted < actual < shuffled, got %+v", rep)
	}
}

func TestKSDistanceIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	d, err := KSDistance(a, a)
	if err != nil || d > 1e-12 {
		t.Fatalf("KS identical = %v, %v", d, err)
	}
}

func TestKSDistanceDisjoint(t *testing.T) {
	d, err := KSDistance([]float64{1, 2, 3}, []float64{10, 11, 12})
	if err != nil || math.Abs(d-1) > 1e-12 {
		t.Fatalf("KS disjoint = %v, %v", d, err)
	}
}

func TestKSDistanceShifted(t *testing.T) {
	s := rng.New(9)
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = s.Normal(0, 1)
		b[i] = s.Normal(0.5, 1)
	}
	d, err := KSDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Theoretical KS distance between N(0,1) and N(0.5,1) ≈ 0.197.
	if math.Abs(d-0.197) > 0.04 {
		t.Fatalf("KS shifted = %v, want ~0.197", d)
	}
}

func TestMeanIgnoringNaN(t *testing.T) {
	m, err := MeanIgnoringNaN([]float64{1, math.NaN(), 3, math.Inf(1)})
	if err != nil || m != 2 {
		t.Fatalf("MeanIgnoringNaN = %v, %v", m, err)
	}
	if _, err := MeanIgnoringNaN([]float64{math.NaN()}); err == nil {
		t.Fatal("all-NaN accepted")
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	s := rng.New(10)
	f := func(n uint8, qRaw uint8) bool {
		k := int(n)%100 + 1
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = s.Normal(0, 100)
		}
		q := float64(qRaw) / 255
		v, err := Quantile(xs, q)
		if err != nil {
			return false
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMSDShuffleInvariantMean(t *testing.T) {
	// MAD is permutation invariant; verify via property test.
	s := rng.New(11)
	f := func(n uint8) bool {
		k := int(n)%50 + 2
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = s.Normal(0, 5)
		}
		before, err := MAD(xs)
		if err != nil {
			return false
		}
		s.ShuffleFloat64(xs)
		after, err := MAD(xs)
		if err != nil {
			return false
		}
		return math.Abs(before-after) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMAD(b *testing.B) {
	s := rng.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = s.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MAD(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPearson(b *testing.B) {
	s := rng.New(1)
	xs := make([]float64, 10000)
	ys := make([]float64, 10000)
	for i := range xs {
		xs[i] = s.Normal(0, 1)
		ys[i] = s.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pearson(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
