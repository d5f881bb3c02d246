package sgolay

import (
	"math"
	"testing"

	"autosens/internal/linalg"
	"autosens/internal/rng"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		window, degree, deriv int
	}{
		{0, 0, 0},  // zero window
		{4, 1, 0},  // even window
		{-3, 1, 0}, // negative window
		{5, -1, 0}, // negative degree
		{5, 5, 0},  // degree >= window
		{5, 2, 3},  // deriv > degree
		{5, 2, -1}, // negative deriv
		{101, 101, 0},
	}
	for _, c := range cases {
		if _, err := NewDeriv(c.window, c.degree, c.deriv); err == nil {
			t.Fatalf("NewDeriv(%d,%d,%d) succeeded, want error", c.window, c.degree, c.deriv)
		}
	}
	if _, err := New(101, 3); err != nil {
		t.Fatalf("paper configuration rejected: %v", err)
	}
}

// Known coefficients from Savitzky & Golay's tables: window 5, degree 2
// smoothing weights are (-3, 12, 17, 12, -3)/35.
func TestKnownCoefficients5_2(t *testing.T) {
	f, err := New(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-3.0 / 35, 12.0 / 35, 17.0 / 35, 12.0 / 35, -3.0 / 35}
	got := f.Coefficients()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("coeff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Window 7, degree 2: weights (-2, 3, 6, 7, 6, 3, -2)/21.
func TestKnownCoefficients7_2(t *testing.T) {
	f, err := New(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2.0 / 21, 3.0 / 21, 6.0 / 21, 7.0 / 21, 6.0 / 21, 3.0 / 21, -2.0 / 21}
	got := f.Coefficients()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("coeff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCoefficientsSumToOne(t *testing.T) {
	for _, c := range []struct{ w, d int }{{5, 2}, {7, 3}, {11, 4}, {101, 3}, {21, 2}} {
		f, err := New(c.w, c.d)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range f.Coefficients() {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("window %d degree %d: coefficient sum %v, want 1", c.w, c.d, sum)
		}
	}
}

func TestDerivCoefficientsSumToZero(t *testing.T) {
	f, err := NewDeriv(7, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range f.Coefficients() {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("derivative coefficient sum %v, want 0", sum)
	}
}

// A polynomial of degree <= filter degree must pass through unchanged,
// including at the edges.
func TestPolynomialReproduction(t *testing.T) {
	f, err := New(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := 50
	ys := make([]float64, n)
	for i := range ys {
		x := float64(i)
		ys[i] = 2 - 0.3*x + 0.02*x*x - 0.0004*x*x*x
	}
	out, err := f.Apply(ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ys {
		if math.Abs(out[i]-ys[i]) > 1e-7 {
			t.Fatalf("cubic not reproduced at %d: got %v want %v", i, out[i], ys[i])
		}
	}
}

func TestConstantReproduction(t *testing.T) {
	out, err := Smooth([]float64{5, 5, 5, 5, 5, 5, 5, 5}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-5) > 1e-10 {
			t.Fatalf("constant not reproduced at %d: %v", i, v)
		}
	}
}

func TestShortInputFallback(t *testing.T) {
	// Input shorter than window: single global fit with clamped degree.
	out, err := Smooth([]float64{1, 2, 3}, 101, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(out[i]-want) > 1e-9 {
			t.Fatalf("short input: out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	if _, err := Smooth(nil, 5, 2); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestNoiseReduction(t *testing.T) {
	s := rng.New(42)
	n := 2000
	ys := make([]float64, n)
	truth := make([]float64, n)
	for i := range ys {
		truth[i] = math.Sin(float64(i) / 150)
		ys[i] = truth[i] + s.Normal(0, 0.3)
	}
	out, err := Smooth(ys, 101, 3)
	if err != nil {
		t.Fatal(err)
	}
	mse := func(xs []float64) float64 {
		var s float64
		for i := range xs {
			d := xs[i] - truth[i]
			s += d * d
		}
		return s / float64(n)
	}
	raw, smoothed := mse(ys), mse(out)
	if smoothed > raw/5 {
		t.Fatalf("smoothing reduced MSE only from %v to %v", raw, smoothed)
	}
}

func TestFirstDerivativeOfLine(t *testing.T) {
	f, err := NewDeriv(9, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ys := make([]float64, 40)
	for i := range ys {
		ys[i] = 3 + 0.5*float64(i)
	}
	out, err := f.Apply(ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-0.5) > 1e-8 {
			t.Fatalf("derivative at %d = %v, want 0.5", i, v)
		}
	}
}

func TestSecondDerivativeOfParabola(t *testing.T) {
	f, err := NewDeriv(9, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ys := make([]float64, 40)
	for i := range ys {
		x := float64(i)
		ys[i] = 1 + 2*x + 0.25*x*x
	}
	out, err := f.Apply(ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-0.5) > 1e-7 {
			t.Fatalf("second derivative at %d = %v, want 0.5", i, v)
		}
	}
}

func TestOutputLengthMatchesInput(t *testing.T) {
	for _, n := range []int{1, 2, 5, 100, 101, 102, 500} {
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = float64(i % 7)
		}
		out, err := Smooth(ys, 101, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: output length %d", n, len(out))
		}
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	ys := []float64{1, 9, 2, 8, 3, 7, 4, 6, 5, 5, 5}
	orig := make([]float64, len(ys))
	copy(orig, ys)
	if _, err := Smooth(ys, 5, 2); err != nil {
		t.Fatal(err)
	}
	for i := range ys {
		if ys[i] != orig[i] {
			t.Fatal("Apply mutated its input")
		}
	}
}

func BenchmarkSmooth101x3(b *testing.B) {
	s := rng.New(1)
	ys := make([]float64, 3000)
	for i := range ys {
		ys[i] = s.Normal(0, 1)
	}
	f, err := New(101, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Apply(ys); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEdgesMatchPolyFit holds Apply's edge points, fitted from the
// factorization New keeps, to the fit linalg.PolyFit makes of the same
// window, bit for bit: on random series, at the paper's window and degree
// and at small ones, smoothing and differentiating.
func TestEdgesMatchPolyFit(t *testing.T) {
	s := rng.New(7)
	for _, c := range []struct{ window, degree, deriv int }{{101, 3, 0}, {101, 3, 1}, {7, 2, 0}, {5, 4, 2}} {
		f, err := NewDeriv(c.window, c.degree, c.deriv)
		if err != nil {
			t.Fatal(err)
		}
		m := c.window / 2
		xs := make([]float64, c.window)
		for i := range xs {
			xs[i] = float64(i)
		}
		for trial := 0; trial < 20; trial++ {
			ys := make([]float64, c.window+s.Intn(3*c.window))
			for i := range ys {
				ys[i] = s.LogNormal(0, 1) * math.Pow(10, float64(s.Intn(7)-3))
			}
			out, err := f.Apply(ys)
			if err != nil {
				t.Fatal(err)
			}
			n := len(ys)
			for _, edge := range []struct {
				seg    []float64
				lo, at int // first offset in the window, first index in out
			}{{ys[:c.window], 0, 0}, {ys[n-c.window:], c.window - m, n - m}} {
				coef, err := linalg.PolyFit(xs, edge.seg, c.degree)
				if err != nil {
					t.Fatal(err)
				}
				for d := 0; d < c.deriv; d++ {
					coef = differentiate(coef)
				}
				for i := 0; i < m; i++ {
					want := linalg.PolyEval(coef, float64(edge.lo+i))
					if got := out[edge.at+i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("window %d degree %d deriv %d, n=%d: out[%d] = %v, PolyFit gives %v",
							c.window, c.degree, c.deriv, n, edge.at+i, got, want)
					}
				}
			}
		}
	}
}
