package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"autosens/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At round trip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("new matrix not zeroed")
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d,%d) did not panic", c[0], c[1])
				}
			}()
			m.At(c[0], c[1])
		}()
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose mismatch")
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 6 || v[1] != 15 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestMulIdentity(t *testing.T) {
	s := rng.New(1)
	a := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			a.Set(i, j, s.Normal(0, 1))
		}
	}
	id := Identity(5)
	c, err := a.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if c.At(i, j) != a.At(i, j) {
				t.Fatal("A·I != A")
			}
		}
	}
}

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	s := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		n := 1 + s.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, s.Normal(0, 1))
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant => nonsingular
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = s.Normal(0, 3)
		}
		b, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !almostEq(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestInverse(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := a.Mul(inv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-12) {
				t.Fatalf("A·A⁻¹[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square, consistent system: least squares must reproduce Solve.
	a := FromRows([][]float64{{2, 0}, {0, 3}})
	x, err := LeastSquares(a, []float64{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("LeastSquares = %v", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 1 + 2x to noisy-free points: exact recovery.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 1 + 2*x
	}
	c, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c[0], 1, 1e-10) || !almostEq(c[1], 2, 1e-10) {
		t.Fatalf("coefficients = %v, want [1 2]", c)
	}
}

func TestLeastSquaresResidualMinimum(t *testing.T) {
	// For an inconsistent system, the LS solution's residual must not exceed
	// the residual of perturbed solutions (local optimality check).
	a := FromRows([][]float64{{1, 0}, {1, 1}, {1, 2}})
	b := []float64{1, 0, 2}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	resid := func(x []float64) float64 {
		v, _ := a.MulVec(x)
		var s float64
		for i := range v {
			d := v[i] - b[i]
			s += d * d
		}
		return s
	}
	base := resid(x)
	for _, d := range [][]float64{{1e-3, 0}, {-1e-3, 0}, {0, 1e-3}, {0, -1e-3}} {
		if resid([]float64{x[0] + d[0], x[1] + d[1]}) < base-1e-12 {
			t.Fatalf("perturbation %v improved the residual", d)
		}
	}
}

func TestPolyFitRecovers(t *testing.T) {
	coeff := []float64{2, -1, 0.5, 0.25}
	xs := make([]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i-10) / 3
		ys[i] = PolyEval(coeff, xs[i])
	}
	got, err := PolyFit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coeff {
		if !almostEq(got[i], coeff[i], 1e-8) {
			t.Fatalf("coefficient %d = %v, want %v", i, got[i], coeff[i])
		}
	}
}

func TestPolyFitDegreeTooHigh(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestPolyEval(t *testing.T) {
	// 3 + 2x + x^2 at x=2 => 3 + 4 + 4 = 11
	if v := PolyEval([]float64{3, 2, 1}, 2); v != 11 {
		t.Fatalf("PolyEval = %v, want 11", v)
	}
	if v := PolyEval(nil, 5); v != 0 {
		t.Fatalf("PolyEval(nil) = %v, want 0", v)
	}
}

func TestLUSolveMatchesQRProperty(t *testing.T) {
	s := rng.New(3)
	f := func(seed uint64) bool {
		r := s.Split(seed)
		n := 2 + r.Intn(5)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Normal(0, 1))
			}
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Normal(0, 1)
		}
		x1, err1 := Solve(a, b)
		x2, err2 := LeastSquares(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if !almostEq(x1[i], x2[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolve8(b *testing.B) {
	s := rng.New(4)
	a := NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			a.Set(i, j, s.Normal(0, 1))
		}
		a.Set(i, i, a.At(i, i)+8)
	}
	rhs := make([]float64, 8)
	for i := range rhs {
		rhs[i] = s.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
