// Package linalg implements the small dense linear-algebra kernels needed by
// the Savitzky–Golay filter and the curve-fitting utilities: matrix
// arithmetic, LU decomposition with partial pivoting, linear solves, and
// linear least squares via QR (Householder reflections).
//
// Matrices are row-major and sized at construction; the package is written
// for the small systems that appear in smoothing-filter design (tens of rows
// and columns), not for large-scale numerics.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no unique solution.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible dimensions")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix. It panics if either dimension
// is non-positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("linalg: non-positive matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal,
// non-zero length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("linalg: FromRows with ragged input")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, ErrShape
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			row := b.data[k*b.cols : (k+1)*b.cols]
			outRow := out.data[i*out.cols : (i+1)*out.cols]
			for j, v := range row {
				outRow[j] += a * v
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, ErrShape
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// LU holds an LU decomposition with partial pivoting: P·A = L·U.
type LU struct {
	lu    *Matrix
	pivot []int
}

// Decompose computes the LU decomposition of the square matrix a.
func Decompose(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, ErrShape
	}
	n := a.rows
	lu := a.Clone()
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		p := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > maxAbs {
				maxAbs = v
				p = r
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				lu.data[p*n+j], lu.data[col*n+j] = lu.data[col*n+j], lu.data[p*n+j]
			}
			pivot[p], pivot[col] = pivot[col], pivot[p]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			for j := col + 1; j < n; j++ {
				lu.Set(r, j, lu.At(r, j)-f*lu.At(col, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Solve solves A·x = b for the decomposed A.
func (d *LU) Solve(b []float64) ([]float64, error) {
	n := d.lu.rows
	if len(b) != n {
		return nil, ErrShape
	}
	x := make([]float64, n)
	for i, p := range d.pivot {
		x[i] = b[p]
	}
	// Forward substitution (L has implicit unit diagonal).
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += d.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += d.lu.At(i, j) * x[j]
		}
		x[i] = (x[i] - s) / d.lu.At(i, i)
	}
	return x, nil
}

// Solve solves the square system a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	d, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	return d.Solve(b)
}

// Inverse returns the inverse of the square matrix a.
func Inverse(a *Matrix) (*Matrix, error) {
	d, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := d.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// LeastSquares solves min ‖A·x − b‖₂ for an overdetermined system using
// Householder QR. A must have at least as many rows as columns and full
// column rank.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.rows {
		return nil, ErrShape
	}
	qr, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return qr.Solve(b)
}

// QR is the Householder QR factorization of a matrix with at least as many
// rows as columns, kept to solve least-squares systems over the same matrix
// for many right-hand sides: Solve applies the reflectors to b in the order
// they were made, so the factorization done once and applied per call gives
// the bits of factoring per call.
type QR struct {
	// r holds R on and above the diagonal and, below it, the tail of each
	// column's reflector v = (v0[k], r[k+1..m-1, k]).
	r    *Matrix
	v0   []float64
	beta []float64 // 2/(vᵀv)
	skip []bool    // vᵀv was 0: column k reflects nothing
}

// FactorQR factors a by Householder reflections. a must have at least as
// many rows as columns and full column rank.
func FactorQR(a *Matrix) (*QR, error) {
	if a.rows < a.cols {
		return nil, ErrShape
	}
	m, n := a.rows, a.cols
	qr := &QR{r: a.Clone(), v0: make([]float64, n), beta: make([]float64, n), skip: make([]bool, n)}
	r := qr.r
	for k := 0; k < n; k++ {
		// Householder vector for column k.
		var norm float64
		for i := k; i < m; i++ {
			v := r.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, ErrSingular
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		// v = x - norm*e1, stored in column k below the diagonal.
		v0 := r.At(k, k) - norm
		r.Set(k, k, norm)
		qr.v0[k] = v0
		// beta = 2 / (v'v); v = (v0, r[k+1..m-1, k])
		vtv := v0 * v0
		for i := k + 1; i < m; i++ {
			vi := r.At(i, k)
			vtv += vi * vi
		}
		if vtv == 0 {
			qr.skip[k] = true
			continue
		}
		beta := 2 / vtv
		qr.beta[k] = beta
		// Apply reflector to remaining columns.
		for j := k + 1; j < n; j++ {
			dot := v0 * r.At(k, j)
			for i := k + 1; i < m; i++ {
				dot += r.At(i, k) * r.At(i, j)
			}
			f := beta * dot
			r.Set(k, j, r.At(k, j)-f*v0)
			for i := k + 1; i < m; i++ {
				r.Set(i, j, r.At(i, j)-f*r.At(i, k))
			}
		}
	}
	return qr, nil
}

// Solve returns the x minimizing ‖A·x − b‖₂ for the factored A.
func (qr *QR) Solve(b []float64) ([]float64, error) {
	r := qr.r
	m, n := r.rows, r.cols
	if len(b) != m {
		return nil, ErrShape
	}
	y := make([]float64, m)
	copy(y, b)
	for k := 0; k < n; k++ {
		if qr.skip[k] {
			continue
		}
		// Apply reflector k to y.
		v0 := qr.v0[k]
		dot := v0 * y[k]
		for i := k + 1; i < m; i++ {
			dot += r.At(i, k) * y[i]
		}
		f := qr.beta[k] * dot
		y[k] -= f * v0
		for i := k + 1; i < m; i++ {
			y[i] -= f * r.At(i, k)
		}
	}
	// Back substitution on the upper-triangular R (top n×n of r).
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// PolyFit fits a polynomial of the given degree to points (xs, ys) by least
// squares and returns the coefficients c[0..degree], lowest order first.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, ErrShape
	}
	if degree < 0 || len(xs) < degree+1 {
		return nil, ErrShape
	}
	return LeastSquares(Vandermonde(xs, degree), ys)
}

// Vandermonde returns the len(xs)×(degree+1) matrix of the powers x⁰..x^degree
// of each x: PolyFit's least-squares system.
func Vandermonde(xs []float64, degree int) *Matrix {
	a := NewMatrix(len(xs), degree+1)
	for i, x := range xs {
		p := 1.0
		for j := 0; j <= degree; j++ {
			a.Set(i, j, p)
			p *= x
		}
	}
	return a
}

// PolyEval evaluates the polynomial with coefficients c (lowest order first)
// at x using Horner's method.
func PolyEval(c []float64, x float64) float64 {
	var v float64
	for i := len(c) - 1; i >= 0; i-- {
		v = v*x + c[i]
	}
	return v
}
