// Package sgolay implements the Savitzky–Golay smoothing filter (Savitzky &
// Golay, Analytical Chemistry 1964), the smoother AutoSens applies to the
// raw B/U latency-preference ratio (window 101 samples, polynomial degree 3
// in the paper).
//
// A Savitzky–Golay filter fits a polynomial of a given degree to each
// sliding window of 2m+1 samples by least squares and evaluates the fit (or
// one of its derivatives) at the window center. For interior points this
// reduces to a fixed convolution whose coefficients depend only on the
// window size, degree, and derivative order; near the edges this package
// refits the polynomial on the truncated window and evaluates it at the
// true position, matching scipy.signal.savgol_filter's mode="interp".
package sgolay

import (
	"errors"
	"fmt"

	"autosens/internal/linalg"
)

// Filter is a reusable Savitzky–Golay filter for a fixed window and degree.
type Filter struct {
	window int // odd, >= degree+1
	degree int
	deriv  int
	coeff  []float64 // center convolution coefficients, length=window
	// edge is the factored least-squares system of a whole-window fit at
	// offsets 0..window-1: PolyFit's, factored once, so the edge fits of
	// every Apply give PolyFit's bits without refactoring it.
	edge *linalg.QR
}

// New returns a smoothing filter (derivative order 0). Window must be odd,
// positive, and larger than degree.
func New(window, degree int) (*Filter, error) {
	return NewDeriv(window, degree, 0)
}

// NewDeriv returns a filter computing the deriv-th derivative of the local
// polynomial fit (deriv = 0 smooths).
func NewDeriv(window, degree, deriv int) (*Filter, error) {
	if window <= 0 || window%2 == 0 {
		return nil, fmt.Errorf("sgolay: window %d must be odd and positive", window)
	}
	if degree < 0 {
		return nil, errors.New("sgolay: negative degree")
	}
	if degree >= window {
		return nil, fmt.Errorf("sgolay: degree %d must be < window %d", degree, window)
	}
	if deriv < 0 || deriv > degree {
		return nil, fmt.Errorf("sgolay: derivative order %d out of [0, %d]", deriv, degree)
	}
	coeff, err := centerCoefficients(window, degree, deriv)
	if err != nil {
		return nil, err
	}
	edge, err := linalg.FactorQR(linalg.Vandermonde(offsets(window), degree))
	if err != nil {
		return nil, err
	}
	return &Filter{window: window, degree: degree, deriv: deriv, coeff: coeff, edge: edge}, nil
}

// offsets returns 0, 1, …, n-1 as float64.
func offsets(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

// Window returns the filter's window length.
func (f *Filter) Window() int { return f.window }

// Coefficients returns a copy of the interior convolution coefficients.
func (f *Filter) Coefficients() []float64 {
	out := make([]float64, len(f.coeff))
	copy(out, f.coeff)
	return out
}

// centerCoefficients computes convolution weights such that
// sum_i w[i]·y[i] equals the deriv-th derivative at the window center of the
// least-squares polynomial fit of y over positions -m..m.
//
// With the Vandermonde matrix A (A[i][j] = x_i^j, x_i = i-m), the fitted
// coefficients are c = (AᵀA)⁻¹Aᵀ y and the centered evaluation picks out
// deriv!·c[deriv]; hence w = deriv! · row_deriv((AᵀA)⁻¹Aᵀ).
func centerCoefficients(window, degree, deriv int) ([]float64, error) {
	m := window / 2
	a := linalg.NewMatrix(window, degree+1)
	for i := 0; i < window; i++ {
		x := float64(i - m)
		p := 1.0
		for j := 0; j <= degree; j++ {
			a.Set(i, j, p)
			p *= x
		}
	}
	at := a.T()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	inv, err := linalg.Inverse(ata)
	if err != nil {
		return nil, err
	}
	pseudo, err := inv.Mul(at) // (degree+1) x window
	if err != nil {
		return nil, err
	}
	fact := 1.0
	for k := 2; k <= deriv; k++ {
		fact *= float64(k)
	}
	w := make([]float64, window)
	for i := 0; i < window; i++ {
		w[i] = fact * pseudo.At(deriv, i)
	}
	return w, nil
}

// Apply smooths ys and returns a new slice of the same length.
//
// Interior points use the precomputed convolution. If len(ys) < window the
// whole series is fitted with a single polynomial of degree
// min(degree, len(ys)-1) and evaluated at each point. Edge points within
// window/2 of either end are handled by refitting on the available window
// and evaluating at their true offset.
func (f *Filter) Apply(ys []float64) ([]float64, error) {
	n := len(ys)
	if n == 0 {
		return nil, errors.New("sgolay: empty input")
	}
	out := make([]float64, n)
	if n < f.window {
		c, err := linalg.PolyFit(offsets(n), ys, min(f.degree, n-1))
		if err != nil {
			return nil, err
		}
		f.eval(c, out, 0, n)
		return out, nil
	}
	m := f.window / 2
	// Interior convolution.
	for i := m; i < n-m; i++ {
		var s float64
		win := ys[i-m : i+m+1]
		for k, w := range f.coeff {
			s += w * win[k]
		}
		out[i] = s
	}
	// Leading edge: fit the first window once, evaluate at offsets 0..m-1.
	c, err := f.edge.Solve(ys[:f.window])
	if err != nil {
		return nil, err
	}
	f.eval(c, out[:m], 0, m)
	// Trailing edge: fit the last window, evaluate at the final m offsets.
	if c, err = f.edge.Solve(ys[n-f.window:]); err != nil {
		return nil, err
	}
	f.eval(c, out[n-m:], f.window-m, f.window)
	return out, nil
}

// eval writes the values (or derivative) of the fitted polynomial c at
// offsets [lo, hi) into dst[0:hi-lo].
func (f *Filter) eval(c []float64, dst []float64, lo, hi int) {
	for d := 0; d < f.deriv; d++ {
		c = differentiate(c)
	}
	for i := lo; i < hi; i++ {
		dst[i-lo] = linalg.PolyEval(c, float64(i))
	}
}

// differentiate returns the coefficients of the derivative polynomial.
func differentiate(c []float64) []float64 {
	if len(c) <= 1 {
		return []float64{0}
	}
	d := make([]float64, len(c)-1)
	for i := 1; i < len(c); i++ {
		d[i-1] = float64(i) * c[i]
	}
	return d
}

// Smooth is a convenience wrapper: build a filter and apply it once.
func Smooth(ys []float64, window, degree int) ([]float64, error) {
	f, err := New(window, degree)
	if err != nil {
		return nil, err
	}
	return f.Apply(ys)
}
