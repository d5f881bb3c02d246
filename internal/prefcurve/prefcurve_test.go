package prefcurve

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFlat(t *testing.T) {
	c := Flat{Level: 0.7}
	for _, ms := range []float64{0, 100, 5000} {
		if c.Eval(ms) != 0.7 {
			t.Fatalf("Flat.Eval(%v) = %v", ms, c.Eval(ms))
		}
	}
}

func TestPiecewiseLinearValidation(t *testing.T) {
	if _, err := NewPiecewiseLinear(nil); err == nil {
		t.Fatal("empty anchors accepted")
	}
	if _, err := NewPiecewiseLinear([]Anchor{{100, 0}}); err == nil {
		t.Fatal("zero value accepted")
	}
	if _, err := NewPiecewiseLinear([]Anchor{{100, 1}, {100, 2}}); err == nil {
		t.Fatal("duplicate latency accepted")
	}
	if _, err := NewPiecewiseLinear([]Anchor{{100, math.NaN()}}); err == nil {
		t.Fatal("NaN value accepted")
	}
}

func TestPiecewiseLinearInterpolation(t *testing.T) {
	c := MustPiecewiseLinear([]Anchor{{0, 1}, {100, 0.5}})
	cases := []struct{ ms, want float64 }{
		{-10, 1}, {0, 1}, {50, 0.75}, {100, 0.5}, {200, 0.5},
	}
	for _, tc := range cases {
		if got := c.Eval(tc.ms); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("Eval(%v) = %v, want %v", tc.ms, got, tc.want)
		}
	}
}

func TestPiecewiseLinearSortsAnchors(t *testing.T) {
	c := MustPiecewiseLinear([]Anchor{{100, 0.5}, {0, 1}})
	if got := c.Eval(50); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("unsorted anchors: Eval(50) = %v", got)
	}
}

func TestPaperSelectMailAnchors(t *testing.T) {
	// The curve planted for SelectMail must reproduce the paper's quoted
	// NLP values exactly at the anchor latencies.
	c := MustPiecewiseLinear([]Anchor{
		{0, 1.04}, {300, 1.0}, {500, 0.88}, {1000, 0.68}, {1500, 0.61}, {2000, 0.59}, {3000, 0.57},
	})
	n, err := Normalize(c, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ ms, want float64 }{
		{300, 1.0}, {500, 0.88}, {1000, 0.68}, {1500, 0.61}, {2000, 0.59},
	} {
		if got := n.Eval(tc.ms); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("NLP(%v) = %v, want %v", tc.ms, got, tc.want)
		}
	}
}

func TestExpDecay(t *testing.T) {
	e := ExpDecay{Knee: 300, Tau: 500, Floor: 0.5}
	if e.Eval(100) != 1 || e.Eval(300) != 1 {
		t.Fatal("ExpDecay below knee should be 1")
	}
	v := e.Eval(800)
	want := 0.5 + 0.5*math.Exp(-1)
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("ExpDecay(800) = %v, want %v", v, want)
	}
	// Approaches the floor.
	if got := e.Eval(1e6); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("ExpDecay(inf) = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	c := ExpDecay{Knee: 0, Tau: 1000, Floor: 0.2}
	n, err := Normalize(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Eval(500)-1) > 1e-12 {
		t.Fatalf("normalized value at reference = %v", n.Eval(500))
	}
	if n.Reference() != 500 {
		t.Fatalf("Reference = %v", n.Reference())
	}
	// Ratios preserved.
	r1 := c.Eval(1000) / c.Eval(500)
	r2 := n.Eval(1000) / n.Eval(500)
	if math.Abs(r1-r2) > 1e-12 {
		t.Fatal("normalization changed ratios")
	}
}

func TestNormalizeRejectsZero(t *testing.T) {
	if _, err := Normalize(Flat{Level: 0}, 100); err == nil {
		t.Fatal("zero-valued curve normalized")
	}
}

func TestSampleGrid(t *testing.T) {
	lat, val := Sample(Flat{Level: 2}, 0, 10, 3)
	wantLat := []float64{5, 15, 25}
	for i := range wantLat {
		if lat[i] != wantLat[i] || val[i] != 2 {
			t.Fatalf("Sample = %v, %v", lat, val)
		}
	}
}

func TestMaxAbsError(t *testing.T) {
	a := Flat{Level: 1}
	b := Flat{Level: 0.75}
	if e := MaxAbsError(a, b, 0, 10, 100); math.Abs(e-0.25) > 1e-12 {
		t.Fatalf("MaxAbsError = %v", e)
	}
	if e := MaxAbsError(a, a, 0, 10, 100); e != 0 {
		t.Fatalf("self error = %v", e)
	}
}

func TestPiecewiseMonotoneProperty(t *testing.T) {
	// For a curve with decreasing anchor values, Eval must be
	// non-increasing in latency.
	c := MustPiecewiseLinear([]Anchor{
		{0, 1.0}, {500, 0.9}, {1000, 0.7}, {2000, 0.6},
	})
	f := func(a, b uint16) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return c.Eval(x) >= c.Eval(y)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalWithinAnchorRangeProperty(t *testing.T) {
	c := MustPiecewiseLinear([]Anchor{{0, 0.5}, {1000, 1.5}, {2000, 1.0}})
	f := func(msRaw uint16) bool {
		v := c.Eval(float64(msRaw))
		return v >= 0.5-1e-12 && v <= 1.5+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
