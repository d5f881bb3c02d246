package core

import (
	"math"
	"testing"
)

// TestCurveAtSingleBin is a regression test: At used to index BinCenters[1]
// unconditionally to derive the bin width and panicked on single-bin curves.
func TestCurveAtSingleBin(t *testing.T) {
	c := &Curve{
		BinCenters: []float64{5},
		NLP:        []float64{0.7},
		Valid:      []bool{true},
	}
	for _, ms := range []float64{-100, 0, 5, 1e9} {
		v, ok := c.At(ms)
		if !ok || v != 0.7 {
			t.Fatalf("At(%v) = %v, %v; want 0.7, true", ms, v, ok)
		}
	}
	empty := &Curve{}
	if _, ok := empty.At(10); ok {
		t.Fatal("empty curve reported a valid bin")
	}
}

// TestCurveCIBoundsSingleBin is the CurveCI counterpart of the single-bin
// regression: Bounds derived the bin width from BinCenters[1] too.
func TestCurveCIBoundsSingleBin(t *testing.T) {
	ci := &CurveCI{
		Curve: &Curve{BinCenters: []float64{5}},
		Lower: []float64{0.4},
		Upper: []float64{0.9},
	}
	for _, ms := range []float64{-10, 5, 5000} {
		lo, hi, ok := ci.Bounds(ms)
		if !ok || lo != 0.4 || hi != 0.9 {
			t.Fatalf("Bounds(%v) = %v, %v, %v; want 0.4, 0.9, true", ms, lo, hi, ok)
		}
	}
	nan := &CurveCI{
		Curve: &Curve{BinCenters: []float64{5}},
		Lower: []float64{math.NaN()},
		Upper: []float64{math.NaN()},
	}
	if _, _, ok := nan.Bounds(5); ok {
		t.Fatal("NaN bounds reported as supported")
	}
	empty := &CurveCI{Curve: &Curve{}}
	if _, _, ok := empty.Bounds(5); ok {
		t.Fatal("empty CI reported supported bounds")
	}
}

func TestInterpolateHolesEdges(t *testing.T) {
	eq := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%s: [%d] = %v, want %v (full: %v)", name, i, got[i], want[i], got)
			}
		}
	}

	if out := interpolateHoles([]float64{1, 2}, []bool{false, false}); out != nil {
		t.Fatalf("all-invalid input should return nil, got %v", out)
	}
	eq("single valid element",
		interpolateHoles([]float64{7}, []bool{true}), []float64{7})
	if out := interpolateHoles([]float64{7}, []bool{false}); out != nil {
		t.Fatalf("single invalid element should return nil, got %v", out)
	}
	eq("leading hole back-fills",
		interpolateHoles([]float64{9, 9, 4, 5}, []bool{false, false, true, true}),
		[]float64{4, 4, 4, 5})
	eq("trailing hole forward-fills",
		interpolateHoles([]float64{4, 5, 9, 9}, []bool{true, true, false, false}),
		[]float64{4, 5, 5, 5})
	eq("interior hole interpolates linearly",
		interpolateHoles([]float64{1, 9, 9, 4}, []bool{true, false, false, true}),
		[]float64{1, 2, 3, 4})
	eq("only one valid anchor fills everything",
		interpolateHoles([]float64{9, 3, 9}, []bool{false, true, false}),
		[]float64{3, 3, 3})
}
