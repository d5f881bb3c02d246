package main

import (
	"math"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		at   float64
	}{
		{n: 19, want: 99, at: 50},     // nothing has ten samples beyond it
		{n: 40, want: 99, at: 75},     // 40 * 0.25 = 10
		{n: 100, want: 99, at: 90},    // p95 would leave 5
		{n: 200, want: 99, at: 95},    // p99 would leave 2
		{n: 1000, want: 99, at: 99},   // exactly ten beyond p99
		{n: 999, want: 99, at: 95},    // 9.99 beyond p99 is not ten
		{n: 100000, want: 95, at: 95}, // never above the percentile asked for
		{n: 100000, want: 99.9, at: 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n, c.want); got != c.at {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.at)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose: 1000, 999, … 1
	}
	got := summarize(xs, 99)
	if got.N != 1000 || got.P50 != 500 || got.Tail != 990 || got.TailAt != 99 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 tail=990 at p99", got)
	}
	short := summarize([]float64{3, 1, 2}, 99)
	if short.P50 != 2 || short.TailAt != 50 || short.Tail != 2 {
		t.Fatalf("three samples must fall back to the median: %+v", short)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([10.0, 12.0, 11.0, 30.0], n=4) == [10.25, 11.5, 25.5].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3, ok := quartiles(xs)
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g, %g, %v; want 2.75, 8.25", q1, q3, ok)
	}
	q1, q3, _ = quartiles([]float64{10, 12, 11, 30})
	if q1 != 10.25 || q3 != 25.5 {
		t.Fatalf("quartiles = %g, %g; want 10.25, 25.5", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Fatal("one value has no quartiles")
	}
	s, ok := spread(xs)
	if !ok || math.Abs(s-5.5/5) > 1e-12 { // nearest-rank median of 1..10 is 5
		t.Fatalf("spread = %g, %v", s, ok)
	}
}

// A mix's quiet latency is the mean of each kind's tenth percentile, not the
// tenth percentile of the pool (which would be the cheap kind alone), and a
// kind nobody sampled is left out of the mean.
func TestQuietMeanIsPerKind(t *testing.T) {
	cheap := make([]float64, 20)
	dear := make([]float64, 10)
	for i := range cheap {
		cheap[i] = 1 + float64(i) // p10 of 1..20 is 2
	}
	for i := range dear {
		dear[i] = 100 + float64(i) // p10 of 100..109 is 100
	}
	v, n := quietMean([][]float64{cheap, nil, dear})
	if v != (2+100)/2.0 || n != 10 {
		t.Fatalf("quietMean = %g, n=%d; want 51, n=10", v, n)
	}
	if v, n := quietMean([][]float64{nil, nil}); v != 0 || n != 0 {
		t.Fatalf("no samples: quietMean = %g, n=%d", v, n)
	}
	if got := quiet(cheap); got != 2 || cheap[0] != 1 {
		t.Fatalf("quiet = %g (want 2) and must not reorder its input", got)
	}
}

// The calibrator scales by the unit's quiet time inside the phase only, and
// leaves a timing alone when it has nothing to go by.
func TestCalibratorSpeedUsesThePhaseWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := &calibrator{}
	for i := 0; i < 100; i++ {
		us := refUnitUS // first half: the reference speed
		if i >= 50 {
			us = 2 * refUnitUS // second half: a host running at half speed
		}
		c.samples = append(c.samples, calibSample{at: t0.Add(time.Duration(i) * time.Millisecond), us: us})
	}
	if got := c.speed(t0, t0.Add(49*time.Millisecond)); got != 1 {
		t.Fatalf("speed over the first half = %g, want 1", got)
	}
	if got := c.speed(t0.Add(50*time.Millisecond), t0.Add(time.Second)); got != 0.5 {
		t.Fatalf("speed over the second half = %g, want 0.5", got)
	}
	if got := c.speed(t0.Add(time.Hour), t0.Add(2*time.Hour)); got != 1 {
		t.Fatalf("speed with no sample in the window = %g, want 1", got)
	}
	if got := (*calibrator)(nil).speed(t0, t0); got != 1 {
		t.Fatalf("nil calibrator speed = %g, want 1", got)
	}
}
