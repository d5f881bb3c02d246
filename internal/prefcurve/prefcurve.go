// Package prefcurve models latency-preference curves p(L): the relative
// propensity of a user to perform an action when the anticipated latency is
// L, normalized so that p(reference) = 1.
//
// The simulator uses these as ground truth (users' action rates are
// modulated by p of their anticipated latency); the experiment harness uses
// them again to check that AutoSens recovers the curve it planted. Curves
// built through anchor points use monotone piecewise-linear interpolation,
// which makes it easy to hit the exact normalized-latency-preference values
// quoted in the paper (e.g. SelectMail: 0.88 @ 500 ms, 0.68 @ 1000 ms,
// 0.61 @ 1500 ms relative to 300 ms).
package prefcurve

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Curve evaluates the relative activity propensity at a latency (in
// milliseconds). Implementations must return positive finite values.
type Curve interface {
	// Eval returns the propensity at latency ms.
	Eval(ms float64) float64
}

// Flat is a latency-insensitive curve: Eval always returns Level.
// ComposeSend in the paper behaves this way.
type Flat struct {
	Level float64
}

// Eval implements Curve.
func (f Flat) Eval(float64) float64 { return f.Level }

// Anchor is one (latency, propensity) control point of a piecewise-linear
// curve.
type Anchor struct {
	Latency float64 // milliseconds
	Value   float64 // relative propensity, > 0
}

// PiecewiseLinear interpolates linearly between anchor points and clamps to
// the first/last anchor value outside their range.
type PiecewiseLinear struct {
	anchors []Anchor
}

// NewPiecewiseLinear builds a curve from anchors. At least one anchor is
// required; latencies must be strictly increasing after sorting is applied,
// and values must be positive and finite.
func NewPiecewiseLinear(anchors []Anchor) (*PiecewiseLinear, error) {
	if len(anchors) == 0 {
		return nil, errors.New("prefcurve: no anchors")
	}
	as := make([]Anchor, len(anchors))
	copy(as, anchors)
	sort.Slice(as, func(i, j int) bool { return as[i].Latency < as[j].Latency })
	for i, a := range as {
		if a.Value <= 0 || math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
			return nil, fmt.Errorf("prefcurve: invalid anchor value %v at %v ms", a.Value, a.Latency)
		}
		if i > 0 && as[i-1].Latency >= a.Latency {
			return nil, fmt.Errorf("prefcurve: duplicate anchor latency %v", a.Latency)
		}
	}
	return &PiecewiseLinear{anchors: as}, nil
}

// MustPiecewiseLinear is NewPiecewiseLinear, panicking on error. For the
// static ground-truth tables in the simulator.
func MustPiecewiseLinear(anchors []Anchor) *PiecewiseLinear {
	c, err := NewPiecewiseLinear(anchors)
	if err != nil {
		panic(err)
	}
	return c
}

// Eval implements Curve.
func (c *PiecewiseLinear) Eval(ms float64) float64 {
	as := c.anchors
	if ms <= as[0].Latency {
		return as[0].Value
	}
	if ms >= as[len(as)-1].Latency {
		return as[len(as)-1].Value
	}
	i := sort.Search(len(as), func(k int) bool { return as[k].Latency > ms }) - 1
	a, b := as[i], as[i+1]
	frac := (ms - a.Latency) / (b.Latency - a.Latency)
	return a.Value + frac*(b.Value-a.Value)
}

// ExpDecay is a smooth declining curve
//
//	p(L) = Floor + (1 − Floor)·exp(−max(0, L−Knee)/Tau)
//
// useful for synthetic sensitivity profiles that are flat until Knee and
// then decay toward an asymptote Floor.
type ExpDecay struct {
	Knee  float64 // ms below which the curve is 1
	Tau   float64 // decay constant, ms
	Floor float64 // asymptote in (0, 1]
}

// Eval implements Curve.
func (e ExpDecay) Eval(ms float64) float64 {
	if ms <= e.Knee {
		return 1
	}
	return e.Floor + (1-e.Floor)*math.Exp(-(ms-e.Knee)/e.Tau)
}

// Normalized wraps a curve so that Eval(reference) == 1.
type Normalized struct {
	base Curve
	ref  float64
	inv  float64
}

// Normalize returns base rescaled so its value at reference latency is 1.
func Normalize(base Curve, reference float64) (*Normalized, error) {
	v := base.Eval(reference)
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("prefcurve: curve value %v at reference %v is not normalizable", v, reference)
	}
	return &Normalized{base: base, ref: reference, inv: 1 / v}, nil
}

// Eval implements Curve.
func (n *Normalized) Eval(ms float64) float64 { return n.base.Eval(ms) * n.inv }

// Reference returns the latency at which the curve equals 1.
func (n *Normalized) Reference() float64 { return n.ref }

// Sample evaluates c at the centers of count bins of the given width
// starting at min, returning the latency grid and values. Convenient when
// comparing ground truth against an estimated NLP curve on the same bins.
func Sample(c Curve, min, width float64, count int) (lat, val []float64) {
	lat = make([]float64, count)
	val = make([]float64, count)
	for i := 0; i < count; i++ {
		lat[i] = min + (float64(i)+0.5)*width
		val[i] = c.Eval(lat[i])
	}
	return lat, val
}

// MaxAbsError returns the maximum absolute difference between curves a and b
// over the sampled latency grid. Used by the ground-truth-recovery check.
func MaxAbsError(a, b Curve, min, width float64, count int) float64 {
	var worst float64
	for i := 0; i < count; i++ {
		l := min + (float64(i)+0.5)*width
		d := math.Abs(a.Eval(l) - b.Eval(l))
		if d > worst {
			worst = d
		}
	}
	return worst
}
