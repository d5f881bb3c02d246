package core

import (
	"errors"
	"math"
	"sort"

	"autosens/internal/timeutil"
)

// RollingOptions configures a sliding-window NLP series — the
// generalization of the paper's month-over-month stability check (Figure 9)
// to arbitrary windows, useful for detecting drift in latency sensitivity
// over time.
type RollingOptions struct {
	// Window is the length of each estimation window.
	Window timeutil.Millis
	// Step is the offset between consecutive window starts; Step < Window
	// yields overlapping windows.
	Step timeutil.Millis
	// Probes are the latencies whose NLP is tracked per window.
	Probes []float64
	// TimeNormalized selects the full α-normalized estimator per window.
	// It requires each window to span enough slots; plain estimation
	// (false) works down to much shorter windows.
	TimeNormalized bool
	// MinRecords skips windows with fewer usable records.
	MinRecords int
}

// DefaultRollingOptions tracks weekly windows sliding by half a week.
func DefaultRollingOptions() RollingOptions {
	return RollingOptions{
		Window:         7 * timeutil.MillisPerDay,
		Step:           3*timeutil.MillisPerDay + 12*timeutil.MillisPerHour,
		Probes:         []float64{500, 1000},
		TimeNormalized: true,
		MinRecords:     1000,
	}
}

// Validate checks the options.
func (o RollingOptions) Validate() error {
	if o.Window <= 0 {
		return errors.New("core: non-positive rolling window")
	}
	if o.Step <= 0 {
		return errors.New("core: non-positive rolling step")
	}
	if len(o.Probes) == 0 {
		return errors.New("core: no probe latencies")
	}
	if o.MinRecords < 0 {
		return errors.New("core: negative MinRecords")
	}
	return nil
}

// RollingSeries is the NLP drift series: one row per window that produced
// an estimate.
type RollingSeries struct {
	// WindowStart is the start time of each estimated window.
	WindowStart []timeutil.Millis
	// Probes echoes the probe latencies.
	Probes []float64
	// NLP[i][j] is the NLP at Probes[j] for window i (NaN when that
	// probe's bin was invalid).
	NLP [][]float64
	// ProbeN[i][j] is the effective sample size behind NLP[i][j] — see
	// Curve.EffectiveN. Consumers sizing confidence intervals should use
	// this, not Records: the probe bin's count is what bounds the error.
	ProbeN [][]float64
	// Records[i] is the number of usable records in window i.
	Records []int
	// Skipped counts windows dropped for thin data or estimation
	// failure.
	Skipped int
}

// MaxDrift returns the largest |NLP difference| between consecutive
// windows at probe index j, skipping NaN gaps.
func (r *RollingSeries) MaxDrift(j int) float64 {
	var worst float64
	prev := math.NaN()
	for i := range r.NLP {
		v := r.NLP[i][j]
		if math.IsNaN(v) {
			continue
		}
		if !math.IsNaN(prev) {
			if d := math.Abs(v - prev); d > worst {
				worst = d
			}
		}
		prev = v
	}
	return worst
}

// RollingColumns estimates NLP over sliding windows of time-sorted columns
// of usable records. A shared Scratch is reused across windows, so a series
// over w windows allocates w output curves, not w estimator states.
func (e *Estimator) RollingColumns(times []timeutil.Millis, lats []float64, opts RollingOptions) (*RollingSeries, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := checkColumns(times, lats); err != nil {
		return nil, err
	}
	lo := times[0]
	hi := times[len(times)-1]

	req := Request{Mode: ModeOf(opts.TimeNormalized)}
	var sc Scratch
	out := &RollingSeries{Probes: opts.Probes}
	for start := lo; start+opts.Window <= hi+1; start += opts.Step {
		end := start + opts.Window
		i := sort.Search(len(times), func(k int) bool { return times[k] >= start })
		j := sort.Search(len(times), func(k int) bool { return times[k] >= end })
		if j-i < opts.MinRecords {
			out.Skipped++
			continue
		}
		curve, err := e.Finish(req, &Summary{Columns: Columns{Times: times[i:j], Lats: lats[i:j]}}, &sc)
		if err != nil {
			out.Skipped++
			continue
		}
		row := make([]float64, len(opts.Probes))
		ns := make([]float64, len(opts.Probes))
		for p, probe := range opts.Probes {
			v, ok := curve.At(probe)
			if !ok {
				v = math.NaN()
			}
			row[p] = v
			ns[p] = curve.EffectiveN(probe)
		}
		out.WindowStart = append(out.WindowStart, start)
		out.NLP = append(out.NLP, row)
		out.ProbeN = append(out.ProbeN, ns)
		out.Records = append(out.Records, j-i)
	}
	if len(out.WindowStart) == 0 {
		return nil, errors.New("core: no window produced an estimate")
	}
	return out, nil
}
