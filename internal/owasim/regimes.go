// Incident-regime scheduling: deterministic, ground-truth-known events
// injected into a simulation run so continuous-evaluation machinery (the
// sensd watcher) can be scored for precision and recall against what was
// actually planted. Two event kinds mirror the two things the watcher
// detects:
//
//   - LatencyIncident — a shared latency regression: a chosen fraction of
//     users experiences Severity× latency for a window. Sharma et al.
//     (PAPERS.md) observe that latency anomalies are frequently shared
//     across users; a fleet-wide incident here should collapse into ONE
//     correlated alert downstream, not one alert per user shard.
//   - PrefShift — a sensitivity change: the population's γ exponent is
//     scaled for a window, so the *measured NLP curve itself* moves while
//     the latency process stays put. This is drift in the paper's Figure 9
//     sense, made abrupt enough to have a known change point.
//
// Unlike the latency model's built-in Markov incident regime (random,
// seed-driven), scheduled regimes have exact, configured boundaries — the
// labels a detector is scored against.
package owasim

import (
	"errors"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// LatencyIncident is one scheduled shared latency regression.
type LatencyIncident struct {
	// Start (inclusive) and End (exclusive) bound the incident window.
	Start, End timeutil.Millis
	// Severity multiplies the end-to-end latency of affected users' actions
	// while the incident is active (> 1).
	Severity float64
	// UserFraction is the fraction of users affected, in (0, 1]. 1 is a
	// fleet-wide regression; small fractions model localized anomalies
	// (one PoP, one ISP) that should NOT be promoted to a fleet incident.
	UserFraction float64
}

// PrefShift is one scheduled sensitivity change.
type PrefShift struct {
	// Start (inclusive) and End (exclusive) bound the shift window.
	Start, End timeutil.Millis
	// GammaScale multiplies every user's sensitivity exponent γ while the
	// shift is active (> 0, != 1). Values above 1 steepen the preference
	// drop-off (users become more latency-sensitive), values below 1
	// flatten it.
	GammaScale float64
}

// RegimeSchedule is the set of scheduled regimes of one run.
type RegimeSchedule struct {
	LatencyIncidents []LatencyIncident
	PrefShifts       []PrefShift
}

// Validate checks the schedule.
func (s *RegimeSchedule) Validate() error {
	for _, inc := range s.LatencyIncidents {
		if inc.Start < 0 || inc.End <= inc.Start {
			return errors.New("owasim: latency incident window empty or negative")
		}
		if inc.Severity <= 1 {
			return errors.New("owasim: latency incident severity must exceed 1")
		}
		if inc.UserFraction <= 0 || inc.UserFraction > 1 {
			return errors.New("owasim: latency incident user fraction out of (0,1]")
		}
	}
	for _, sh := range s.PrefShifts {
		if sh.Start < 0 || sh.End <= sh.Start {
			return errors.New("owasim: preference shift window empty or negative")
		}
		if sh.GammaScale <= 0 {
			return errors.New("owasim: non-positive gamma scale")
		}
	}
	return nil
}

// InIncident reports whether the user is affected by incident index i of
// the run's schedule: a deterministic hash of the run seed, the incident
// index and the user ID, so different incidents hit different (but
// reproducible) user subsets and analyses can recover the assignment from
// the configuration alone.
func InIncident(runSeed uint64, i int, userID uint64, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	h := rng.NewStream(runSeed^0x1ac1de27^uint64(i)<<32, userID).Float64()
	return h < fraction
}

// gammaScale returns the combined γ multiplier active at time now.
func (s *RegimeSchedule) gammaScale(now timeutil.Millis) float64 {
	f := 1.0
	for _, sh := range s.PrefShifts {
		if now >= sh.Start && now < sh.End {
			f *= sh.GammaScale
		}
	}
	return f
}
