// Package owasim is the synthetic stand-in for the paper's proprietary OWA
// telemetry: a discrete-event simulation of a large web-mail service whose
// users' action rates respond to the latency they anticipate.
//
// Each user is a nonhomogeneous Poisson process realized by thinning.
// Candidate action instants arrive at the user's peak rate; a candidate is
// accepted with probability
//
//	diurnal(local hour) · Σ_a mix_a · p_a(anticipated_a)^γ  /  max rate
//
// where p_a is the planted preference curve for action type a and
// anticipated_a is the latency the user currently expects for that action.
// Anticipation follows the mechanism argued in Section 2.1 of the paper:
// users cannot see a request's latency in advance, but latency has temporal
// locality, so they can (and here, do) react to their recent experience —
// an exponentially weighted moving average of the service condition they
// observed, refreshed when they return after a break.
//
// Accepted candidates choose an action type proportionally to
// mix_a·p_a^γ, draw the actual end-to-end latency from the latency model
// (anticipated conditions plus per-request jitter), and emit a telemetry
// record. The result is exactly the data shape AutoSens consumes, with the
// ground truth known.
package owasim

import (
	"errors"
	"fmt"

	"autosens/internal/des"
	"autosens/internal/latencymodel"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/userpop"
)

// Config parameterizes one simulation run.
type Config struct {
	// Horizon is the length of the observation window.
	Horizon timeutil.Millis
	// Pop configures the user population.
	Pop userpop.Config
	// Latency configures the service latency process. Its Horizon must
	// cover the simulation horizon.
	Latency latencymodel.Config
	// Truth is the planted sensitivity model.
	Truth userpop.GroundTruth
	// FailureRate is the probability an action fails (error response);
	// failed actions are logged but excluded from analysis, as in the
	// paper.
	FailureRate float64
	// EWMABeta is the retention factor of the user's perceived service
	// condition (0 keeps no history: the user always senses the true
	// current condition — an oracle useful for clean ground-truth
	// recovery tests). Values near 1 react slowly.
	EWMABeta float64
	// StalenessReset is the gap after which a returning user re-senses
	// the true current condition instead of trusting stale history.
	StalenessReset timeutil.Millis
	// Regimes, when non-nil, schedules deterministic incident regimes —
	// shared latency regressions and preference shifts with exact,
	// configured boundaries — the labelled ground truth that alerting
	// precision/recall is scored against.
	Regimes *RegimeSchedule
	// ABTest, when non-nil, runs an active experiment alongside the
	// natural one: a fixed fraction of users (chosen by a deterministic
	// hash of their ID) receive AddMS of injected latency on every
	// action, exactly like the Amazon-style interventions the paper
	// contrasts itself with. The injected delay is real: it appears in
	// the logged latency and, through the user's perception, suppresses
	// their activity per the planted preference.
	ABTest *ABTestConfig
	// Seed drives all randomness in the run.
	Seed uint64
}

// ABTestConfig parameterizes active latency injection.
type ABTestConfig struct {
	// Fraction of users assigned to treatment, in (0, 1).
	Fraction float64
	// AddMS is the injected delay per action, > 0.
	AddMS float64
}

// Validate checks the A/B configuration.
func (c ABTestConfig) Validate() error {
	if c.Fraction <= 0 || c.Fraction >= 1 {
		return errors.New("owasim: treatment fraction out of (0,1)")
	}
	if c.AddMS <= 0 {
		return errors.New("owasim: non-positive injected delay")
	}
	return nil
}

// InTreatment reports whether the user is in the treatment group of the
// run's A/B experiment: a deterministic hash of the run seed and user ID,
// so analyses can recover the assignment from the telemetry alone.
func InTreatment(runSeed, userID uint64, fraction float64) bool {
	h := rng.NewStream(runSeed^0xab7e57, userID).Float64()
	return h < fraction
}

// DefaultConfig returns a simulation configuration over the given horizon
// with the given population segment sizes.
func DefaultConfig(horizon timeutil.Millis, business, consumer int) Config {
	return Config{
		Horizon:        horizon,
		Pop:            userpop.DefaultConfig(business, consumer),
		Latency:        latencymodel.DefaultConfig(horizon),
		Truth:          userpop.Default(),
		FailureRate:    0.01,
		EWMABeta:       0.2,
		StalenessReset: 20 * timeutil.MillisPerMinute,
		Seed:           1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Horizon <= 0 {
		return errors.New("owasim: non-positive horizon")
	}
	if c.Latency.Horizon < c.Horizon {
		return fmt.Errorf("owasim: latency horizon %d shorter than simulation horizon %d", c.Latency.Horizon, c.Horizon)
	}
	if err := c.Pop.Validate(); err != nil {
		return err
	}
	if err := c.Latency.Validate(); err != nil {
		return err
	}
	if err := c.Truth.Validate(); err != nil {
		return err
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return errors.New("owasim: failure rate out of [0,1)")
	}
	if c.EWMABeta < 0 || c.EWMABeta >= 1 {
		return errors.New("owasim: EWMABeta out of [0,1)")
	}
	if c.StalenessReset < 0 {
		return errors.New("owasim: negative staleness reset")
	}
	if c.ABTest != nil {
		if err := c.ABTest.Validate(); err != nil {
			return err
		}
	}
	if c.Regimes != nil {
		if err := c.Regimes.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result carries the generated telemetry along with the artifacts needed by
// validation: the population and the latency model.
type Result struct {
	Records []telemetry.Record
	Users   []userpop.User
	Model   *latencymodel.Model
}

// userState is the per-user simulation state.
type userState struct {
	user      userpop.User
	src       *rng.Source
	perceived float64         // EWMA of observed service condition factor
	lastObs   timeutil.Millis // time of last accepted action
	hasObs    bool
	maxRate   float64 // candidate (thinning envelope) rate per ms
	accept    float64 // acceptBound: rate/maxRate ≤ diurnal·accept
	injectMS  float64 // A/B treatment delay added to every action
	// gamma is truth.Gamma for the user in each local period, before any
	// scheduled preference shift.
	gamma      [timeutil.NumPeriods]float64
	incidentIn []bool // per-incident membership, precomputed
}

// incidentFactor is the combined scheduled-incident severity this user's
// actions experience at time now.
func (st *userState) incidentFactor(cfg *Config, now timeutil.Millis) float64 {
	if cfg.Regimes == nil {
		return 1
	}
	f := 1.0
	for i, inc := range cfg.Regimes.LatencyIncidents {
		if now >= inc.Start && now < inc.End && st.incidentIn[i] {
			f *= inc.Severity
		}
	}
	return f
}

// Run executes the simulation and collects all records in memory.
func Run(cfg Config) (*Result, error) {
	res := &Result{}
	err := RunTo(cfg, func(r telemetry.Record) error {
		res.Records = append(res.Records, r)
		return nil
	}, res)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunTo executes the simulation, streaming each record to sink in
// chronological order. If out is non-nil its Users and Model fields are
// populated.
func RunTo(cfg Config, sink func(telemetry.Record) error, out *Result) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	root := rng.New(cfg.Seed)
	model, err := latencymodel.New(cfg.Latency, root.Split(0x10de1))
	if err != nil {
		return err
	}
	users, err := userpop.Generate(cfg.Pop, root.Split(0xb0b))
	if err != nil {
		return err
	}
	if out != nil {
		out.Users = users
		out.Model = model
	}

	sim := des.New()
	var sinkErr error
	for _, u := range users {
		st := newUserState(&cfg, u, root.Split(0xa11ce00+u.ID))
		first := timeutil.Millis(st.src.Exp(st.maxRate))
		if err := sim.At(first, makeCandidate(sim, st, &cfg, model, sink, &sinkErr)); err != nil {
			return err
		}
	}
	sim.Run(cfg.Horizon)
	return sinkErr
}

// newUserState returns u's simulation state, drawing from src.
func newUserState(cfg *Config, u userpop.User, src *rng.Source) *userState {
	st := &userState{
		user: u,
		src:  src,
		// Envelope: peak rate × diurnal max × sensitivity cap,
		// converted to events per millisecond.
		maxRate: u.RatePerHour * u.Diurnal.Max() * maxWeekend(u.WeekendFactor) * cfg.Truth.MaxEval / float64(timeutil.MillisPerHour),
	}
	st.accept = acceptBound(u, cfg.Truth.MaxEval, st.maxRate)
	for p := range st.gamma {
		st.gamma[p] = cfg.Truth.Gamma(u.Type, u.NetMult, timeutil.Period(p))
	}
	if cfg.ABTest != nil && InTreatment(cfg.Seed, u.ID, cfg.ABTest.Fraction) {
		st.injectMS = cfg.ABTest.AddMS
	}
	if cfg.Regimes != nil {
		st.incidentIn = make([]bool, len(cfg.Regimes.LatencyIncidents))
		for k, inc := range cfg.Regimes.LatencyIncidents {
			st.incidentIn[k] = InIncident(cfg.Seed, k, u.ID, inc.UserFraction)
		}
	}
	return st
}

// maxWeekend returns the envelope contribution of the weekend factor: 1
// when weekends are quieter, the factor itself when they are busier.
func maxWeekend(f float64) float64 {
	if f > 1 {
		return f
	}
	return 1
}

// acceptBound returns the per-user factor that, times the diurnal activity
// step computes, bounds the thinning probability rate/maxRate step computes
// from above, whatever the preference curves return:
//
//	accept = RatePerHour·MixTotal·MaxEval/H/maxRate · (1+1e-9)
//
// Every p_a is capped at MaxEval (a NaN p_a makes rate NaN, which rejects
// either way), every mix weight is non-negative, and rounding to nearest is
// monotone, so the computed intensity Σ mix_a·p_a is at most the same sum
// computed with every p_a = MaxEval, which is at most MaxEval·Σ mix_a·(1+u)^4
// (u = 2^-53, one rounding per product and per addition); the computed
// MixTotal is at least Σ mix_a·(1-u)^3. The four operations from intensity
// to rate/maxRate add (1+u)^4 above the exact quotient, and the six from the
// user's fields to diurnal·accept (with the rounded 1+1e-9) take at most
// (1-u)^7 below it. So the computed rate/maxRate is at most diurnal·accept ·
// (1+u)^8/((1-u)^10·(1+1e-9)), and that factor is below 1 since
// (1+u)^8/(1-u)^10 < 1+19u ≈ 1+2e-15. The argument holds while no product
// is subnormal, true of any diurnal multiplier that is 0 or above 1e-280;
// a zero multiplier makes both sides 0 and rejects.
func acceptBound(u userpop.User, maxEval, maxRate float64) float64 {
	return u.RatePerHour * u.MixTotal() * maxEval / float64(timeutil.MillisPerHour) / maxRate * (1 + 1e-9)
}

// onCandidate, when set (by tests only), is called for every candidate
// instant the simulation handles.
var onCandidate func(userID uint64, now timeutil.Millis)

// makeCandidate returns the DES event handling one thinning candidate for
// st, which re-schedules itself until the horizon. Once the sink refuses a
// record the run stops: no user draws another candidate.
func makeCandidate(sim *des.Simulator, st *userState, cfg *Config, model *latencymodel.Model, sink func(telemetry.Record) error, sinkErr *error) des.Event {
	var fire des.Event
	fire = func(now timeutil.Millis) {
		if onCandidate != nil {
			onCandidate(st.user.ID, now)
		}
		step(now, st, cfg, model, sink, sinkErr)
		if *sinkErr != nil {
			sim.Stop()
			return
		}
		next := now + timeutil.Millis(st.src.Exp(st.maxRate)) + 1
		if next < cfg.Horizon {
			// Scheduling in the future of a running simulation
			// cannot fail; ignore the impossible error.
			_ = sim.At(next, fire)
		}
	}
	return fire
}

// step processes one candidate instant for a user: thinning acceptance,
// action-type choice, latency draw, record emission.
func step(now timeutil.Millis, st *userState, cfg *Config, model *latencymodel.Model, sink func(telemetry.Record) error, sinkErr *error) {
	u := &st.user
	truth := &cfg.Truth

	diurnal := u.Diurnal.AtTime(now, u.TZOffset)
	if timeutil.IsWeekend(now, u.TZOffset) {
		diurnal *= u.WeekendFactor
	}
	// Thinning accepts when a uniform draw falls below rate/maxRate. Draw
	// it first: at or above diurnal·accept, which bounds rate/maxRate
	// (acceptBound), the candidate is rejected without evaluating the
	// preference curves.
	x := st.src.Float64()
	if x >= diurnal*st.accept {
		return
	}

	// The condition factor the user currently perceives. A scheduled
	// incident is part of the service condition: it inflates the true
	// factor (an oracle perceiver senses it instantly) and the logged
	// latency below; EWMA perceivers learn it from their observations.
	sev := st.incidentFactor(cfg, now)
	trueFactor := model.PathFactor(now) * sev
	perceived := trueFactor
	if cfg.EWMABeta > 0 && st.hasObs && now-st.lastObs <= cfg.StalenessReset {
		perceived = st.perceived
	}

	gamma := st.gamma[timeutil.PeriodOf(now, u.TZOffset)]
	if cfg.Regimes != nil {
		gamma *= cfg.Regimes.gammaScale(now)
	}

	// Per-action intensity under the planted preference.
	var weights [telemetry.NumActionTypes]float64
	var intensity float64
	for a := range weights {
		anticipated := cfg.Latency.BaseMS[a]*u.NetMult*perceived + st.injectMS
		p := truth.Pref(telemetry.ActionType(a), anticipated, gamma)
		if p > truth.MaxEval {
			p = truth.MaxEval
		}
		w := u.Mix[a] * p
		weights[a] = w
		intensity += w
	}
	rate := u.RatePerHour * diurnal * intensity / float64(timeutil.MillisPerHour)
	if !(x < rate/st.maxRate) {
		return
	}

	// Accepted: choose the action type and realize its latency.
	a := telemetry.ActionType(st.src.Categorical(weights[:]))
	latency := model.SampleMS(now, a, u.NetMult, st.src)*sev + st.injectMS

	// Update the user's perception with what they just experienced; the
	// perceived condition factor excludes the injected constant, which
	// the anticipation above re-adds explicitly.
	observedFactor := (latency - st.injectMS) / (cfg.Latency.BaseMS[a] * u.NetMult)
	if cfg.EWMABeta > 0 {
		if st.hasObs && now-st.lastObs <= cfg.StalenessReset {
			st.perceived = cfg.EWMABeta*st.perceived + (1-cfg.EWMABeta)*observedFactor
		} else {
			st.perceived = observedFactor
		}
		st.hasObs = true
		st.lastObs = now
	}

	rec := telemetry.Record{
		Time:      now,
		Action:    a,
		LatencyMS: latency,
		UserID:    u.ID,
		UserType:  u.Type,
		TZOffset:  u.TZOffset,
		Failed:    st.src.Bool(cfg.FailureRate),
	}
	if err := sink(rec); err != nil {
		*sinkErr = err
	}
}

// Months splits records into calendar months assuming the window starts on
// January 1st: month 0 is days [0,31), month 1 is days [31,59), and so on
// following 2021 month lengths. Only the months fully or partially covered
// by the records are returned.
func Months(records []telemetry.Record) [][]telemetry.Record {
	monthDays := []int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	var out [][]telemetry.Record
	start := timeutil.Millis(0)
	for _, days := range monthDays {
		end := start + timeutil.Millis(days)*timeutil.MillisPerDay
		m := telemetry.ByTimeRange(records, start, end)
		if len(m) > 0 {
			out = append(out, m)
		} else if len(out) > 0 {
			break
		}
		start = end
	}
	return out
}

// TrueExpectedSeries samples the expected latency of an action type for a
// reference user (multiplier 1) on a regular grid — the "underlying latency
// independent of user actions" that the unbiased distribution approximates.
func TrueExpectedSeries(m *latencymodel.Model, a telemetry.ActionType, step timeutil.Millis, horizon timeutil.Millis) (times []timeutil.Millis, ms []float64) {
	for t := timeutil.Millis(0); t < horizon; t += step {
		times = append(times, t)
		ms = append(ms, m.ExpectedMS(t, a, 1))
	}
	return times, ms
}
