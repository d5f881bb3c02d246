package owasim

import (
	"math"
	"testing"

	"autosens/internal/latencymodel"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/userpop"
)

// stepReference is the straightforward step: γ from truth.Gamma and every
// preference curve evaluated on every candidate, then one Bool draw. It is
// the reference step must match draw for draw.
func stepReference(now timeutil.Millis, st *userState, cfg Config, model *latencymodel.Model, sink func(telemetry.Record) error, sinkErr *error) {
	u := st.user
	truth := cfg.Truth

	// The condition factor the user currently perceives. A scheduled
	// incident is part of the service condition: it inflates the true
	// factor (an oracle perceiver senses it instantly) and the logged
	// latency below; EWMA perceivers learn it from their observations.
	sev := st.incidentFactor(&cfg, now)
	trueFactor := model.PathFactor(now) * sev
	perceived := trueFactor
	if cfg.EWMABeta > 0 && st.hasObs && now-st.lastObs <= cfg.StalenessReset {
		perceived = st.perceived
	}

	period := timeutil.PeriodOf(now, u.TZOffset)
	gamma := truth.Gamma(u.Type, u.NetMult, period)
	if cfg.Regimes != nil {
		gamma *= cfg.Regimes.gammaScale(now)
	}
	diurnal := u.Diurnal.AtTime(now, u.TZOffset)
	if timeutil.IsWeekend(now, u.TZOffset) {
		diurnal *= u.WeekendFactor
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
	if !st.src.Bool(rate / st.maxRate) {
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

// sameState reports whether two user states hold the same RNG position and
// the same perception, bit for bit.
func sameState(a, b *userState) bool {
	return *a.src == *b.src &&
		math.Float64bits(a.perceived) == math.Float64bits(b.perceived) &&
		a.lastObs == b.lastObs && a.hasObs == b.hasObs
}

// TestStepMatchesReference drives step and stepReference side by side over
// long candidate streams, with an A/B treatment, latency incidents and
// preference shifts on, γ scaled far enough that the MaxEval cap binds, and
// the perceived condition pushed to extremes between calls: after every
// call both must have emitted the same records and left the same state.
func TestStepMatchesReference(t *testing.T) {
	const horizon = 3 * timeutil.MillisPerDay
	hour := timeutil.MillisPerHour
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"default", func(*Config) {}},
		{"abtest+regimes", func(c *Config) {
			c.ABTest = &ABTestConfig{Fraction: 0.5, AddMS: 400}
			c.Regimes = &RegimeSchedule{
				LatencyIncidents: []LatencyIncident{
					{Start: 10 * hour, End: 30 * hour, Severity: 40, UserFraction: 0.5},
					{Start: 20 * hour, End: 50 * hour, Severity: 1.5, UserFraction: 1},
				},
				PrefShifts: []PrefShift{
					{Start: 5 * hour, End: 25 * hour, GammaScale: 30},
					{Start: 40 * hour, End: 60 * hour, GammaScale: 0.02},
				},
			}
		}},
		{"oracle+tight-cap", func(c *Config) {
			c.EWMABeta = 0
			c.Truth.MaxEval = 1.01
			c.ABTest = &ABTestConfig{Fraction: 0.3, AddMS: 5000}
		}},
		{"slow-ewma", func(c *Config) {
			c.EWMABeta = 0.95
			c.StalenessReset = 4 * hour
		}},
	}
	extremes := []float64{0, 1e-9, 0.05, 20, 1e6, math.Inf(1)}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(horizon, 6, 6)
			cfg.Seed = uint64(100 + ci)
			tc.edit(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			model, err := latencymodel.New(cfg.Latency, rng.New(cfg.Seed).Split(1))
			if err != nil {
				t.Fatal(err)
			}
			users, err := userpop.Generate(cfg.Pop, rng.New(cfg.Seed).Split(2))
			if err != nil {
				t.Fatal(err)
			}
			perturb := rng.New(cfg.Seed).Split(3)
			var calls, emitted int
			for _, u := range users {
				fast := newUserState(&cfg, u, rng.New(cfg.Seed).Split(u.ID))
				ref := newUserState(&cfg, u, rng.New(cfg.Seed).Split(u.ID))
				var got, want []telemetry.Record
				var gotErr, wantErr error
				sinkFast := func(r telemetry.Record) error { got = append(got, r); return nil }
				sinkRef := func(r telemetry.Record) error { want = append(want, r); return nil }
				for now := timeutil.Millis(0); now < horizon; now += 1 + timeutil.Millis(perturb.Exp(1.0/20000)) {
					if perturb.Intn(6) == 0 {
						f := extremes[perturb.Intn(len(extremes))]
						ago := timeutil.Millis(perturb.Intn(int(2 * cfg.StalenessReset)))
						for _, st := range []*userState{fast, ref} {
							st.perceived, st.hasObs, st.lastObs = f, true, now-ago
						}
					}
					step(now, fast, &cfg, model, sinkFast, &gotErr)
					stepReference(now, ref, cfg, model, sinkRef, &wantErr)
					calls++
					if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
						t.Fatalf("user %d at %d: step emitted %d records, reference %d (last %+v vs %+v)",
							u.ID, now, len(got), len(want), got[max(0, len(got)-1):], want[max(0, len(want)-1):])
					}
					if !sameState(fast, ref) {
						t.Fatalf("user %d at %d: state %+v, reference %+v", u.ID, now, *fast, *ref)
					}
				}
				emitted += len(got)
			}
			if emitted == 0 || emitted == calls {
				t.Fatalf("%d of %d candidates accepted: both outcomes must be exercised", emitted, calls)
			}
		})
	}
}

// TestAcceptBoundHolds checks the early-rejection bound over random users,
// diurnal multipliers and preference values, the cap itself included: the
// thinning probability, computed with step's own arithmetic, never exceeds
// diurnal·accept.
func TestAcceptBoundHolds(t *testing.T) {
	r := rng.New(9)
	wide := func(lo, hi float64) float64 { return math.Exp(r.Uniform(math.Log(lo), math.Log(hi))) }
	for i := 0; i < 100_000; i++ {
		cfg := DefaultConfig(timeutil.MillisPerDay, 1, 0)
		cfg.Truth.MaxEval = wide(1e-3, 1e3)
		u := userpop.User{RatePerHour: wide(1e-4, 1e6), WeekendFactor: wide(0.01, 100)}
		for a := range u.Mix {
			if r.Intn(5) > 0 {
				u.Mix[a] = wide(1e-6, 1e6)
			}
		}
		for h := range u.Diurnal {
			if r.Intn(5) > 0 {
				u.Diurnal[h] = wide(1e-6, 1e3)
			}
		}
		if u.MixTotal() == 0 || u.Diurnal.Max() == 0 {
			continue
		}
		st := newUserState(&cfg, u, r)
		diurnal := u.Diurnal[r.Intn(24)]
		if r.Intn(2) == 0 {
			diurnal *= u.WeekendFactor
		}
		// As in step: capped preference values, weighted by the mix.
		var intensity float64
		for a := range u.Mix {
			p := cfg.Truth.MaxEval
			switch r.Intn(3) {
			case 0:
				p = math.Nextafter(p, math.Inf(1)) // above the cap: capped
			case 1:
				p *= r.Float64()
			}
			if p > cfg.Truth.MaxEval {
				p = cfg.Truth.MaxEval
			}
			intensity += u.Mix[a] * p
		}
		rate := u.RatePerHour * diurnal * intensity / float64(timeutil.MillisPerHour)
		if prob, bound := rate/st.maxRate, diurnal*st.accept; prob > bound {
			t.Fatalf("user %+v, MaxEval %v, diurnal %v: rate/maxRate %v above the bound %v",
				u, cfg.Truth.MaxEval, diurnal, prob, bound)
		}
	}
}
