// Package timeutil provides the time discretization used by AutoSens' time
// confounder mitigation (1-hour slots, Section 2.4.1) and its time-of-day
// analysis (four 6-hour periods, Section 3.6), plus the diurnal activity
// profiles the simulator uses to model how active users are at each local
// hour.
//
// Simulated time is a plain offset in milliseconds from the start of the
// observation window. User-local time is derived by adding a per-user
// timezone offset; all slotting is done on local time, matching the paper
// ("all with respect to local time of the user").
package timeutil

import (
	"fmt"
	"math"
)

// Millis is a simulation timestamp: milliseconds since the start of the
// observation window.
type Millis int64

const (
	// MillisPerSecond is the number of Millis in one second.
	MillisPerSecond Millis = 1000
	// MillisPerMinute is the number of Millis in one minute.
	MillisPerMinute = 60 * MillisPerSecond
	// MillisPerHour is the number of Millis in one hour.
	MillisPerHour = 60 * MillisPerMinute
	// MillisPerDay is the number of Millis in one day.
	MillisPerDay = 24 * MillisPerHour
)

// HourOfDay returns the local hour in [0, 24) for t shifted by tzOffset.
func HourOfDay(t Millis, tzOffset Millis) int {
	local := t + tzOffset
	h := int((local % MillisPerDay) / MillisPerHour)
	if h < 0 {
		h += 24
	}
	return h
}

// DayIndex returns the zero-based local day number for t shifted by
// tzOffset. Negative local times map to negative day indices.
func DayIndex(t Millis, tzOffset Millis) int {
	local := t + tzOffset
	d := local / MillisPerDay
	if local%MillisPerDay < 0 {
		d--
	}
	return int(d)
}

// Weekday returns the day of week for t shifted by tzOffset, anchored to
// the paper's observation window: simulation time zero is Friday,
// January 1st 2021. 0 = Sunday … 6 = Saturday, matching time.Weekday.
func Weekday(t Millis, tzOffset Millis) int {
	// Day 0 is a Friday (= 5).
	d := (DayIndex(t, tzOffset) + 5) % 7
	if d < 0 {
		d += 7
	}
	return d
}

// IsWeekend reports whether t falls on a Saturday or Sunday in the user's
// local time.
func IsWeekend(t Millis, tzOffset Millis) bool {
	d := Weekday(t, tzOffset)
	return d == 0 || d == 6
}

// Period is one of the paper's four 6-hour local-time periods.
type Period int

// The four periods of Section 3.6.
const (
	Period8am2pm Period = iota // 08:00–14:00 local
	Period2pm8pm               // 14:00–20:00 local
	Period8pm2am               // 20:00–02:00 local
	Period2am8am               // 02:00–08:00 local
	numPeriods
)

// NumPeriods is the number of 6-hour periods in a day.
const NumPeriods = int(numPeriods)

// String implements fmt.Stringer.
func (p Period) String() string {
	switch p {
	case Period8am2pm:
		return "8am-2pm"
	case Period2pm8pm:
		return "2pm-8pm"
	case Period8pm2am:
		return "8pm-2am"
	case Period2am8am:
		return "2am-8am"
	default:
		return fmt.Sprintf("Period(%d)", int(p))
	}
}

// ParsePeriod is the inverse of Period.String.
func ParsePeriod(s string) (Period, error) {
	for p := range numPeriods {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("timeutil: unknown period %q", s)
}

// PeriodOf returns the 6-hour period containing the local hour of t.
func PeriodOf(t Millis, tzOffset Millis) Period {
	return hourPeriods[HourOfDay(t, tzOffset)]
}

// hourPeriods is the period of each local hour.
var hourPeriods = [24]Period{
	Period8pm2am, Period8pm2am, // 00–02
	Period2am8am, Period2am8am, Period2am8am, Period2am8am, Period2am8am, Period2am8am, // 02–08
	Period8am2pm, Period8am2pm, Period8am2pm, Period8am2pm, Period8am2pm, Period8am2pm, // 08–14
	Period2pm8pm, Period2pm8pm, Period2pm8pm, Period2pm8pm, Period2pm8pm, Period2pm8pm, // 14–20
	Period8pm2am, Period8pm2am, Period8pm2am, Period8pm2am, // 20–24
}

// DiurnalProfile gives a relative activity multiplier for each local hour of
// the day. Values must be non-negative; a zero hour means no activity.
type DiurnalProfile [24]float64

// At returns the multiplier for local hour h (taken modulo 24).
func (d DiurnalProfile) At(h int) float64 {
	h %= 24
	if h < 0 {
		h += 24
	}
	return d[h]
}

// AtTime returns the multiplier at simulation time t for a user with the
// given timezone offset.
func (d DiurnalProfile) AtTime(t Millis, tzOffset Millis) float64 {
	return d.At(HourOfDay(t, tzOffset))
}

// Max returns the largest multiplier in the profile.
func (d DiurnalProfile) Max() float64 {
	m := d[0]
	for _, v := range d[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Validate checks that all multipliers are finite and non-negative and at
// least one is positive.
func (d DiurnalProfile) Validate() error {
	any := false
	for h, v := range d {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("timeutil: invalid diurnal multiplier %v at hour %d", v, h)
		}
		if v > 0 {
			any = true
		}
	}
	if !any {
		return fmt.Errorf("timeutil: all-zero diurnal profile")
	}
	return nil
}

// WorkdayProfile is a typical knowledge-worker activity profile: strong
// 9-to-5 peak, lunchtime dip, low overnight activity.
func WorkdayProfile() DiurnalProfile {
	return DiurnalProfile{
		0.08, 0.05, 0.03, 0.02, 0.02, 0.05, // 00-05
		0.12, 0.35, 0.85, 1.00, 1.00, 0.90, // 06-11
		0.75, 0.90, 1.00, 0.95, 0.85, 0.65, // 12-17
		0.50, 0.42, 0.38, 0.32, 0.22, 0.14, // 18-23
	}
}

// ConsumerProfile is a consumer-usage profile: flatter daytime, evening
// peak, noticeable late-night tail.
func ConsumerProfile() DiurnalProfile {
	return DiurnalProfile{
		0.18, 0.10, 0.06, 0.05, 0.05, 0.08, // 00-05
		0.20, 0.35, 0.50, 0.55, 0.60, 0.65, // 06-11
		0.70, 0.70, 0.65, 0.65, 0.70, 0.80, // 12-17
		0.95, 1.00, 1.00, 0.90, 0.60, 0.35, // 18-23
	}
}

// LoadProfile is the service-wide request-load profile used by the latency
// model, expressed in service (UTC) hours. The simulated population is
// US-centric (UTC−5 … UTC−8), so load — and therefore congestion and
// latency — peaks at 14:00–22:00 UTC, i.e. US business hours. This is what
// couples latency to user-local time of day and plants the time confounder
// of Section 2.4.1.
func LoadProfile() DiurnalProfile {
	return DiurnalProfile{
		0.55, 0.45, 0.35, 0.28, 0.24, 0.22, // 00-05
		0.20, 0.22, 0.25, 0.30, 0.38, 0.50, // 06-11
		0.65, 0.80, 0.92, 1.00, 1.00, 0.98, // 12-17
		0.95, 0.92, 0.88, 0.82, 0.75, 0.65, // 18-23
	}
}
