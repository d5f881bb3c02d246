package timeutil

import (
	"testing"
	"testing/quick"
)

func TestHourOfDay(t *testing.T) {
	cases := []struct {
		t, tz Millis
		want  int
	}{
		{0, 0, 0},
		{MillisPerHour, 0, 1},
		{23 * MillisPerHour, 0, 23},
		{24 * MillisPerHour, 0, 0},
		{0, 5 * MillisPerHour, 5},
		{0, -5 * MillisPerHour, 19},            // negative local time wraps
		{2 * MillisPerDay, -MillisPerHour, 23}, // wraps at day boundary
		{MillisPerHour - 1, 0, 0},
	}
	for _, c := range cases {
		if got := HourOfDay(c.t, c.tz); got != c.want {
			t.Fatalf("HourOfDay(%d, %d) = %d, want %d", c.t, c.tz, got, c.want)
		}
	}
}

func TestDayIndex(t *testing.T) {
	cases := []struct {
		t, tz Millis
		want  int
	}{
		{0, 0, 0},
		{MillisPerDay - 1, 0, 0},
		{MillisPerDay, 0, 1},
		{0, -MillisPerHour, -1},
		{2*MillisPerDay + MillisPerHour, 0, 2},
	}
	for _, c := range cases {
		if got := DayIndex(c.t, c.tz); got != c.want {
			t.Fatalf("DayIndex(%d, %d) = %d, want %d", c.t, c.tz, got, c.want)
		}
	}
}

func TestPeriodOf(t *testing.T) {
	cases := []struct {
		hour int
		want Period
	}{
		{8, Period8am2pm}, {13, Period8am2pm},
		{14, Period2pm8pm}, {19, Period2pm8pm},
		{20, Period8pm2am}, {23, Period8pm2am}, {0, Period8pm2am}, {1, Period8pm2am},
		{2, Period2am8am}, {7, Period2am8am},
	}
	for _, c := range cases {
		tm := Millis(c.hour) * MillisPerHour
		if got := PeriodOf(tm, 0); got != c.want {
			t.Fatalf("PeriodOf(hour %d) = %v, want %v", c.hour, got, c.want)
		}
	}
}

func TestPeriodString(t *testing.T) {
	names := map[Period]string{
		Period8am2pm: "8am-2pm",
		Period2pm8pm: "2pm-8pm",
		Period8pm2am: "8pm-2am",
		Period2am8am: "2am-8am",
	}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
	if Period(9).String() == "" {
		t.Fatal("unknown period produced empty string")
	}
}

func TestParsePeriod(t *testing.T) {
	for p := range numPeriods {
		got, err := ParsePeriod(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePeriod(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePeriod("brunch"); err == nil {
		t.Fatal("bogus period parsed")
	}
}

func TestPeriodCoversAllHoursProperty(t *testing.T) {
	f := func(raw uint32) bool {
		tm := Millis(raw) * MillisPerMinute
		p := PeriodOf(tm, 0)
		return p >= 0 && int(p) < NumPeriods
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalProfileAt(t *testing.T) {
	var d DiurnalProfile
	d[5] = 0.7
	if d.At(5) != 0.7 || d.At(29) != 0.7 || d.At(-19) != 0.7 {
		t.Fatal("At modular arithmetic failed")
	}
}

func TestDiurnalAtTime(t *testing.T) {
	var d DiurnalProfile
	d[10] = 0.9
	tm := 10 * MillisPerHour
	if d.AtTime(tm, 0) != 0.9 {
		t.Fatal("AtTime failed")
	}
	if d.AtTime(tm, 2*MillisPerHour) == 0.9 {
		t.Fatal("timezone shift ignored")
	}
}

func TestProfileValidation(t *testing.T) {
	for _, p := range []DiurnalProfile{WorkdayProfile(), ConsumerProfile(), LoadProfile()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("builtin profile invalid: %v", err)
		}
	}
	var zero DiurnalProfile
	if err := zero.Validate(); err == nil {
		t.Fatal("all-zero profile accepted")
	}
	var neg DiurnalProfile
	neg[0] = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative profile accepted")
	}
}

func TestProfileMax(t *testing.T) {
	p := WorkdayProfile()
	if p.Max() != 1.0 {
		t.Fatalf("WorkdayProfile max = %v", p.Max())
	}
}

func TestWorkdayPeaksDuringDay(t *testing.T) {
	p := WorkdayProfile()
	if p.At(10) <= p.At(3) {
		t.Fatal("workday profile should peak during business hours")
	}
	if p.At(14) <= p.At(23) {
		t.Fatal("workday afternoon should beat late evening")
	}
}

func TestConsumerPeaksInEvening(t *testing.T) {
	p := ConsumerProfile()
	if p.At(19) <= p.At(10) {
		t.Fatal("consumer profile should peak in the evening")
	}
}

func TestWeekdayAnchor(t *testing.T) {
	// Simulation time zero is Friday, January 1st 2021.
	if d := Weekday(0, 0); d != 5 {
		t.Fatalf("day 0 weekday = %d, want 5 (Friday)", d)
	}
	if d := Weekday(MillisPerDay, 0); d != 6 {
		t.Fatalf("day 1 weekday = %d, want 6 (Saturday)", d)
	}
	if d := Weekday(3*MillisPerDay, 0); d != 1 {
		t.Fatalf("day 3 weekday = %d, want 1 (Monday)", d)
	}
	// Negative local time wraps correctly.
	if d := Weekday(0, -MillisPerHour); d != 4 {
		t.Fatalf("shifted weekday = %d, want 4 (Thursday)", d)
	}
}

func TestIsWeekend(t *testing.T) {
	if IsWeekend(0, 0) {
		t.Fatal("Friday flagged as weekend")
	}
	if !IsWeekend(MillisPerDay, 0) || !IsWeekend(2*MillisPerDay, 0) {
		t.Fatal("Saturday/Sunday not flagged")
	}
	if IsWeekend(3*MillisPerDay, 0) {
		t.Fatal("Monday flagged as weekend")
	}
	// A timezone offset can move an instant across the weekend boundary.
	lateFriday := MillisPerDay - MillisPerHour // 23:00 Friday UTC
	if IsWeekend(lateFriday, 0) {
		t.Fatal("late Friday flagged")
	}
	if !IsWeekend(lateFriday, 2*MillisPerHour) {
		t.Fatal("Saturday 01:00 local not flagged")
	}
}
