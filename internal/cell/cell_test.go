package cell

import (
	"slices"
	"testing"

	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// TestCellByteLayout pins the byte every ASBK block stores per record:
// a | u<<2 | p<<3, derived from the record's local period.
func TestCellByteLayout(t *testing.T) {
	for a := range telemetry.NumActionTypes {
		for u := range telemetry.NumUserTypes {
			for p := range timeutil.NumPeriods {
				// Local hour 8 + 6p falls in period p at this offset.
				r := telemetry.Record{
					Action: telemetry.ActionType(a), UserType: telemetry.UserType(u),
					Time: 3 * timeutil.MillisPerDay, TZOffset: timeutil.Millis(8+6*p) * timeutil.MillisPerHour,
				}
				if got := timeutil.PeriodOf(r.Time, r.TZOffset); got != timeutil.Period(p) {
					t.Fatalf("hour %d is period %v, want %v", 8+6*p, got, timeutil.Period(p))
				}
				want := Cell(a | u<<2 | p<<3)
				c, ok := Of(r)
				if !ok || c != want {
					t.Fatalf("Of(%+v) = %#x, %v; want %#x, true", r, c, ok, want)
				}
				if c.Action() != r.Action || c.UserType() != r.UserType || c.Period() != timeutil.Period(p) {
					t.Fatalf("cell %#x reads (%v, %v, %v)", c, c.Action(), c.UserType(), c.Period())
				}
				r.Failed = true
				if c, ok := Of(r); ok || c != want {
					t.Fatalf("failed record: Of = %#x, %v; want %#x, false", c, ok, want)
				}
			}
		}
	}
	for _, r := range []telemetry.Record{
		{Action: -1}, {Action: telemetry.ActionType(telemetry.NumActionTypes)},
		{UserType: -1}, {UserType: telemetry.UserType(telemetry.NumUserTypes)},
	} {
		c, ok := Of(r)
		if ok || c < NumCells {
			t.Fatalf("out-of-range record %+v: Of = %#x, %v", r, c, ok)
		}
		if !All.Matches(c) {
			t.Fatalf("All refuses out-of-range cell %#x", c)
		}
		for _, k := range Keys() {
			if k.Action >= 0 && r.Action != 0 && k.Matches(c) {
				t.Fatalf("%v matches a cell flagging its action out of range", k)
			}
			if k.UserType >= 0 && r.UserType != 0 && k.Matches(c) {
				t.Fatalf("%v matches a cell flagging its user type out of range", k)
			}
		}
	}
}

// TestKeysAndCells checks every key against every cell: Matches is the
// per-axis predicate, Cells lists exactly the matching cells, the 8 keys
// of a cell are exactly those that list it, and Keys keeps the prewarm
// order with each key at its index.
func TestKeysAndCells(t *testing.T) {
	keys := Keys()
	if len(keys) != NumKeys || NumKeys != 75 {
		t.Fatalf("Keys returned %d keys, NumKeys %d; want 75", len(keys), NumKeys)
	}
	var want []Key
	for a := -1; a < telemetry.NumActionTypes; a++ {
		for u := -1; u < telemetry.NumUserTypes; u++ {
			for p := -1; p < timeutil.NumPeriods; p++ {
				want = append(want, Key{Action: telemetry.ActionType(a), UserType: telemetry.UserType(u), Period: timeutil.Period(p)})
			}
		}
	}
	if !slices.Equal(keys, want) {
		t.Fatalf("Keys order changed:\n got %v\nwant %v", keys, want)
	}
	for i, k := range keys {
		if k.index() != i {
			t.Fatalf("%v has index %d, want %d", k, k.index(), i)
		}
		var matching []Cell
		for c := Cell(0); c < NumCells; c++ {
			axes := (k.Action < 0 || int(k.Action) == int(c)&0b11) &&
				(k.UserType < 0 || int(k.UserType) == int(c)>>2&1) &&
				(k.Period < 0 || int(k.Period) == int(c)>>3&0b11)
			if k.Matches(c) != axes {
				t.Fatalf("%v.Matches(%#x) = %v, want %v", k, c, !axes, axes)
			}
			if axes {
				matching = append(matching, c)
			}
			if ks := c.keys(); slices.Contains(ks[:], k) != axes {
				t.Fatalf("keys of cell %#x: %v listed %v, want %v", c, k, !axes, axes)
			}
		}
		if !slices.Equal(k.Cells(), matching) {
			t.Fatalf("%v.Cells() = %v, want %v", k, k.Cells(), matching)
		}
	}
	for c := Cell(0); c < NumCells; c++ {
		ks := c.keys()
		for i, k := range ks {
			if slices.Contains(ks[:i], k) {
				t.Fatalf("cell %#x lists %v twice", c, k)
			}
		}
	}
}

// TestSetHolds pins what a Set holds over every byte a cell can take:
// the zero Set everything, a key's set its matching cells' successful
// records, and SetOf its predicate's cells, failed records as asked.
func TestSetHolds(t *testing.T) {
	odd := func(c Cell) bool { return c%2 == 1 }
	for c := range 256 {
		cl := Cell(c)
		for _, failed := range []bool{false, true} {
			if !(Set{}).Has(cl, failed) {
				t.Fatalf("the zero Set drops cell %#x (failed %v)", c, failed)
			}
			for _, k := range Keys() {
				if got, want := k.Set().Has(cl, failed), !failed && k.Matches(cl); got != want {
					t.Fatalf("%v.Set().Has(%#x, %v) = %v, want %v", k, c, failed, got, want)
				}
			}
			for _, withFailed := range []bool{false, true} {
				if got, want := SetOf(odd, withFailed).Has(cl, failed), odd(cl) && (withFailed || !failed); got != want {
					t.Fatalf("SetOf(odd, %v).Has(%#x, %v) = %v, want %v", withFailed, c, failed, got, want)
				}
			}
		}
	}
}
