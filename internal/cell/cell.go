// Package cell names the slice dimensions every AutoSens curve is drawn
// over: a record's action type, user segment and local 6-hour period, the
// content and time mitigations of §2. A Cell packs one record's three
// values into the byte the live store and the cold tier's blocks keep per
// record and the batch partition keeps per row; a Key names a slice, one
// value or "any" along each axis.
package cell

import (
	"strings"

	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// Cell is one record's (action, user type, period) packed in a byte: bits
// 0–1 action, bit 2 user type, bits 3–4 local period, so the stored cells
// are exactly [0, NumCells). Bits 5 and 6 flag an out-of-range action or
// user type; only the batch partition, which holds every record it reads,
// keeps such a cell.
type Cell uint8

// NumCells is the number of cells a stored record can fall in.
const NumCells = 1 << 5

const (
	badAction    Cell = 1 << 5
	badUserType  Cell = 1 << 6
	actionBits        = 0b11 | badAction
	userTypeBits      = 1<<2 | badUserType
	periodBits   Cell = 0b11 << 3
)

// Of returns r's cell, deriving its local period, and whether the live
// store and the cold tier keep r: a failed record is not kept, nor is one
// with an out-of-range action or user type, whose cell flags that axis.
func Of(r telemetry.Record) (Cell, bool) {
	a, u := r.Action, r.UserType
	var flags Cell
	if a < 0 || int(a) >= telemetry.NumActionTypes {
		a, flags = 0, badAction
	}
	if u < 0 || int(u) >= telemetry.NumUserTypes {
		u, flags = 0, flags|badUserType
	}
	c := Make(a, u, timeutil.PeriodOf(r.Time, r.TZOffset)) | flags
	return c, !r.Failed && c < NumCells
}

// Make packs in-range axis values into their cell: Of's cell for a record
// holding them.
func Make(a telemetry.ActionType, u telemetry.UserType, p timeutil.Period) Cell {
	return Cell(a) | Cell(u)<<2 | Cell(p)<<3
}

// Action, UserType and Period read c's axes. An axis the cell flags out of
// range reads as a value past the axis's range, which no Key names.
func (c Cell) Action() telemetry.ActionType { return telemetry.ActionType(c & actionBits) }
func (c Cell) UserType() telemetry.UserType { return telemetry.UserType(c & userTypeBits >> 2) }
func (c Cell) Period() timeutil.Period      { return timeutil.Period(c & periodBits >> 3) }

// Key names a slice: one value or "any" (-1) along each axis.
type Key struct {
	Action   telemetry.ActionType
	UserType telemetry.UserType
	Period   timeutil.Period
}

// All is the slice of every record.
var All = Key{Action: -1, UserType: -1, Period: -1}

// Matches reports whether cell c falls in slice k.
func (k Key) Matches(c Cell) bool {
	return (k.Action < 0 || k.Action == c.Action()) &&
		(k.UserType < 0 || k.UserType == c.UserType()) &&
		(k.Period < 0 || k.Period == c.Period())
}

// String renders the key as comma-separated dim:value terms, "all" when
// every axis is any.
func (k Key) String() string {
	var terms []string
	if k.Action >= 0 {
		terms = append(terms, "action:"+k.Action.String())
	}
	if k.UserType >= 0 {
		terms = append(terms, "usertype:"+k.UserType.String())
	}
	if k.Period >= 0 {
		terms = append(terms, "period:"+k.Period.String())
	}
	if len(terms) == 0 {
		return "all"
	}
	return strings.Join(terms, ",")
}

// Set is a set of records by their cell, flagged cells included, and by
// whether they failed: the filter a batch load applies to what it reads.
// The zero Set holds every record.
type Set struct {
	out       [4]uint64 // bit c: records of cell c are not in the set
	outFailed bool      // failed records are not in the set
}

// SetOf is the set of the records whose cell in accepts, the failed ones
// among them only when failed.
func SetOf(in func(Cell) bool, failed bool) Set {
	s := Set{outFailed: !failed}
	for c := range 256 {
		if !in(Cell(c)) {
			s.out[c/64] |= 1 << (c % 64)
		}
	}
	return s
}

// Set is the set of slice k's successful records.
func (k Key) Set() Set { return SetOf(k.Matches, false) }

// Has reports whether s holds a record of cell c that failed, or not.
func (s Set) Has(c Cell, failed bool) bool {
	return s.out[c/64]>>(c%64)&1 == 0 && !(failed && s.outFailed)
}

// NumKeys is the number of slices: each axis at one of its values or any.
const NumKeys = (telemetry.NumActionTypes + 1) * (telemetry.NumUserTypes + 1) * (timeutil.NumPeriods + 1)

// index numbers k in [0, NumKeys), each axis shifted by one so that any
// maps to 0: Keys()[k.index()] == k.
func (k Key) index() int {
	return ((int(k.Action)+1)*(telemetry.NumUserTypes+1)+int(k.UserType)+1)*(timeutil.NumPeriods+1) + int(k.Period) + 1
}

// Keys enumerates every slice in index order: action-major, any before
// the values on each axis.
func Keys() []Key {
	keys := make([]Key, 0, NumKeys)
	for a := -1; a < telemetry.NumActionTypes; a++ {
		for u := -1; u < telemetry.NumUserTypes; u++ {
			for p := -1; p < timeutil.NumPeriods; p++ {
				keys = append(keys, Key{telemetry.ActionType(a), telemetry.UserType(u), timeutil.Period(p)})
			}
		}
	}
	return keys
}

// Cells lists the cells that fall in k, ascending. A slice's record count
// is the sum of its cells' counts.
func (k Key) Cells() []Cell { return cellsOf[k.index()] }

// keys lists the 8 slices c falls in: each axis at c's value or any.
func (c Cell) keys() [8]Key {
	var out [8]Key
	i := 0
	for _, a := range [2]telemetry.ActionType{c.Action(), -1} {
		for _, u := range [2]telemetry.UserType{c.UserType(), -1} {
			for _, p := range [2]timeutil.Period{c.Period(), -1} {
				out[i] = Key{a, u, p}
				i++
			}
		}
	}
	return out
}

var cellsOf = func() (m [NumKeys][]Cell) {
	for c := Cell(0); c < NumCells; c++ {
		for _, k := range c.keys() {
			m[k.index()] = append(m[k.index()], c)
		}
	}
	return m
}()
