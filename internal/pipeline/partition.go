package pipeline

import (
	"fmt"
	"sync"

	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// Partition classifies every record once — action type, user segment,
// local-time period, and calendar month — and serves all of the paper's
// slicings from that single pass. Filtering per group (telemetry.ByAction
// and friends) re-scans and re-copies the full record set each time; a
// Partition scans it once, stores the records action-major in one backing
// array, and hands out action slices as zero-copy subslices. Sub-dimension groups are gathered into exactly
// pre-sized slices using the cached class bytes.
//
// All group methods return records in their original relative order and
// produce slices identical to the legacy functions (pinned by tests), so
// downstream estimates are byte-for-byte unchanged.
type Partition struct {
	recs []telemetry.Record // action-major, stable within each action
	// off[a]..off[a+1] bounds action a's records; records with invalid
	// action types (which no legacy slicer matches) live past off[NumActionTypes].
	off [telemetry.NumActionTypes + 1]int
	// class holds the per-record classification, parallel to recs:
	// bits 0-1 user segment (3 = invalid), bits 2-3 period,
	// bits 4-7 month+1 (0 = outside the simulated year).
	class []uint8

	// Quartile assignment is computed once, on first use: it needs the
	// user-median pass, which not every caller wants to pay for.
	quartOnce sync.Once
	quart     []int8 // parallel to recs; -1 = user not assigned
	quartCuts [3]float64
	quartErr  error
}

const (
	segShift   = 0
	segMask    = 0b11
	perShift   = 2
	perMask    = 0b11
	monthShift = 4
	monthMask  = 0b1111
)

// monthStarts are the cumulative month boundaries of the simulated year
// (window starting January 1st), in Millis; month m spans
// [monthStarts[m], monthStarts[m+1]). Mirrors owasim.Months.
var monthStarts = func() [13]timeutil.Millis {
	days := [12]timeutil.Millis{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	var out [13]timeutil.Millis
	for i, d := range days {
		out[i+1] = out[i] + d*timeutil.MillisPerDay
	}
	return out
}()

func actionIndex(a telemetry.ActionType) int {
	if a < 0 || int(a) >= telemetry.NumActionTypes {
		return telemetry.NumActionTypes
	}
	return int(a)
}

func classOf(r telemetry.Record) uint8 {
	seg := uint8(3)
	if r.UserType >= 0 && int(r.UserType) < telemetry.NumUserTypes {
		seg = uint8(r.UserType)
	}
	per := uint8(timeutil.PeriodOf(r.Time, r.TZOffset))
	month := uint8(0)
	if r.Time >= 0 && r.Time < monthStarts[12] {
		m := 1
		for r.Time >= monthStarts[m] {
			m++
		}
		month = uint8(m) // 1-based; 0 means "no month"
	}
	return seg<<segShift | per<<perShift | month<<monthShift
}

// NewPartition classifies records in one pass. The input slice is not
// modified; the Partition keeps its own action-major copy.
func NewPartition(records []telemetry.Record) *Partition {
	p := &Partition{
		recs:  make([]telemetry.Record, len(records)),
		class: make([]uint8, len(records)),
	}
	var cnt [telemetry.NumActionTypes + 1]int
	for i := range records {
		cnt[actionIndex(records[i].Action)]++
	}
	for a := 0; a < telemetry.NumActionTypes; a++ {
		p.off[a+1] = p.off[a] + cnt[a]
	}
	var pos [telemetry.NumActionTypes + 1]int
	copy(pos[:], p.off[:])
	pos[telemetry.NumActionTypes] = p.off[telemetry.NumActionTypes]
	// Stable counting sort: records fill each action's region in input
	// order, so every group preserves the original relative order.
	for i := range records {
		a := actionIndex(records[i].Action)
		j := pos[a]
		pos[a] = j + 1
		p.recs[j] = records[i]
		p.class[j] = classOf(records[i])
	}
	return p
}

// Len returns the number of records in the partition.
func (p *Partition) Len() int { return len(p.recs) }

// Action returns action a's records as a zero-copy subslice of the
// partition's backing array. Callers must not mutate it.
func (p *Partition) Action(a telemetry.ActionType) []telemetry.Record {
	if a < 0 || int(a) >= telemetry.NumActionTypes {
		return nil
	}
	return p.recs[p.off[a]:p.off[a+1]:p.off[a+1]]
}

// ByActionType builds one slice per action type, sharing the partition's
// backing array (no per-group copies).
func (p *Partition) ByActionType() []Slice {
	out := make([]Slice, 0, telemetry.NumActionTypes)
	for _, a := range telemetry.ActionTypes() {
		out = append(out, Slice{Name: a.String(), Records: p.Action(a)})
	}
	return out
}

// span returns the [lo, hi) region holding action a's records. Valid
// actions have a dedicated contiguous region; out-of-range action values
// (which the legacy slicers matched by plain equality) share the tail
// region, and filter reports that records there still need an equality
// check against a.
func (p *Partition) span(a telemetry.ActionType) (lo, hi int, filter bool) {
	if a >= 0 && int(a) < telemetry.NumActionTypes {
		return p.off[a], p.off[a+1], false
	}
	return p.off[telemetry.NumActionTypes], len(p.recs), true
}

// gather collects action a's records whose class byte matches want at
// the given field, into an exactly pre-sized slice.
func (p *Partition) gather(a telemetry.ActionType, shift, mask uint8, want uint8) []telemetry.Record {
	lo, hi, filter := p.span(a)
	n := 0
	for i := lo; i < hi; i++ {
		if (!filter || p.recs[i].Action == a) && p.class[i]>>shift&mask == want {
			n++
		}
	}
	out := make([]telemetry.Record, 0, n)
	for i := lo; i < hi; i++ {
		if (!filter || p.recs[i].Action == a) && p.class[i]>>shift&mask == want {
			out = append(out, p.recs[i])
		}
	}
	return out
}

// BySegment builds one slice per user segment within one action type.
func (p *Partition) BySegment(action telemetry.ActionType) []Slice {
	out := make([]Slice, 0, telemetry.NumUserTypes)
	for _, u := range telemetry.UserTypes() {
		out = append(out, Slice{
			Name:    fmt.Sprintf("%s/%s", action, u),
			Records: p.gather(action, segShift, segMask, uint8(u)),
		})
	}
	return out
}

// ByPeriod builds one slice per user-local 6-hour period within one
// action type.
func (p *Partition) ByPeriod(action telemetry.ActionType) []Slice {
	out := make([]Slice, 0, timeutil.NumPeriods)
	for per := 0; per < timeutil.NumPeriods; per++ {
		out = append(out, Slice{
			Name:    fmt.Sprintf("%s/%s", action, timeutil.Period(per)),
			Records: p.gather(action, perShift, perMask, uint8(per)),
		})
	}
	return out
}

// ByMonth builds one slice per calendar month within one action type,
// with owasim.Months's semantics: leading empty months are skipped, and
// the sequence stops at the first empty month after a non-empty one.
// Names follow the legacy ByMonth: positional Jan, Feb, … over the
// emitted groups.
func (p *Partition) ByMonth(action telemetry.ActionType) []Slice {
	names := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	out := make([]Slice, 0, 12)
	for m := 1; m <= 12; m++ {
		g := p.gather(action, monthShift, monthMask, uint8(m))
		if len(g) == 0 {
			if len(out) > 0 {
				break
			}
			continue
		}
		name := fmt.Sprintf("month%d", len(out))
		if len(out) < len(names) {
			name = names[len(out)]
		}
		out = append(out, Slice{Name: fmt.Sprintf("%s/%s", action, name), Records: g})
	}
	return out
}

// quartiles lazily computes the per-record quartile classification over
// the whole partition (quartile assignment conditions on every user's
// full history, not one action's).
func (p *Partition) quartiles() error {
	p.quartOnce.Do(func() {
		assign, cuts, err := telemetry.AssignQuartiles(p.recs)
		if err != nil {
			p.quartErr = err
			return
		}
		p.quartCuts = cuts
		p.quart = make([]int8, len(p.recs))
		for i := range p.recs {
			if q, ok := assign[p.recs[i].UserID]; ok {
				p.quart[i] = int8(q)
			} else {
				p.quart[i] = -1
			}
		}
	})
	return p.quartErr
}

// QuartileCuts returns the three median-latency cut points, computing the
// quartile assignment on first use.
func (p *Partition) QuartileCuts() ([3]float64, error) {
	if err := p.quartiles(); err != nil {
		return [3]float64{}, err
	}
	return p.quartCuts, nil
}

// ByQuartile builds one slice per median-latency user quartile within one
// action type. The assignment is computed over the full record set on
// first use and cached for subsequent calls.
func (p *Partition) ByQuartile(action telemetry.ActionType) ([]Slice, error) {
	if err := p.quartiles(); err != nil {
		return nil, err
	}
	lo, hi, filter := p.span(action)
	var cnt [telemetry.NumQuartiles]int
	for i := lo; i < hi; i++ {
		if filter && p.recs[i].Action != action {
			continue
		}
		if q := p.quart[i]; q >= 0 {
			cnt[q]++
		}
	}
	// Empty groups stay nil, exactly like telemetry.ByQuartile's append-
	// built groups.
	var groups [telemetry.NumQuartiles][]telemetry.Record
	for q := range groups {
		if cnt[q] > 0 {
			groups[q] = make([]telemetry.Record, 0, cnt[q])
		}
	}
	for i := lo; i < hi; i++ {
		if filter && p.recs[i].Action != action {
			continue
		}
		if q := p.quart[i]; q >= 0 {
			groups[q] = append(groups[q], p.recs[i])
		}
	}
	out := make([]Slice, 0, telemetry.NumQuartiles)
	for q, rs := range groups {
		out = append(out, Slice{
			Name:    fmt.Sprintf("%s/%s", action, telemetry.Quartile(q)),
			Records: rs,
		})
	}
	return out, nil
}
