// Package telemetry defines the minimal telemetry AutoSens consumes:
// tuples (T, A, L, M) — timestamp, action type, end-to-end latency, and
// optional user metadata (Section 2.1 of the paper) — together with codecs
// (JSONL, CSV), filters, and the per-user median-latency quartile grouping
// used by the conditioning analysis (Section 3.4).
package telemetry

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"autosens/internal/parallel"
	"autosens/internal/stats"
	"autosens/internal/timeutil"
)

// ActionType enumerates the four OWA user actions the paper analyzes.
type ActionType int

// Action types from Section 3.2.
const (
	SelectMail ActionType = iota
	SwitchFolder
	Search
	ComposeSend
	numActionTypes
)

// NumActionTypes is the number of distinct action types.
const NumActionTypes = int(numActionTypes)

// ActionTypes lists all action types in declaration order.
func ActionTypes() []ActionType {
	return []ActionType{SelectMail, SwitchFolder, Search, ComposeSend}
}

// String implements fmt.Stringer.
func (a ActionType) String() string {
	switch a {
	case SelectMail:
		return "SelectMail"
	case SwitchFolder:
		return "SwitchFolder"
	case Search:
		return "Search"
	case ComposeSend:
		return "ComposeSend"
	default:
		return fmt.Sprintf("ActionType(%d)", int(a))
	}
}

// ParseActionType converts a string produced by String back to an
// ActionType.
func ParseActionType(s string) (ActionType, error) {
	for _, a := range ActionTypes() {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown action type %q", s)
}

// UserType distinguishes paying business users from free consumers
// (Section 3.3).
type UserType int

// User segments.
const (
	Business UserType = iota
	Consumer
	numUserTypes
)

// NumUserTypes is the number of user segments.
const NumUserTypes = int(numUserTypes)

// UserTypes lists all user types in declaration order.
func UserTypes() []UserType { return []UserType{Business, Consumer} }

// String implements fmt.Stringer.
func (u UserType) String() string {
	switch u {
	case Business:
		return "business"
	case Consumer:
		return "consumer"
	default:
		return fmt.Sprintf("UserType(%d)", int(u))
	}
}

// ParseUserType converts a string produced by String back to a UserType.
func ParseUserType(s string) (UserType, error) {
	for _, u := range UserTypes() {
		if u.String() == s {
			return u, nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown user type %q", s)
}

// Record is one logged user action: the (T, A, L, M) tuple. The latency is
// measured at the client from action initiation to completion and conveyed
// to the server, as in OWA. TZOffset carries the user's local-time offset so
// analyses can slot on local time. Failed marks an action that returned an
// error; per the paper such records are excluded from analysis.
type Record struct {
	Time      timeutil.Millis `json:"t"`
	Action    ActionType      `json:"a"`
	LatencyMS float64         `json:"l"`
	UserID    uint64          `json:"u"`
	UserType  UserType        `json:"ut"`
	TZOffset  timeutil.Millis `json:"tz"`
	Failed    bool            `json:"f,omitempty"`
}

// Validate checks the record's invariants.
func (r Record) Validate() error {
	if r.LatencyMS < 0 {
		return fmt.Errorf("telemetry: negative latency %v", r.LatencyMS)
	}
	if r.Action < 0 || int(r.Action) >= NumActionTypes {
		return fmt.Errorf("telemetry: invalid action type %d", r.Action)
	}
	if r.UserType < 0 || int(r.UserType) >= NumUserTypes {
		return fmt.Errorf("telemetry: invalid user type %d", r.UserType)
	}
	return nil
}

// SortByTime sorts records in place by ascending timestamp (stable, so
// simultaneous records keep their generation order).
func SortByTime(rs []Record) {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })
}

// Filter returns the records matching keep, preserving order.
func Filter(rs []Record, keep func(Record) bool) []Record {
	out := make([]Record, 0, len(rs))
	for _, r := range rs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// Successful returns only the non-failed records, mirroring the paper's
// "we only focus on successful actions".
func Successful(rs []Record) []Record {
	return Filter(rs, func(r Record) bool { return !r.Failed })
}

// ByAction returns the records with the given action type.
func ByAction(rs []Record, a ActionType) []Record {
	return Filter(rs, func(r Record) bool { return r.Action == a })
}

// ByUserType returns the records with the given user segment.
func ByUserType(rs []Record, u UserType) []Record {
	return Filter(rs, func(r Record) bool { return r.UserType == u })
}

// ByTimeRange returns the records with lo <= Time < hi.
func ByTimeRange(rs []Record, lo, hi timeutil.Millis) []Record {
	return Filter(rs, func(r Record) bool { return r.Time >= lo && r.Time < hi })
}

// ByPeriod returns the records whose user-local time of day falls in the
// given 6-hour period.
func ByPeriod(rs []Record, p timeutil.Period) []Record {
	return Filter(rs, func(r Record) bool { return timeutil.PeriodOf(r.Time, r.TZOffset) == p })
}

// Latencies extracts the latency series in record order.
func Latencies(rs []Record) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.LatencyMS
	}
	return out
}

// distinctUsersEstimate sizes per-user maps ahead of the first insert.
// Real telemetry carries tens to thousands of records per user, so 1/16
// of the record count overshoots slightly for short logs and avoids
// rehash-and-copy growth for long ones.
func distinctUsersEstimate(records int) int {
	return records/16 + 16
}

// recordMedians is userMedians over the records' user and latency columns.
func recordMedians(rs []Record) perUser {
	users := make([]uint64, len(rs))
	lats := make([]float64, len(rs))
	for i := range rs {
		users[i], lats[i] = rs[i].UserID, rs[i].LatencyMS
	}
	return userMedians(users, lats, 1)
}

// perUser is the per-user median latency over (user, latency) rows.
type perUser struct {
	ids     []uint64  // distinct users, in order of first appearance
	medians []float64 // parallel to ids
	row     []int32   // each row's index into ids
}

// userMedians computes every user's median latency. Latencies are bucketed
// per user, in row order, into one shared scratch slice, and each user's
// median is selected in place on up to workers goroutines (0 means
// GOMAXPROCS), so the cost is a few fixed allocations rather than one
// growing slice per user.
func userMedians(users []uint64, lats []float64, workers int) perUser {
	m := perUser{row: make([]int32, len(users))}
	m.ids = denseUsers(users, m.row)
	// start[k]..start[k+1] is user k's region of scratch.
	start := make([]int, len(m.ids)+1)
	for _, k := range m.row {
		start[k+1]++
	}
	for k := range m.ids {
		start[k+1] += start[k]
	}
	fill := append([]int(nil), start[:len(m.ids)]...)
	scratch := make([]float64, len(lats))
	for i, k := range m.row {
		scratch[fill[k]] = lats[i]
		fill[k]++
	}
	m.medians = make([]float64, len(m.ids))
	// Enough chunks of consecutive users to even out heavy users.
	chunks := min(len(m.ids), 16*parallel.Workers(workers, len(m.ids)))
	parallel.ForEach(workers, chunks, func(c int) {
		for k := c * len(m.ids) / chunks; k < (c+1)*len(m.ids)/chunks; k++ {
			m.medians[k] = median(scratch[start[k]:start[k+1]])
		}
	})
	return m
}

// median is stats.QuantileSorted(s, 0.5) of s sorted as sort.Float64s
// would, without sorting all of s: it selects the middle order statistics
// in place. Values that order as equal (zeros of either sign, NaNs) may
// trade places, so the result equals the sorted median by ==.
func median(s []float64) float64 {
	k := (len(s) - 1) / 2
	nth(s, k)
	if len(s)%2 == 1 {
		return s[k]
	}
	next := s[k+1]
	for _, v := range s[k+2:] {
		if cmp.Less(v, next) {
			next = v
		}
	}
	// QuantileSorted's interpolation at pos k+0.5.
	return s[k]*0.5 + next*0.5
}

// nth rearranges s so that s[k] is what sorting s by cmp.Less would put
// there, with nothing ordered after it before it and nothing ordered
// before it after it: quickselect with three-way partitions around
// median-of-three pivots, and a full sort for short or stubborn ranges.
func nth(s []float64, k int) {
	for depth := 0; len(s) > 16 && depth <= 48; depth++ {
		a, b, c := s[0], s[len(s)/2], s[len(s)-1]
		if cmp.Less(b, a) {
			a, b = b, a
		}
		if cmp.Less(c, b) {
			b = c
			if cmp.Less(b, a) {
				b = a
			}
		}
		lt, i, gt := 0, 0, len(s)
		for i < gt {
			switch {
			case cmp.Less(s[i], b):
				s[lt], s[i] = s[i], s[lt]
				lt++
				i++
			case cmp.Less(b, s[i]):
				gt--
				s[i], s[gt] = s[gt], s[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			s = s[:lt]
		case k >= gt:
			s, k = s[gt:], k-gt
		default:
			return
		}
	}
	slices.Sort(s)
}

// denseUsers numbers the distinct users in order of first appearance,
// writes each row's number to row and returns the users by number. IDs
// below the row count plus a little are looked up in a table, others in a
// map.
func denseUsers(users []uint64, row []int32) (ids []uint64) {
	var maxID uint64
	for _, u := range users {
		maxID = max(maxID, u)
	}
	if maxID < uint64(len(users))+1024 {
		seen := make([]int32, maxID+1) // number+1; 0 = not seen yet
		for i, u := range users {
			if seen[u] == 0 {
				ids = append(ids, u)
				seen[u] = int32(len(ids))
			}
			row[i] = seen[u] - 1
		}
		return ids
	}
	seen := make(map[uint64]int32, distinctUsersEstimate(len(users)))
	for i, u := range users {
		k, ok := seen[u]
		if !ok {
			k = int32(len(ids))
			ids = append(ids, u)
			seen[u] = k
		}
		row[i] = k
	}
	return ids
}

// Quartile identifies one of the four median-latency user groups of
// Section 3.4; Q1 is the fastest (lowest median latency).
type Quartile int

// Quartile labels.
const (
	Q1 Quartile = iota
	Q2
	Q3
	Q4
	numQuartiles
)

// NumQuartiles is the number of quartile groups.
const NumQuartiles = int(numQuartiles)

// String implements fmt.Stringer.
func (q Quartile) String() string {
	if q >= 0 && int(q) < NumQuartiles {
		return fmt.Sprintf("Q%d", int(q)+1)
	}
	return fmt.Sprintf("Quartile(%d)", int(q))
}

// AssignQuartiles groups users into quartiles of their median latency.
// Returns the per-user quartile map and the three latency cut points.
func AssignQuartiles(rs []Record) (map[uint64]Quartile, [3]float64, error) {
	m := recordMedians(rs)
	qs, cuts, err := m.quartiles()
	if err != nil {
		return nil, cuts, err
	}
	out := make(map[uint64]Quartile, len(m.ids))
	for k, id := range m.ids {
		out[id] = qs[k]
	}
	return out, cuts, nil
}

// RowQuartiles is AssignQuartiles over (user, latency) columns: it returns
// each row's user quartile, parallel to users, the three cut points and
// the number of users. The per-user medians are selected on up to workers
// goroutines (0 means GOMAXPROCS).
func RowQuartiles(users []uint64, lats []float64, workers int) (rows []uint8, cuts [3]float64, nusers int, err error) {
	m := userMedians(users, lats, workers)
	qs, cuts, err := m.quartiles()
	if err != nil {
		return nil, cuts, len(m.ids), err
	}
	rows = make([]uint8, len(users))
	for i, k := range m.row {
		rows[i] = uint8(qs[k])
	}
	return rows, cuts, len(m.ids), nil
}

// quartiles assigns every user the quartile of its median latency.
func (m perUser) quartiles() ([]Quartile, [3]float64, error) {
	if len(m.ids) < NumQuartiles {
		return nil, [3]float64{}, fmt.Errorf("telemetry: %d users is too few for quartiles", len(m.ids))
	}
	q1, q2, q3, err := stats.Quartiles(m.medians)
	if err != nil {
		return nil, [3]float64{}, err
	}
	cuts := [3]float64{q1, q2, q3}
	out := make([]Quartile, len(m.ids))
	for k, med := range m.medians {
		switch {
		case med <= q1:
			out[k] = Q1
		case med <= q2:
			out[k] = Q2
		case med <= q3:
			out[k] = Q3
		default:
			out[k] = Q4
		}
	}
	return out, cuts, nil
}
