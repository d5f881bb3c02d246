package telemetry

import (
	"math"
	"slices"
	"sort"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/stats"
	"autosens/internal/timeutil"
)

func rec(t timeutil.Millis, a ActionType, l float64, uid uint64) Record {
	return Record{Time: t, Action: a, LatencyMS: l, UserID: uid, UserType: Business}
}

func TestActionTypeStringRoundTrip(t *testing.T) {
	for _, a := range ActionTypes() {
		got, err := ParseActionType(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip %v: %v, %v", a, got, err)
		}
	}
	if _, err := ParseActionType("bogus"); err == nil {
		t.Fatal("bogus action parsed")
	}
}

func TestUserTypeStringRoundTrip(t *testing.T) {
	for _, u := range UserTypes() {
		got, err := ParseUserType(u.String())
		if err != nil || got != u {
			t.Fatalf("round trip %v: %v, %v", u, got, err)
		}
	}
	if _, err := ParseUserType("bogus"); err == nil {
		t.Fatal("bogus user type parsed")
	}
}

func TestValidate(t *testing.T) {
	good := rec(0, SelectMail, 100, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Record{
		{LatencyMS: -1},
		{Action: ActionType(99)},
		{Action: ActionType(-1)},
		{UserType: UserType(99)},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Fatalf("bad record %d validated", i)
		}
	}
}

func TestSortByTimeStable(t *testing.T) {
	rs := []Record{
		rec(30, SelectMail, 1, 1),
		rec(10, Search, 2, 2),
		rec(10, ComposeSend, 3, 3),
		rec(20, SelectMail, 4, 4),
	}
	SortByTime(rs)
	if rs[0].Time != 10 || rs[1].Time != 10 || rs[2].Time != 20 || rs[3].Time != 30 {
		t.Fatalf("not sorted: %v", rs)
	}
	if rs[0].Action != Search || rs[1].Action != ComposeSend {
		t.Fatal("sort not stable for equal timestamps")
	}
}

func TestFilters(t *testing.T) {
	rs := []Record{
		rec(0, SelectMail, 1, 1),
		rec(100, Search, 2, 2),
		{Time: 200, Action: SelectMail, LatencyMS: 3, UserID: 3, UserType: Consumer},
		{Time: 300, Action: Search, LatencyMS: 4, UserID: 4, UserType: Business, Failed: true},
	}
	if got := len(ByAction(rs, SelectMail)); got != 2 {
		t.Fatalf("ByAction = %d", got)
	}
	if got := len(ByUserType(rs, Consumer)); got != 1 {
		t.Fatalf("ByUserType = %d", got)
	}
	if got := len(ByTimeRange(rs, 100, 300)); got != 2 {
		t.Fatalf("ByTimeRange = %d", got)
	}
	if got := len(Successful(rs)); got != 3 {
		t.Fatalf("Successful = %d", got)
	}
}

func TestByPeriod(t *testing.T) {
	// 9am local => Period8am2pm; 3am local => Period2am8am.
	rs := []Record{
		rec(9*timeutil.MillisPerHour, SelectMail, 1, 1),
		rec(3*timeutil.MillisPerHour, SelectMail, 1, 2),
	}
	if got := len(ByPeriod(rs, timeutil.Period8am2pm)); got != 1 {
		t.Fatalf("ByPeriod day = %d", got)
	}
	if got := len(ByPeriod(rs, timeutil.Period2am8am)); got != 1 {
		t.Fatalf("ByPeriod night = %d", got)
	}
	// A timezone offset moves the record between periods.
	rs[1].TZOffset = 6 * timeutil.MillisPerHour // 3am UTC + 6h = 9am local
	if got := len(ByPeriod(rs, timeutil.Period8am2pm)); got != 2 {
		t.Fatalf("ByPeriod with tz = %d", got)
	}
}

func TestLatencies(t *testing.T) {
	rs := []Record{rec(0, SelectMail, 10, 1), rec(1, SelectMail, 20, 1)}
	ls := Latencies(rs)
	if len(ls) != 2 || ls[0] != 10 || ls[1] != 20 {
		t.Fatalf("Latencies = %v", ls)
	}
}

// TestUserMedians: each user's median over (user, latency) columns, users
// numbered in order of first appearance, at any worker count.
func TestUserMedians(t *testing.T) {
	users := []uint64{1, 1, 1, 2, 1 << 40}
	lats := []float64{10, 30, 20, 100, 7}
	for _, workers := range []int{1, 4} {
		m := userMedians(users, lats, workers)
		if !slices.Equal(m.ids, []uint64{1, 2, 1 << 40}) || !slices.Equal(m.medians, []float64{20, 100, 7}) ||
			!slices.Equal(m.row, []int32{0, 0, 0, 1, 2}) {
			t.Fatalf("workers=%d: userMedians = %+v", workers, m)
		}
	}
}

func TestAssignQuartiles(t *testing.T) {
	var rs []Record
	// 100 users with median latency = 10*user id: clean quartiles.
	for uid := uint64(1); uid <= 100; uid++ {
		rs = append(rs, rec(timeutil.Millis(uid), SelectMail, float64(uid*10), uid))
	}
	assign, cuts, err := AssignQuartiles(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 100 {
		t.Fatalf("assigned %d users", len(assign))
	}
	if assign[1] != Q1 || assign[100] != Q4 {
		t.Fatalf("extremes misassigned: %v %v", assign[1], assign[100])
	}
	if !(cuts[0] < cuts[1] && cuts[1] < cuts[2]) {
		t.Fatalf("cuts not increasing: %v", cuts)
	}
	// Roughly equal group sizes.
	var sizes [NumQuartiles]int
	for _, q := range assign {
		sizes[q]++
	}
	for q, n := range sizes {
		if n < 20 || n > 30 {
			t.Fatalf("quartile %d has %d users", q, n)
		}
	}
}

func TestAssignQuartilesTooFewUsers(t *testing.T) {
	rs := []Record{rec(0, SelectMail, 1, 1), rec(1, SelectMail, 2, 2)}
	if _, _, err := AssignQuartiles(rs); err == nil {
		t.Fatal("too-few-users accepted")
	}
}

func TestQuartileString(t *testing.T) {
	if Q1.String() != "Q1" || Q4.String() != "Q4" {
		t.Fatal("quartile names wrong")
	}
}

func TestQuartileMonotonicityProperty(t *testing.T) {
	// Users with strictly higher median latency never land in a lower
	// quartile.
	s := rng.New(1)
	var rs []Record
	medians := make(map[uint64]float64)
	for uid := uint64(1); uid <= 200; uid++ {
		l := s.LogNormal(5, 0.8)
		medians[uid] = l
		rs = append(rs, rec(timeutil.Millis(uid), SelectMail, l, uid))
	}
	assign, _, err := AssignQuartiles(rs)
	if err != nil {
		t.Fatal(err)
	}
	for a, qa := range assign {
		for b, qb := range assign {
			if medians[a] < medians[b] && qa > qb {
				t.Fatalf("user %d (median %v, %v) above user %d (median %v, %v)",
					a, medians[a], qa, b, medians[b], qb)
			}
		}
	}
}

// TestMedianMatchesSortedQuantile: the in-place selection returns the
// median of the sorted values, over lengths around the selection cut-off
// and values with heavy ties, zeros of both signs, NaNs and infinities.
func TestMedianMatchesSortedQuantile(t *testing.T) {
	src := rng.New(11)
	pool := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, 2, 2.5}
	for _, n := range []int{1, 2, 3, 4, 15, 16, 17, 18, 33, 100, 1001, 4096} {
		for shape := 0; shape < 5; shape++ {
			s := make([]float64, n)
			for i := range s {
				switch shape {
				case 0:
					s[i] = src.LogNormal(6, 1)
				case 1:
					s[i] = float64(src.Intn(3)) // heavy ties
				case 2:
					s[i] = pool[src.Intn(len(pool))]
				case 3:
					s[i] = float64(i) // sorted
				case 4:
					s[i] = float64(n - i) // reversed
				}
			}
			sorted := slices.Clone(s)
			sort.Float64s(sorted)
			want, err := stats.QuantileSorted(sorted, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got := median(slices.Clone(s))
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("n=%d shape %d: median %v, sorted quantile %v", n, shape, got, want)
			}
		}
	}
}

// referenceQuartiles is the quartile assignment written plainly: each
// user's latencies sorted whole, the median of each, and the cuts over
// the medians.
func referenceQuartiles(t *testing.T, rs []Record) (map[uint64]Quartile, [3]float64) {
	t.Helper()
	perUser := map[uint64][]float64{}
	for _, r := range rs {
		perUser[r.UserID] = append(perUser[r.UserID], r.LatencyMS)
	}
	medians := map[uint64]float64{}
	var vals []float64
	for id, ls := range perUser {
		sort.Float64s(ls)
		m, err := stats.QuantileSorted(ls, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		medians[id] = m
		vals = append(vals, m)
	}
	q1, q2, q3, err := stats.Quartiles(vals)
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint64]Quartile{}
	for id, m := range medians {
		out[id] = Q4
		for q, cut := range []float64{q1, q2, q3} {
			if m <= cut {
				out[id] = Quartile(q)
				break
			}
		}
	}
	return out, [3]float64{q1, q2, q3}
}

// TestRowQuartilesMatchAssignQuartiles: AssignQuartiles and its column form
// assign every user (every row) the plainly computed quartile, with the
// same cuts, at any worker count, over dense (table-indexed) and sparse
// (hashed) user IDs.
func TestRowQuartilesMatchAssignQuartiles(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		rs := genRecords(20000, 31)
		if sparse {
			for i := range rs {
				rs[i].UserID = rs[i].UserID*0x9e3779b97f4a7c15 + 1<<40
			}
		}
		want, wantCuts := referenceQuartiles(t, rs)
		assign, cuts, err := AssignQuartiles(rs)
		if err != nil {
			t.Fatal(err)
		}
		if cuts != wantCuts || len(assign) != len(want) {
			t.Fatalf("sparse=%v: AssignQuartiles cuts %v over %d users, want %v over %d", sparse, cuts, len(assign), wantCuts, len(want))
		}
		for id, q := range want {
			if assign[id] != q {
				t.Fatalf("sparse=%v: user %d in %v, want %v", sparse, id, assign[id], q)
			}
		}
		users := make([]uint64, len(rs))
		lats := make([]float64, len(rs))
		for i, r := range rs {
			users[i], lats[i] = r.UserID, r.LatencyMS
		}
		for _, workers := range []int{1, 4} {
			rows, cuts, n, err := RowQuartiles(users, lats, workers)
			if err != nil {
				t.Fatal(err)
			}
			if cuts != wantCuts || n != len(want) {
				t.Fatalf("sparse=%v workers=%d: cuts %v over %d users, want %v over %d", sparse, workers, cuts, n, wantCuts, len(want))
			}
			for i, r := range rs {
				if Quartile(rows[i]) != want[r.UserID] {
					t.Fatalf("sparse=%v workers=%d row %d: quartile %d, want %d", sparse, workers, i, rows[i], want[r.UserID])
				}
			}
		}
	}
	if _, _, _, err := RowQuartiles([]uint64{1, 2, 3}, []float64{1, 2, 3}, 2); err == nil {
		t.Fatal("quartiles over 3 users succeeded")
	}
}
