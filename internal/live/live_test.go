package live

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// genStream synthesizes an ack-ordered beacon stream: record times are
// random over the horizon and the stream is NOT time-sorted (batches
// arrive out of order, as from many clients), so the tests exercise the
// (time, seq) merge rather than a trivially sorted store.
func genStream(seed uint64, n int, horizon timeutil.Millis) []telemetry.Record {
	src := rng.New(seed)
	tzs := []timeutil.Millis{-5 * timeutil.MillisPerHour, 0, 2 * timeutil.MillisPerHour}
	out := make([]telemetry.Record, n)
	for i := range out {
		out[i] = telemetry.Record{
			Time:      timeutil.Millis(src.Uint64n(uint64(horizon))),
			Action:    telemetry.ActionType(src.Intn(telemetry.NumActionTypes)),
			LatencyMS: 100 + 400*src.LogNormal(0, 0.4),
			UserID:    uint64(src.Intn(200)) + 1,
			UserType:  telemetry.UserType(src.Intn(telemetry.NumUserTypes)),
			TZOffset:  tzs[src.Intn(len(tzs))],
			Failed:    src.Bool(0.05),
		}
	}
	return out
}

// testOptions are the estimator options shared by the live engine and the
// batch reference in these tests.
func testOptions() core.Options {
	o := core.DefaultOptions()
	o.ReferenceMS = 250
	return o
}

// batchFilter returns the records a batch run over the slice would load,
// in stream (ack) order. Failed records stay in: the batch estimator
// drops them itself via UsableColumns, exactly as the engine drops
// them at append.
func batchFilter(stream []telemetry.Record, key SliceKey) []telemetry.Record {
	return telemetry.Filter(stream, func(r telemetry.Record) bool {
		if key.Action >= 0 && r.Action != key.Action {
			return false
		}
		if key.UserType >= 0 && r.UserType != key.UserType {
			return false
		}
		if key.Period >= 0 && timeutil.PeriodOf(r.Time, r.TZOffset) != key.Period {
			return false
		}
		return true
	})
}

// batchCurve runs the batch estimator the way the autosens CLI does and
// returns the curve's canonical JSON.
func batchCurve(t *testing.T, stream []telemetry.Record, key SliceKey, mode Mode) []byte {
	t.Helper()
	est, err := core.NewEstimator(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs := batchFilter(stream, key)
	var c *core.Curve
	if mode == ModeNormalized {
		c, err = est.EstimateTimeNormalized(recs)
	} else {
		c, err = est.Estimate(recs)
	}
	if err != nil {
		t.Fatalf("batch estimate %s/%s: %v", key, mode, err)
	}
	b, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{Options: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var goldenKeys = []SliceKey{
	AllSlices,
	{Action: telemetry.SelectMail, UserType: -1, Period: -1},
	{Action: -1, UserType: telemetry.Business, Period: -1},
	{Action: -1, UserType: -1, Period: timeutil.Period2pm8pm},
	{Action: telemetry.Search, UserType: telemetry.Consumer, Period: -1},
}

// TestGoldenLiveMatchesBatch pins the tentpole guarantee: live curves are
// byte-identical to batch output over the same acked records, on the
// clean path, after cache hits, and after incremental appends (dirty
// path).
func TestGoldenLiveMatchesBatch(t *testing.T) {
	stream := genStream(1, 12000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	// Append in uneven batches, as the writer loop would.
	for lo := 0; lo < len(stream); {
		hi := lo + 1 + int(stream[lo].UserID%700)
		if hi > len(stream) {
			hi = len(stream)
		}
		e.Append(stream[lo:hi])
		lo = hi
	}

	for _, mode := range []Mode{ModePlain, ModeNormalized} {
		for _, key := range goldenKeys {
			want := batchCurve(t, stream, key, mode)
			res, err := e.Query(key, mode, false)
			if err != nil {
				t.Fatalf("query %s/%s: %v", key, mode, err)
			}
			if res.Cached {
				t.Fatalf("first query %s/%s served from cache", key, mode)
			}
			if !bytes.Equal(want, res.Curve) {
				t.Fatalf("live curve %s/%s differs from batch", key, mode)
			}
			// Second query must hit the cache and return the same bytes.
			again, err := e.Query(key, mode, false)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Cached {
				t.Fatalf("clean query %s/%s missed the cache", key, mode)
			}
			if !bytes.Equal(want, again.Curve) {
				t.Fatalf("cached curve %s/%s differs", key, mode)
			}
		}
	}

	// Dirty path: more records arrive, every cached curve is stale, and
	// recomputed curves must again match batch over the grown stream.
	more := genStream(2, 4000, 2*timeutil.MillisPerDay)
	stream = append(stream, more...)
	e.Append(more)
	for _, mode := range []Mode{ModePlain, ModeNormalized} {
		for _, key := range goldenKeys {
			want := batchCurve(t, stream, key, mode)
			res, err := e.Query(key, mode, false)
			if err != nil {
				t.Fatalf("dirty query %s/%s: %v", key, mode, err)
			}
			if res.Cached {
				t.Fatalf("dirty query %s/%s served stale cache", key, mode)
			}
			if !bytes.Equal(want, res.Curve) {
				t.Fatalf("recomputed curve %s/%s differs from batch", key, mode)
			}
		}
	}
}

// TestGoldenWALWarmed pins byte-identity on the startup path: an engine
// warmed from the WAL answers exactly what batch autosens computes over
// the same WAL.
func TestGoldenWALWarmed(t *testing.T) {
	stream := genStream(3, 8000, 2*timeutil.MillisPerDay)
	dir := t.TempDir()
	w, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(stream); lo += 512 {
		hi := lo + 512
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := w.Append(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t)
	n, err := e.Warm(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(stream) {
		t.Fatalf("warmed %d records, want %d", n, len(stream))
	}

	// Batch reference over the same WAL contents, as `autosens -in <dir>`
	// would load them.
	loaded, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range goldenKeys[:3] {
		want := batchCurve(t, loaded, key, ModePlain)
		res, err := e.Query(key, ModePlain, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, res.Curve) {
			t.Fatalf("WAL-warmed curve %s differs from batch", key)
		}
	}
}

// TestGoldenCI pins that live ci=1 responses carry the same point curve
// and bootstrap bounds as core.EstimateCI over the same records.
func TestGoldenCI(t *testing.T) {
	stream := genStream(4, 9000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)

	est, err := core.NewEstimator(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultCIOptions()
	band, err := est.EstimateCI(batchFilter(stream, AllSlices), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantCurve, err := band.Curve.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantCI, err := band.MarshalBoundsJSON()
	if err != nil {
		t.Fatal(err)
	}

	res, err := e.Query(AllSlices, ModePlain, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCurve, res.Curve) {
		t.Fatal("live CI point curve differs from batch")
	}
	if !bytes.Equal(wantCI, res.CI) {
		t.Fatal("live CI bounds differ from batch")
	}
}

func TestParseSliceKey(t *testing.T) {
	cases := []struct {
		in   string
		want SliceKey
	}{
		{"", AllSlices},
		{"all", AllSlices},
		{"action:SelectMail", SliceKey{Action: telemetry.SelectMail, UserType: -1, Period: -1}},
		{"usertype:business,period:8am-2pm", SliceKey{Action: -1, UserType: telemetry.Business, Period: timeutil.Period8am2pm}},
		{"action:Search,usertype:consumer,period:2am-8am", SliceKey{Action: telemetry.Search, UserType: telemetry.Consumer, Period: timeutil.Period2am8am}},
	}
	for _, c := range cases {
		got, err := ParseSliceKey(c.in)
		if err != nil {
			t.Fatalf("ParseSliceKey(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseSliceKey(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// Round trip through String.
		back, err := ParseSliceKey(got.String())
		if err != nil || back != got {
			t.Fatalf("round trip %q → %q failed", c.in, got.String())
		}
	}
	for _, bad := range []string{"action", "action:Nope", "usertype:root", "period:noon", "foo:bar"} {
		if _, err := ParseSliceKey(bad); err == nil {
			t.Fatalf("ParseSliceKey(%q) accepted", bad)
		}
	}
}

func TestEngineSkipsFailedAndInvalid(t *testing.T) {
	e := newTestEngine(t)
	e.Append([]telemetry.Record{
		{Time: 1, Action: telemetry.SelectMail, LatencyMS: 100, UserID: 1, Failed: true},
		{Time: 2, Action: telemetry.ActionType(99), LatencyMS: 100, UserID: 1},
		{Time: 3, Action: telemetry.SelectMail, UserType: telemetry.UserType(9), LatencyMS: 100, UserID: 1},
		{Time: 4, Action: telemetry.SelectMail, LatencyMS: 100, UserID: 1},
	})
	if got := e.Records(); got != 1 {
		t.Fatalf("stored %d records, want 1", got)
	}
	if got := e.skipped.Load(); got != 3 {
		t.Fatalf("skipped %d records, want 3", got)
	}
}

func TestQueryEmptySlice(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Query(AllSlices, ModePlain, false); err != ErrNoRecords {
		t.Fatalf("empty engine query: %v", err)
	}
}

func TestCurvesHandler(t *testing.T) {
	stream := genStream(5, 6000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)
	srv := httptest.NewServer(NewCurvesHandlerWith(e, CurvesHandlerOptions{}))
	defer srv.Close()

	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := get(srv.URL + "?slice=action:SelectMail&mode=plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Autosens-Cache"); h != "miss" {
		t.Fatalf("first query cache header %q", h)
	}
	var cr api.CurvesResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Slice != "action:SelectMail" || cr.Mode != "plain" || cr.Records == 0 || len(cr.Curve) == 0 {
		t.Fatalf("bad response: %+v", cr)
	}
	want := batchCurve(t, stream, SliceKey{Action: telemetry.SelectMail, UserType: -1, Period: -1}, ModePlain)
	if !bytes.Equal(want, []byte(cr.Curve)) {
		t.Fatal("HTTP curve differs from batch")
	}

	resp, _ = get(srv.URL + "?slice=action:SelectMail&mode=plain")
	if h := resp.Header.Get("X-Autosens-Cache"); h != "hit" {
		t.Fatalf("second query cache header %q", h)
	}

	for _, bad := range []string{"?slice=action:Nope", "?mode=fast", "?ci=maybe"} {
		resp, _ := get(srv.URL + bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// POST is rejected.
	presp, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", presp.StatusCode)
	}
}

// TestCurvesHandlerRefusals tables the typed errors of a well-formed
// request the estimator declines. Input too thin for the method is 422
// under_identified with the batch estimator's message — the time-normalized
// refusals, plain mode's ratio with no supported bin, a ci=1 window shorter
// than two bootstrap blocks, a bootstrap whose replicates nearly all pick
// record-free blocks — whether the delta-maintained slot state answers
// (unwindowed) or the stateless columns kernel does (a window, never
// promoted while it refuses); an empty slice is 404.
func TestCurvesHandlerRefusals(t *testing.T) {
	const hour = timeutil.MillisPerHour
	rec := func(a telemetry.ActionType, t timeutil.Millis, lat float64) telemetry.Record {
		return telemetry.Record{Time: t, Action: a, LatencyMS: lat, UserID: 1 + uint64(t%7)}
	}
	var stream []telemetry.Record
	for i := 0; i < 12; i++ { // one thin hour: no slot reaches MinSlotActions
		stream = append(stream, rec(telemetry.SelectMail, 30*hour+timeutil.Millis(i)*60_000, 200+float64(i)))
	}
	for i := 0; i < 25; i++ { // a full slot, but one action per coarse latency bin: α has no support
		stream = append(stream, rec(telemetry.Search, 40*hour+timeutil.Millis(i)*60_000, 50+100*float64(i)))
	}
	for i := 0; i < 3; i++ { // six draws over three latency bins: none reaches MinUnbiasedCount
		r := rec(telemetry.ComposeSend, 50*hour+timeutil.Millis(i)*60_000, 100+400*float64(i))
		r.UserType = telemetry.Consumer
		stream = append(stream, r)
	}
	// Ten 6 h blocks with records in the first only (and one closing the
	// window): a replicate succeeds only if it picks block 0, and of the
	// two replicates at bootstrap seed 8 neither does.
	for i := 0; i < 600; i++ {
		stream = append(stream, rec(telemetry.SwitchFolder, timeutil.Millis(i)*6_000, 100+float64(i%50)*20))
	}
	stream = append(stream, rec(telemetry.SwitchFolder, 59*hour, 300))
	e := newTestEngine(t)
	e.Append(stream)
	srv := httptest.NewServer(NewCurvesHandlerWith(e, CurvesHandlerOptions{}))
	defer srv.Close()
	twoReps := Config{Options: testOptions(), CI: core.DefaultCIOptions()}
	twoReps.CI.Resamples, twoReps.CI.Seed = 2, 8
	e2, err := New(twoReps)
	if err != nil {
		t.Fatal(err)
	}
	e2.Append(stream)
	srv2 := httptest.NewServer(NewCurvesHandlerWith(e2, CurvesHandlerOptions{}))
	defer srv2.Close()
	at := "&window=48h&at=" + time.UnixMilli(int64(60*hour)).UTC().Format(time.RFC3339)
	at72 := "&window=72h&at=" + time.UnixMilli(int64(60*hour)).UTC().Format(time.RFC3339)

	for _, tc := range []struct {
		query   string
		status  int
		code    string
		message string
	}{
		{"?slice=action:SelectMail&mode=normalized", 422, api.CodeUnderIdentified,
			"core: no slot reaches 20 actions; use a longer window or coarser slots"},
		{"?slice=action:SelectMail&mode=normalized" + at, 422, api.CodeUnderIdentified,
			"core: no slot reaches 20 actions; use a longer window or coarser slots"},
		{"?slice=action:Search&mode=normalized", 422, api.CodeUnderIdentified,
			"core: no usable reference slot for time normalization"},
		{"?slice=action:Search&mode=normalized" + at, 422, api.CodeUnderIdentified,
			"core: no usable reference slot for time normalization"},
		{"?slice=action:ComposeSend", 422, api.CodeUnderIdentified,
			"core: no valid bins in ratio"},
		{"?slice=action:ComposeSend" + at, 422, api.CodeUnderIdentified,
			"core: no valid bins in ratio"},
		{"?slice=action:SelectMail&ci=1", 422, api.CodeUnderIdentified,
			"core: window shorter than two 21600000-ms blocks"},
		{"?slice=action:SelectMail&ci=1" + at, 422, api.CodeUnderIdentified,
			"core: window shorter than two 21600000-ms blocks"},
		{"two:?slice=action:SwitchFolder&ci=1", 422, api.CodeUnderIdentified,
			"core: too few successful bootstrap replicates"},
		{"two:?slice=action:SwitchFolder&ci=1" + at72, 422, api.CodeUnderIdentified,
			"core: too few successful bootstrap replicates"},
		{"?slice=action:ComposeSend,usertype:business&mode=normalized", 404, api.CodeNotFound, ""},
	} {
		url := srv.URL + tc.query
		if q, ok := strings.CutPrefix(tc.query, "two:"); ok {
			url = srv2.URL + q
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		apiErr := api.ReadError(resp)
		resp.Body.Close()
		if resp.StatusCode != tc.status || apiErr.Code != tc.code ||
			(tc.message != "" && apiErr.Message != tc.message) {
			t.Fatalf("%s: %d %s %q, want %d %s %q",
				tc.query, resp.StatusCode, apiErr.Code, apiErr.Message, tc.status, tc.code, tc.message)
		}
	}
}

// TestStoreCompactness sanity-checks the TBIN-style columns: the store
// should cost well under the 48 bytes/record of []telemetry.Record.
func TestStoreCompactness(t *testing.T) {
	stream := genStream(6, 10000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)
	n := e.Records()
	perRec := float64(e.StoreBytes()) / float64(n)
	// 8 (lat) + 1 (tag) + varint time delta + varint seq delta: ~16-20.
	if perRec > 24 {
		t.Fatalf("store costs %.1f bytes/record, want ≤ 24", perRec)
	}
}
