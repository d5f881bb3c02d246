package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// genStream synthesizes an ack-ordered beacon stream (not time-sorted, as
// from many clients), matching the live package's test generator so the
// cluster inherits the same tie and out-of-order coverage.
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

func testOptions() core.Options {
	o := core.DefaultOptions()
	o.ReferenceMS = 250
	return o
}

// newEngine builds an engine storing only the users owns accepts (nil
// owns everything).
func newEngine(t testing.TB, owns func(uint64) bool) *live.Engine {
	t.Helper()
	e, err := live.New(live.Config{Options: testOptions(), Owns: owns})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// appendStream feeds the full stream to an engine, in uneven batches as a
// collector writer loop would. Every node sees the same stream and keeps
// its own users, so each record's seq is its stream position on every
// node — the cross-node byte-identity precondition.
func appendStream(t testing.TB, e *live.Engine, stream []telemetry.Record) {
	t.Helper()
	for lo := 0; lo < len(stream); {
		hi := lo + 1 + int(stream[lo].UserID%700)
		if hi > len(stream) {
			hi = len(stream)
		}
		e.Append(stream[lo:hi])
		lo = hi
	}
}

// newLocalCluster builds n engines partitioned by a fresh ring, feeds
// them the stream, and returns a coordinator over them (background polls
// disabled: tests drive freshness explicitly through Refresh).
func newLocalCluster(t testing.TB, n int, stream []telemetry.Record) ([]*live.Engine, *Coordinator) {
	t.Helper()
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: string(rune('a' + i)), URL: ""}
	}
	ring, err := NewRing(nodes, 32)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*live.Engine, n)
	srcs := make([]PartialSource, n)
	for i := range engines {
		engines[i] = newEngine(t, ring.Owns(i))
		if stream != nil {
			appendStream(t, engines[i], stream)
		}
		srcs[i] = LocalNode{Engine: engines[i]}
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Sources:      srcs,
		Options:      testOptions(),
		PollInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engines, coord
}

var goldenKeys = []live.SliceKey{
	live.AllSlices,
	{Action: telemetry.SelectMail, UserType: -1, Period: -1},
	{Action: -1, UserType: telemetry.Business, Period: -1},
	{Action: -1, UserType: -1, Period: timeutil.Period2pm8pm},
	{Action: telemetry.Search, UserType: telemetry.Consumer, Period: -1},
}

// requireSameResult asserts two query results carry byte-identical curve
// (and CI) JSON and agree on record counts.
func requireSameResult(t *testing.T, label string, want, got *live.Result) {
	t.Helper()
	if want.Records != got.Records {
		t.Fatalf("%s: records %d != %d", label, got.Records, want.Records)
	}
	if !bytes.Equal(want.Curve, got.Curve) {
		t.Fatalf("%s: curve JSON differs", label)
	}
	if !bytes.Equal(want.CI, got.CI) {
		t.Fatalf("%s: CI JSON differs", label)
	}
}

// TestGoldenClusterMatchesSingleNode pins the tentpole guarantee: curves
// served by a 3-node coordinator are byte-identical to a single engine
// fed the whole stream, for every golden slice in both modes, and with
// bootstrap bounds.
func TestGoldenClusterMatchesSingleNode(t *testing.T) {
	stream := genStream(1, 12000, 2*timeutil.MillisPerDay)
	single := newEngine(t, nil)
	single.Append(stream)
	_, coord := newLocalCluster(t, 3, stream)

	for _, key := range goldenKeys {
		for _, mode := range []live.Mode{live.ModePlain, live.ModeNormalized} {
			want, err := single.Query(key, mode, false)
			if err != nil {
				t.Fatalf("single %s/%s: %v", key, mode, err)
			}
			got, err := coord.Query(key, mode, false)
			if err != nil {
				t.Fatalf("cluster %s/%s: %v", key, mode, err)
			}
			requireSameResult(t, key.String()+"/"+mode.String(), want, got)
			if got.Version != want.Version {
				// Same stream on every node; skipped records still bump each
				// node's combo counters, so the summed vector must equal the
				// single engine's version times the node count — but the
				// invariant tested here is the cheaper one that matters:
				// byte-identical curves. Version spaces are per-deployment.
				t.Logf("note: version %d (cluster) vs %d (single)", got.Version, want.Version)
			}
		}
	}

	// Bootstrap bounds over the merged columns equal the single node's
	// exact path.
	want, err := single.Query(live.AllSlices, live.ModePlain, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Query(live.AllSlices, live.ModePlain, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "all/ci", want, got)
}

// TestGoldenClusterMatchesBatch pins the distributed curves against the
// batch estimator the autosens CLI runs — the end-to-end reference.
func TestGoldenClusterMatchesBatch(t *testing.T) {
	stream := genStream(2, 9000, 2*timeutil.MillisPerDay)
	_, coord := newLocalCluster(t, 3, stream)
	est, err := core.NewEstimator(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range goldenKeys {
		recs := telemetry.Filter(stream, func(r telemetry.Record) bool {
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
		c, err := est.Estimate(recs)
		if err != nil {
			t.Fatalf("batch %s: %v", key, err)
		}
		want, err := c.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Query(key, live.ModePlain, false)
		if err != nil {
			t.Fatalf("cluster %s: %v", key, err)
		}
		if !bytes.Equal(want, got.Curve) {
			t.Fatalf("%s: cluster curve differs from batch estimator", key)
		}
	}
}

// partialsServer serves one engine's /v1/partials over loopback HTTP.
func partialsServer(t testing.TB, e *live.Engine) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(api.PathPartials, e.PartialsHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestGoldenClusterOverHTTP runs the same scatter-gather through real
// loopback HTTP partial fetches and checks byte-identity with both the
// local-source coordinator and the single engine — including cache-hit
// serving and staleness detection after one node ingests more data.
func TestGoldenClusterOverHTTP(t *testing.T) {
	stream := genStream(3, 8000, 2*timeutil.MillisPerDay)
	grow := genStream(99, 1500, 2*timeutil.MillisPerDay)
	single := newEngine(t, nil)
	single.Append(stream)
	engines, _ := newLocalCluster(t, 3, stream)

	srcs := make([]PartialSource, len(engines))
	for i, e := range engines {
		srcs[i] = NewHTTPNode(partialsServer(t, e).URL, nil)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Sources:      srcs,
		Options:      testOptions(),
		PollInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	key := live.AllSlices
	want, err := single.Query(key, live.ModePlain, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Query(key, live.ModePlain, false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "http/all", want, got)
	if got.Cached {
		t.Fatal("first query reported cached")
	}

	// Second query: in-process cache hit, same bytes.
	hit, err := coord.Query(key, live.ModePlain, false)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second query missed the cache")
	}
	requireSameResult(t, "http/all/hit", want, hit)

	// Grow the stream on every node (same stream everywhere, each keeps
	// its own records) and on the reference engine. Before Refresh the
	// coordinator still serves the old version; after Refresh it must
	// notice and recompute to the new reference bytes.
	single.Append(grow)
	for _, e := range engines {
		appendStream(t, e, grow)
	}
	stale, err := coord.Query(key, live.ModePlain, false)
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Cached {
		t.Fatal("pre-refresh query recomputed without a version signal")
	}
	coord.Refresh(key)
	want2, err := single.Query(key, live.ModePlain, false)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := coord.Query(key, live.ModePlain, false)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Cached {
		t.Fatal("post-refresh query served stale cache")
	}
	requireSameResult(t, "http/all/grown", want2, got2)
}

// TestCoordinatorServesCurvesHandler checks the coordinator plugs into
// the shared /v1/curves handler: same JSON contract, same cache header.
func TestCoordinatorServesCurvesHandler(t *testing.T) {
	stream := genStream(4, 5000, timeutil.MillisPerDay)
	_, coord := newLocalCluster(t, 2, stream)
	srv := httptest.NewServer(live.NewCurvesHandlerWith(coord, live.CurvesHandlerOptions{}))
	defer srv.Close()

	get := func() (*http.Response, []byte) {
		resp, err := http.Get(srv.URL + "?slice=all&mode=plain")
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
	resp, body := get()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Autosens-Cache"); h != "miss" {
		t.Fatalf("first query cache header %q", h)
	}
	resp2, body2 := get()
	if h := resp2.Header.Get("X-Autosens-Cache"); h != "hit" {
		t.Fatalf("second query cache header %q", h)
	}
	// The cached body differs only in the "cached" field; curves must
	// match. Cheap check: both bodies contain the identical curve object.
	if !bytes.Contains(body2, []byte(`"curve"`)) || !bytes.Contains(body, []byte(`"curve"`)) {
		t.Fatalf("responses missing curve payload")
	}
}

// TestCoordinatorWindowedCacheBounded drives more distinct windows through
// a 3-node coordinator than live.MaxWindowedCache, as a dashboard asking
// for at=now does: the coordinator must retain at most that many windowed
// slots, and a window asked for again within the bound must stay a cache
// hit.
func TestCoordinatorWindowedCacheBounded(t *testing.T) {
	stream := genStream(7, 3000, timeutil.MillisPerDay)
	_, coord := newLocalCluster(t, 3, stream)
	key := live.AllSlices
	pinned := live.Window{From: 1, To: 12 * timeutil.MillisPerHour}
	if _, err := coord.QueryWindow(key, live.ModePlain, false, pinned); err != nil {
		t.Fatal(err)
	}
	distinct := live.MaxWindowedCache + live.MaxWindowedCache/2
	for i := 1; i <= distinct; i++ {
		from := timeutil.Millis(i) * timeutil.MillisPerMinute
		win := live.Window{From: from, To: from + 6*timeutil.MillisPerHour}
		if _, err := coord.QueryWindow(key, live.ModePlain, false, win); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if i%(live.MaxWindowedCache/4) != 0 {
			continue
		}
		res, err := coord.QueryWindow(key, live.ModePlain, false, pinned)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("pinned window missed the cache after %d other windows", i)
		}
	}
	if _, slots := coord.cache.Len(); slots > live.MaxWindowedCache {
		t.Fatalf("coordinator retains %d windowed slots after %d windows, bound %d",
			slots, distinct+1, live.MaxWindowedCache)
	}
}
