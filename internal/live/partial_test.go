package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/timeutil"
)

// finishPartial runs the batch finisher over a partial's columns — what a
// coordinator does after merging — and returns the curve's canonical
// JSON.
func finishPartial(t *testing.T, p *api.Partial, opts core.Options) []byte {
	t.Helper()
	est, err := core.NewEstimator(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.Summary{Columns: core.Columns{Times: p.Times, Lats: p.Lats, Seqs: p.Seqs}, B: p.Hist}
	c, err := est.Finish(core.Request{}, s, &core.Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPartialFinishesToQueryCurve pins the partial's core contract: a
// single node's partial, finished externally, reproduces the node's own
// query byte for byte. Version carries the stamp read before gathering.
func TestPartialFinishesToQueryCurve(t *testing.T) {
	stream := genStream(3, 9000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)
	for _, key := range goldenKeys {
		p, err := e.PartialWindow(key, Window{})
		if err != nil {
			t.Fatalf("partial %s: %v", key, err)
		}
		if p.Version != e.SliceVersion(key) {
			t.Fatalf("%s: partial version %d != slice version %d",
				key, p.Version, e.SliceVersion(key))
		}
		want, err := e.Query(key, ModePlain, false)
		if err != nil {
			t.Fatalf("query %s: %v", key, err)
		}
		if got := finishPartial(t, p, testOptions()); !bytes.Equal(got, want.Curve) {
			t.Fatalf("%s: externally finished partial differs from local query", key)
		}
		if len(p.Times) != len(p.Lats) || len(p.Times) != len(p.Seqs) {
			t.Fatalf("%s: ragged partial columns", key)
		}
	}
}

// TestPartialEmptySlice: a node holding none of a slice's records exports
// an empty partial with the engine's binning, not an error — the merge
// needs the histogram shape even from empty nodes.
func TestPartialEmptySlice(t *testing.T) {
	e := newTestEngine(t)
	p, err := e.PartialWindow(AllSlices, Window{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || p.Hist == nil {
		t.Fatalf("empty engine partial: len %d, hist %v", p.Len(), p.Hist)
	}
}

// TestPartialsHandler covers the wire surface: binary partial round-trip,
// the versions=1 staleness poll, and the error paths.
func TestPartialsHandler(t *testing.T) {
	stream := genStream(5, 4000, timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)
	mux := http.NewServeMux()
	mux.Handle(api.PathPartials, e.PartialsHandler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + api.PathPartials + "?slice=action:Search")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != api.ContentTypePartial {
		t.Fatalf("status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	got, err := api.DecodePartial(body)
	if err != nil {
		t.Fatal(err)
	}
	key, err := ParseSliceKey("action:Search")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.PartialWindow(key, Window{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(api.AppendPartial(nil, got), api.AppendPartial(nil, want)) {
		t.Fatal("served partial differs from local export")
	}

	resp, err = http.Get(ts.URL + api.PathPartials + "?slice=all&versions=1")
	if err != nil {
		t.Fatal(err)
	}
	var vr api.PartialVersionResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vr.Version != e.SliceVersion(AllSlices) {
		t.Fatalf("version poll %d != slice version %d", vr.Version, e.SliceVersion(AllSlices))
	}

	resp, err = http.Get(ts.URL + api.PathPartials + "?slice=action:NoSuchAction")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad slice: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+api.PathPartials, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", resp.StatusCode)
	}
}

// nullRW is a ResponseWriter that costs nothing per request, so the alloc
// test below measures the handler, not the recorder.
type nullRW struct{ h http.Header }

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullRW) WriteHeader(int)             {}

// TestCurvesHandlerCachedAllocs pins the pooled response encoding: a
// cached /v1/curves hit must not allocate per-byte-of-body state (buffer
// or encoder) per request. The bound is a small constant — URL query
// parsing and the result copy — and must not move with curve size, which
// the pooled buffer absorbs after warmup.
func TestCurvesHandlerCachedAllocs(t *testing.T) {
	stream := genStream(9, 30000, 2*timeutil.MillisPerDay)
	e := newTestEngine(t)
	e.Append(stream)
	h := NewCurvesHandlerWith(e, CurvesHandlerOptions{})
	req := httptest.NewRequest(http.MethodGet, api.PathCurves+"?slice=all", nil)
	w := &nullRW{h: http.Header{}}
	h.ServeHTTP(w, req) // prime the cache and the pools

	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	// Measured ~10 on go1.22 (query parse, header values, result copy).
	// The ceiling leaves slack for runtime drift but fails if anyone
	// reintroduces a per-request encoder or unpooled body buffer.
	if allocs > 20 {
		t.Fatalf("cached curves request allocates %.0f times, want <= 20", allocs)
	}
}
