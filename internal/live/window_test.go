package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/timeutil"
)

// TestCurvesHandlerWindowContract pins the windowed half of the
// /v1/curves v1 contract: parameter validation with typed error codes,
// retention bounding, lower-bound clamping to the cold tier's oldest
// retained record, the effective-window echo — and that a request with
// no window parameters is byte-identical to one served by a handler
// built without any window options.
func TestCurvesHandlerWindowContract(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	stream := genStream(9, 6000, horizon)
	e := newTestEngine(t)
	e.Append(stream)

	// A fixed "now" two days in, plus a cold floor a day in, make every
	// expected bound deterministic. The floor sits inside a 30h window
	// but outside a 12h one, so exactly one of the queries below clamps.
	now := time.UnixMilli(int64(horizon))
	oldest := horizon / 2
	opts := CurvesHandlerOptions{
		Retention:      36 * time.Hour,
		OldestRetained: func() (timeutil.Millis, bool) { return oldest, true },
		Now:            func() time.Time { return now },
	}
	srv := httptest.NewServer(NewCurvesHandlerWith(e, opts))
	defer srv.Close()
	plain := httptest.NewServer(NewCurvesHandlerWith(e, CurvesHandlerOptions{}))
	defer plain.Close()

	get := func(srvURL, query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srvURL + query)
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
	wantErr := func(query, code string) {
		t.Helper()
		resp, body := get(srv.URL, query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", query, resp.StatusCode, body)
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: undecodable error body %q", query, body)
		}
		if er.Err.Code != code {
			t.Fatalf("%s: code %q, want %q", query, er.Err.Code, code)
		}
	}

	// No window parameters: byte-identical to the optionless handler.
	// Prime the shared engine's cache first so both reads are cache hits
	// and the cached flag can't differ.
	get(srv.URL, "?slice=all&mode=plain")
	_, got := get(srv.URL, "?slice=all&mode=plain")
	_, want := get(plain.URL, "?slice=all&mode=plain")
	if !bytes.Equal(got, want) {
		t.Fatal("no-param response differs between windowed and plain handlers")
	}
	var noWin map[string]any
	if err := json.Unmarshal(got, &noWin); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"window_ms", "window_from_ms", "window_to_ms"} {
		if _, present := noWin[k]; present {
			t.Fatalf("unwindowed response leaked %s", k)
		}
	}

	// Typed validation errors.
	wantErr("?slice=all&window=banana", api.CodeInvalidWindow)
	wantErr("?slice=all&window=-5m", api.CodeInvalidWindow)
	wantErr("?slice=all&window=0s", api.CodeInvalidWindow)
	wantErr("?slice=all&at=2026-01-02T15:04:05Z", api.CodeInvalidWindow)
	wantErr("?slice=all&window=24h&at=not-a-time", api.CodeInvalidWindow)
	wantErr("?slice=all&window=48h", api.CodeWindowExceedsRetention)

	// A served window echoes its effective half-open bounds and matches
	// the engine's windowed query bit for bit.
	resp, body := get(srv.URL, "?slice=all&window=12h")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed query: status %d (%s)", resp.StatusCode, body)
	}
	var cr api.CurvesResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	wantWin := Window{From: horizon - 12*timeutil.MillisPerHour, To: horizon}
	if cr.WindowFromMS != int64(wantWin.From) || cr.WindowToMS != int64(wantWin.To) ||
		cr.WindowMS != int64(wantWin.To-wantWin.From) {
		t.Fatalf("window echo (%d, %d, %d), want [%d, %d)",
			cr.WindowMS, cr.WindowFromMS, cr.WindowToMS, wantWin.From, wantWin.To)
	}
	res, err := e.QueryWindow(AllSlices, ModePlain, false, wantWin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cr.Curve, res.Curve) {
		t.Fatal("handler curve differs from QueryWindow")
	}
	if cr.Records != res.Records {
		t.Fatalf("handler records %d, want %d", cr.Records, res.Records)
	}

	// A window reaching past the cold floor is clamped up to it, and the
	// echo says so rather than claiming coverage retention lost.
	resp, body = get(srv.URL, "?slice=all&window=30h")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped query: status %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.WindowFromMS != int64(oldest) {
		t.Fatalf("lower bound %d, want clamp to oldest retained %d", cr.WindowFromMS, oldest)
	}

	// at= anchors the window end instead of now.
	anchor := 3 * horizon / 4
	at := time.UnixMilli(int64(anchor)).UTC().Format(time.RFC3339)
	resp, body = get(srv.URL, "?slice=all&window=6h&at="+at)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-anchored query: status %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.WindowToMS != int64(anchor) {
		t.Fatalf("at-anchored upper bound %d, want %d", cr.WindowToMS, anchor)
	}
}

// TestQueryWindowMatchesQueryOnFullCoverage: on a hot-only engine, a
// window covering every record must produce the same curve bytes as the
// unwindowed query — the windowed path re-estimates over clipped views,
// and the clip of everything is everything.
func TestQueryWindowMatchesQueryOnFullCoverage(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	stream := genStream(15, 8000, horizon)
	e := newTestEngine(t)
	e.Append(stream)

	for _, key := range goldenKeys {
		for _, mode := range []Mode{ModePlain, ModeNormalized} {
			want, err := e.Query(key, mode, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.QueryWindow(key, mode, false, Window{From: 0, To: horizon + 1})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Curve, got.Curve) || want.Records != got.Records {
				t.Fatalf("%s/%s: full-coverage window differs from unwindowed query", key, mode)
			}
		}
	}

	// And a genuinely clipped window differs (the clip is real).
	full, err := e.Query(AllSlices, ModePlain, false)
	if err != nil {
		t.Fatal(err)
	}
	clipped, err := e.QueryWindow(AllSlices, ModePlain, false, Window{From: horizon / 2})
	if err != nil {
		t.Fatal(err)
	}
	if clipped.Records >= full.Records {
		t.Fatalf("clipped window kept %d of %d records", clipped.Records, full.Records)
	}
}

// TestPartialsHandlerWindowParams covers the cluster-internal from_ms/
// to_ms form and its validation.
func TestPartialsHandlerWindowParams(t *testing.T) {
	horizon := timeutil.MillisPerDay
	stream := genStream(23, 3000, horizon)
	e := newTestEngine(t)
	e.Append(stream)
	srv := httptest.NewServer(e.PartialsHandler())
	defer srv.Close()

	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + query)
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

	from, to := horizon/4, 3*horizon/4
	resp, body := get(fmt.Sprintf("?slice=all&from_ms=%d&to_ms=%d", from, to))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed partial: status %d (%s)", resp.StatusCode, body)
	}
	p, err := api.DecodePartial(body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.PartialWindow(AllSlices, Window{From: from, To: to})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Windowed || p.WindowFrom != from || p.WindowTo != to || len(p.Times) != len(want.Times) {
		t.Fatalf("windowed partial mismatch: windowed=%v [%d,%d) rows=%d want %d",
			p.Windowed, p.WindowFrom, p.WindowTo, len(p.Times), len(want.Times))
	}

	for _, q := range []string{
		"?slice=all&from_ms=abc",
		"?slice=all&from_ms=-1",
		"?slice=all&from_ms=100&to_ms=50",
	} {
		resp, body := get(q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", q, resp.StatusCode, body)
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Err.Code != api.CodeInvalidWindow {
			t.Fatalf("%s: error code %q, want %q", q, er.Err.Code, api.CodeInvalidWindow)
		}
	}

	// No window parameters: byte-identical to the unwindowed partial wire.
	_, body = get("?slice=all")
	wantP, err := e.PartialWindow(AllSlices, Window{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, api.AppendPartial(nil, wantP)) {
		t.Fatal("no-param partial differs from unwindowed Partial bytes")
	}
}
