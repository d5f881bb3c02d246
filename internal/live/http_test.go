package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/timeutil"
)

// encoderBody is what json.Encoder — the curves handler's encoder before it
// wrote the cached curve bytes verbatim — writes for v.
func encoderBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCurvesBodiesMatchEncoder pins the served /v1/curves bodies byte for
// byte, trailing newline included, to json.Encoder over the same response:
// cache miss and hit, plain and normalized, ci=1, windowed, and the typed
// errors.
func TestCurvesBodiesMatchEncoder(t *testing.T) {
	e := newTestEngine(t)
	e.Append(genStream(9, 6000, 2*timeutil.MillisPerDay))
	srv := httptest.NewServer(NewCurvesHandlerWith(e, CurvesHandlerOptions{}))
	defer srv.Close()
	at := "&window=24h&at=" + time.UnixMilli(int64(36*timeutil.MillisPerHour)).UTC().Format(time.RFC3339)

	for _, tc := range []struct {
		query, cache string
		status       int
		windowed     bool
	}{
		{"?slice=action:SelectMail", "miss", 200, false},
		{"?slice=action:SelectMail", "hit", 200, false},
		{"?slice=all&mode=normalized", "miss", 200, false},
		{"?slice=usertype:business&ci=1", "miss", 200, false},
		{"?slice=usertype:business&ci=1", "hit", 200, false},
		{"?slice=action:Search" + at, "miss", 200, true},
		{"?slice=action:Search" + at, "hit", 200, true},
		{"?slice=action:Search&ci=1" + at, "miss", 200, true},
		{"?slice=bogus:x", "", 400, false},
		{"?slice=all&window=bogus", "", 400, false},
		{"?slice=action:SelectMail,usertype:business,period:8am-2pm&window=1h&at=1970-01-01T00:30:00Z", "", 404, true},
	} {
		resp, err := http.Get(srv.URL + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || resp.Header.Get("X-Autosens-Cache") != tc.cache {
			t.Fatalf("%s: %d cache=%q, want %d cache=%q: %s", tc.query, resp.StatusCode,
				resp.Header.Get("X-Autosens-Cache"), tc.status, tc.cache, body)
		}
		var want []byte
		if tc.status == 200 {
			var cr api.CurvesResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				t.Fatal(err)
			}
			if cr.Cached != (tc.cache == "hit") || (cr.WindowMS != 0) != tc.windowed {
				t.Fatalf("%s: cached=%v window_ms=%d", tc.query, cr.Cached, cr.WindowMS)
			}
			want = encoderBody(t, cr)
		} else {
			var er api.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatal(err)
			}
			want = encoderBody(t, er)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: body differs from the encoder's:\n got %q\nwant %q", tc.query, body, want)
		}
	}
}

// TestAppendCurvesJSON pins the envelope writer to json.Encoder on the
// values the handler never produces but the contract allows: strings that
// need escaping, a missing curve, each window field alone.
func TestAppendCurvesJSON(t *testing.T) {
	curve := json.RawMessage(`{"nlp":[1,0.5,null],"valid":[true,false,false]}`)
	for _, r := range []api.CurvesResponse{
		{},
		{Slice: "all", Mode: "plain", Epoch: 1, Version: 2, Records: 3, Cached: true, Curve: curve},
		{Slice: `a<b>&"c"\d` + "\u2028é\x01", Mode: "normalized", Curve: curve, CI: json.RawMessage(`{"lower":[null],"upper":[2],"replicates":40}`)},
		{Slice: "all", Curve: curve, WindowMS: 86_400_000},
		{Slice: "all", Curve: curve, WindowFromMS: -5},
		{Slice: "all", Curve: curve, WindowToMS: 1 << 40},
		{Slice: "all", Epoch: 1<<64 - 1, Records: -1, Curve: curve, WindowMS: 1, WindowFromMS: 2, WindowToMS: 3},
	} {
		if got, want := appendCurvesJSON([]byte("prefix"), &r), append([]byte("prefix"), encoderBody(t, r)...); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %q\nwant %q", r, got, want)
		}
	}
}
