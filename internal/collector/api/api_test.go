package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWriteErrorRendersSchemaAndRetryAfter(t *testing.T) {
	rw := httptest.NewRecorder()
	WriteError(rw, http.StatusTooManyRequests, CodeQueueFull, "queue full", 1500*time.Millisecond)
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	// RFC 9110 Retry-After is whole seconds; fractional advice rounds UP
	// so clients never retry early.
	if ra := rw.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want 2", ra)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Err.Code != CodeQueueFull || er.Err.RetryAfterMS != 1500 {
		t.Fatalf("body %+v", er.Err)
	}
}

func TestWriteErrorOmitsRetryAfterWhenNoAdvice(t *testing.T) {
	rw := httptest.NewRecorder()
	WriteError(rw, http.StatusBadRequest, CodeBadRequest, "malformed", 0)
	if rw.Header().Get("Retry-After") != "" {
		t.Fatal("Retry-After set without advice")
	}
	if strings.Contains(rw.Body.String(), "retry_after_ms") {
		t.Fatalf("retry_after_ms serialized for zero advice: %s", rw.Body.String())
	}
}

func TestReadErrorRoundTrip(t *testing.T) {
	rw := httptest.NewRecorder()
	WriteError(rw, http.StatusServiceUnavailable, CodeSinkUnavailable, "sink down", 500*time.Millisecond)
	e := ReadError(rw.Result())
	if e.Code != CodeSinkUnavailable || e.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("decoded %+v", e)
	}
	if e.RetryAfterMS != 500 {
		t.Fatalf("retry advice %d ms, want 500", e.RetryAfterMS)
	}
	if !strings.Contains(e.Error(), CodeSinkUnavailable) {
		t.Fatalf("Error() = %q", e.Error())
	}
}

// TestReadErrorClassifiesForeignBodies pins the degradation path: a proxy
// or old server that answers with plain text still yields a typed error
// with a usable Code.
func TestReadErrorClassifiesForeignBodies(t *testing.T) {
	cases := []struct {
		status   int
		header   string
		code     string
		adviceMS int64
	}{
		{http.StatusTooManyRequests, "3", CodeQueueFull, 3000},
		{http.StatusBadGateway, "", CodeSinkUnavailable, 0},
		{http.StatusRequestEntityTooLarge, "", CodeTooLarge, 0},
		{http.StatusBadRequest, "", CodeBadRequest, 0},
		{http.StatusTooManyRequests, "soon", CodeQueueFull, 0}, // HTTP-date/garbage ignored
	}
	for _, tc := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.header != "" {
				w.Header().Set("Retry-After", tc.header)
			}
			http.Error(w, "<html>nope</html>", tc.status)
		}))
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		e := ReadError(resp)
		resp.Body.Close()
		ts.Close()
		if e.Code != tc.code || e.RetryAfterMS != tc.adviceMS {
			t.Fatalf("status %d: decoded %+v, want code %s advice %d",
				tc.status, e, tc.code, tc.adviceMS)
		}
	}
}
