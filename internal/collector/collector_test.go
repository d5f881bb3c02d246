package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func testRecord(i int) telemetry.Record {
	return telemetry.Record{
		Time:      timeutil.Millis(i * 100),
		Action:    telemetry.SelectMail,
		LatencyMS: 300 + float64(i),
		UserID:    uint64(i%10 + 1),
		UserType:  telemetry.Business,
	}
}

// newTestServer returns a collector server with an in-memory sink and its
// httptest wrapper.
func newTestServer(t *testing.T) (*Server, *bytes.Buffer, *httptest.Server) {
	t.Helper()
	return newTestServerCfg(t, ServerConfig{})
}

// newTestServerCfg builds a server around an in-memory JSONL sink with the
// given config (the Sink field is filled in here).
func newTestServerCfg(t *testing.T, cfg ServerConfig) (*Server, *bytes.Buffer, *httptest.Server) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Sink = NewWriterSink(telemetry.NewWriter(&buf, telemetry.JSONL))
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &buf, ts
}

func postBatch(t *testing.T, url string, batch []telemetry.Record) *http.Response {
	t.Helper()
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/beacons", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestServerAcceptsBatch(t *testing.T) {
	srv, buf, ts := newTestServer(t)
	batch := []telemetry.Record{testRecord(1), testRecord(2), testRecord(3)}
	resp := postBatch(t, ts.URL, batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 3 || br.Rejected != 0 {
		t.Fatalf("response %+v", br)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.NewReader(buf, telemetry.JSONL).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("sink has %d records", len(got))
	}
	for i := range got {
		if got[i] != batch[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestServerRejectsInvalidRecords(t *testing.T) {
	srv, _, ts := newTestServer(t)
	batch := []telemetry.Record{testRecord(1), {LatencyMS: -5}}
	resp := postBatch(t, ts.URL, batch)
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 1 || br.Rejected != 1 {
		t.Fatalf("response %+v", br)
	}
	_, accepted, rejected, _ := srv.Stats()
	if accepted != 1 || rejected != 1 {
		t.Fatalf("metrics %d/%d", accepted, rejected)
	}
}

func TestServerRejectsMalformedJSON(t *testing.T) {
	srv, _, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/beacons", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	_, _, _, bad := srv.Stats()
	if bad != 1 {
		t.Fatalf("bad requests = %d", bad)
	}
}

func TestServerRejectsWrongMethod(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/beacons")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestServerRejectsOversizedBatch(t *testing.T) {
	_, _, ts := newTestServerCfg(t, ServerConfig{MaxBatchRecords: 10})
	batch := make([]telemetry.Record, 11)
	for i := range batch {
		batch[i] = testRecord(i)
	}
	resp := postBatch(t, ts.URL, batch)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	postBatch(t, ts.URL, []telemetry.Record{testRecord(1)})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "autosens_collector_records_accepted_total 1") {
		t.Fatalf("metrics output:\n%s", body)
	}
}

func TestStartAndShutdownRealListener(t *testing.T) {
	var buf bytes.Buffer
	srv, err := NewServer(ServerConfig{Sink: NewWriterSink(telemetry.NewWriter(&buf, telemetry.JSONL))})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// failingWriter errors on every underlying write; records buffer inside
// telemetry.Writer until its 64 KiB buffer spills, which models a disk that
// dies mid-batch.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("disk gone")
}

func TestPartialBatchAccountingOnSinkFailure(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Sink:   NewWriterSink(telemetry.NewWriter(failingWriter{}, telemetry.JSONL)),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Big enough that the sink's buffer overflows and the write error
	// surfaces partway through the batch. The server must NOT ack: the v1
	// contract says a failed sink write is 503 sink_unavailable.
	batch := make([]telemetry.Record, 2000)
	for i := range batch {
		batch[i] = testRecord(i)
	}
	resp := postBatch(t, ts.URL, batch)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Err.Code != api.CodeSinkUnavailable {
		t.Fatalf("error code %q, want %q", er.Err.Code, api.CodeSinkUnavailable)
	}
	batches, accepted, _, _ := srv.Stats()
	if batches != 1 {
		t.Fatalf("batches = %d", batches)
	}
	if accepted == 0 || accepted >= uint64(len(batch)) {
		t.Fatalf("accepted = %d, want partial count in (0, %d)", accepted, len(batch))
	}
	if got := srv.Registry().Counter("autosens_collector_sink_failures_total", "").Value(); got != 1 {
		t.Fatalf("sink_failures_total = %d", got)
	}
	h := srv.Health()
	if h.Status != "degraded" {
		t.Fatalf("health after sink failure: %+v", h)
	}
}

func TestServeErrorSurfacesThroughShutdown(t *testing.T) {
	var buf bytes.Buffer
	srv, err := NewServer(ServerConfig{
		Sink:   NewWriterSink(telemetry.NewWriter(&buf, telemetry.JSONL)),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Kill the listener out from under Serve: the accept loop fails with
	// something other than ErrServerClosed.
	srv.ln.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.ServeError() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.ServeError() == nil {
		t.Fatal("serve error never recorded")
	}
	if got := srv.Registry().Counter("autosens_collector_serve_errors_total", "").Value(); got != 1 {
		t.Fatalf("serve_errors_total = %d", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown swallowed the serve error")
	}
}

// TestMetricsEndpointPrometheusFormat is the exposition golden test over
// real ingest traffic: known batches in, then the scrape must contain the
// expected _total counters and a well-formed cumulative latency histogram
// ending at le="+Inf".
func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	_, _, ts := newTestServer(t)
	postBatch(t, ts.URL, []telemetry.Record{testRecord(1), testRecord(2)})
	postBatch(t, ts.URL, []telemetry.Record{testRecord(3), {LatencyMS: -5}})
	resp, err := http.Post(ts.URL+"/v1/beacons", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"autosens_collector_batches_total 2",
		"autosens_collector_records_accepted_total 3",
		"autosens_collector_records_rejected_total 1",
		"autosens_collector_bad_requests_total 1",
		"autosens_collector_sink_failures_total 0",
		"# TYPE autosens_collector_ingest_duration_seconds histogram",
		"# TYPE autosens_collector_batch_records histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}

	// Structural checks: every sample line parses, every counter ends in
	// _total, buckets are cumulative and close with le="+Inf" == _count.
	lastCum := map[string]float64{}
	infBucket := map[string]float64{}
	histCount := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# TYPE ") {
				parts := strings.Fields(line)
				if parts[3] == "counter" && !strings.HasSuffix(parts[2], "_total") {
					t.Fatalf("counter %q not suffixed _total", parts[2])
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := fields[0]
		switch {
		case strings.Contains(name, "_bucket{"):
			series := name[:strings.Index(name, "_bucket{")]
			if v < lastCum[series] {
				t.Fatalf("non-cumulative bucket at %q", line)
			}
			lastCum[series] = v
			if strings.Contains(name, `le="+Inf"`) {
				infBucket[series] = v
			}
		case strings.HasSuffix(name, "_count"):
			histCount[strings.TrimSuffix(name, "_count")] = v
		}
	}
	if len(histCount) == 0 {
		t.Fatal("no histograms in scrape")
	}
	for series, n := range histCount {
		inf, ok := infBucket[series]
		if !ok {
			t.Fatalf(`histogram %s missing le="+Inf"`, series)
		}
		if inf != n {
			t.Fatalf("histogram %s: +Inf %v != count %v", series, inf, n)
		}
	}
	if infBucket["autosens_collector_batch_records"] != 2 {
		t.Fatalf("batch_records histogram counted %v batches, want 2",
			infBucket["autosens_collector_batch_records"])
	}
}
