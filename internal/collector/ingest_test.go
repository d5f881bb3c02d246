package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"autosens/internal/telemetry"
)

func encodeTBIN(t testing.TB, batch []telemetry.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf, telemetry.TBIN)
	if err := w.WriteAll(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServerAcceptsTBINBatch(t *testing.T) {
	srv, buf, ts := newTestServer(t)
	batch := []telemetry.Record{testRecord(1), testRecord(2), testRecord(3)}
	resp, err := http.Post(ts.URL+"/v1/beacons", ContentTypeTBIN, bytes.NewReader(encodeTBIN(t, batch)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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
	if len(got) != len(batch) {
		t.Fatalf("sink has %d records", len(got))
	}
	for i := range got {
		if got[i] != batch[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestServerRejectsCorruptTBIN(t *testing.T) {
	_, _, ts := newTestServer(t)
	clean := encodeTBIN(t, []telemetry.Record{testRecord(1), testRecord(2)})
	mut := bytes.Clone(clean)
	mut[1] ^= 0xff // break the magic
	resp, err := http.Post(ts.URL+"/v1/beacons", ContentTypeTBIN, bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestStreamingDecodeEdgeCases pins behaviors the streaming decoder must
// share with the json.Unmarshal implementation it replaced.
func TestStreamingDecodeEdgeCases(t *testing.T) {
	_, _, ts := newTestServer(t)
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"empty array", `[]`, http.StatusAccepted},
		{"null batch", `null`, http.StatusAccepted},
		{"whitespace around array", " [ ] \n", http.StatusAccepted},
		{"object not array", `{"t":1}`, http.StatusBadRequest},
		{"truncated array", `[{"t":1,"a":0,"l":1,"u":1,"ut":0,"tz":0}`, http.StatusBadRequest},
		{"trailing garbage", `[]x`, http.StatusBadRequest},
		{"null after null", `null null`, http.StatusBadRequest},
		{"scalar", `42`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/beacons", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.status)
			}
		})
	}
}

// benchmarkIngest drives the beacon handler directly (no network) with a
// pre-encoded batch.
func benchmarkIngest(b *testing.B, contentType string, body []byte, records int) {
	srv, err := NewServer(ServerConfig{Sink: NewWriterSink(telemetry.NewWriter(io.Discard, telemetry.JSONL))})
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/beacons", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, req)
		if rw.Code != http.StatusAccepted {
			b.Fatalf("status %d: %s", rw.Code, rw.Body.Bytes())
		}
	}
	_, accepted, _, _ := srv.Stats()
	if accepted != uint64(records)*uint64(b.N) {
		b.Fatalf("accepted %d records, want %d", accepted, records*b.N)
	}
}

func benchBatch(b *testing.B, n int) []telemetry.Record {
	b.Helper()
	batch := make([]telemetry.Record, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, testRecord(i+1))
	}
	return batch
}

func BenchmarkIngestJSON(b *testing.B) {
	batch := benchBatch(b, 1000)
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkIngest(b, "application/json", body, len(batch))
}

func BenchmarkIngestTBIN(b *testing.B) {
	batch := benchBatch(b, 1000)
	benchmarkIngest(b, ContentTypeTBIN, encodeTBIN(b, batch), len(batch))
}

// TestConcurrentTBINBeaconsShareReaders posts valid and invalid TBIN bodies
// from several goroutines at once, so pooled readers pass between handlers
// mid-flight; every response must be the one its own body earns, and the
// sink must hold exactly the accepted records.
func TestConcurrentTBINBeaconsShareReaders(t *testing.T) {
	srv, buf, ts := newTestServerCfg(t, ServerConfig{MaxBatchRecords: 50})
	valid := tbinBody(t, testRecords(40), 15)
	invalid := negateLatencyAt(t, 40, 30, 15)
	const workers, posts = 6, 20
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for i := 0; i < posts; i++ {
				body, want := valid, http.StatusAccepted
				if (g+i)%3 == 0 {
					body, want = invalid, http.StatusBadRequest
				}
				resp, err := http.Post(ts.URL+"/v1/beacons", ContentTypeTBIN, bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
				resp.Body.Close()
				if resp.StatusCode != want {
					errs <- fmt.Errorf("worker %d post %d: status %d, want %d", g, i, resp.StatusCode, want)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.NewReader(buf, telemetry.JSONL).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for g := 0; g < workers; g++ {
		for i := 0; i < posts; i++ {
			if (g+i)%3 != 0 {
				accepted += 40
			}
		}
	}
	if len(got) != accepted {
		t.Fatalf("sink holds %d records, want %d", len(got), accepted)
	}
}
