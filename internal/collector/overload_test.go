package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autosens/internal/telemetry"
)

// TestOverloadShedsButLosesNothing is the backpressure acceptance test at
// the HTTP edge: a sink too slow for the offered load forces 429 shedding,
// every 429 carries Retry-After, and senders that re-post shed batches get
// every record into the sink exactly once.
func TestOverloadShedsButLosesNothing(t *testing.T) {
	sink := newGatedSink()
	srv, err := NewServer(ServerConfig{
		Sink:       sink,
		QueueDepth: 1,
		RetryAfter: 5 * time.Millisecond,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the sink shut until shedding has been observed, then open it so
	// the re-posts can drain.
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if _, _, shed := srv.QueueStats(); shed > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(sink.gate)
	}()

	const senders, perSender, batchSize = 4, 100, 10
	var shed, shedWithoutAdvice atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for lo := 0; lo < perSender; lo += batchSize {
				batch := make([]telemetry.Record, batchSize)
				for i := range batch {
					batch[i] = testRecord(s*perSender + lo + i)
				}
				body, err := json.Marshal(batch)
				if err != nil {
					t.Error(err)
					return
				}
				for {
					resp, err := http.Post(ts.URL+"/v1/beacons", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("sender %d: %v", s, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusAccepted {
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("sender %d: status %d", s, resp.StatusCode)
						return
					}
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						shedWithoutAdvice.Add(1)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(s)
	}
	wg.Wait()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	if shed.Load() == 0 {
		t.Fatal("overload never shed a batch; the test exercised nothing")
	}
	if n := shedWithoutAdvice.Load(); n != 0 {
		t.Fatalf("%d of %d 429 responses carried no Retry-After", n, shed.Load())
	}
	seen := map[telemetry.Record]int{}
	for _, r := range sink.records() {
		seen[r]++
	}
	for i := 0; i < senders*perSender; i++ {
		if n := seen[testRecord(i)]; n != 1 {
			t.Fatalf("record %d reached the sink %d times, want exactly 1", i, n)
		}
	}
	if len(seen) != senders*perSender {
		t.Fatalf("sink holds %d distinct records, want %d", len(seen), senders*perSender)
	}
}
