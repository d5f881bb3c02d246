package telemetry

import (
	"bytes"
	"testing"

	"autosens/internal/obs"
)

// TestMetricsCountInEveryRegistry pins that the ingest metrics are process
// wide: with two registries enabled, one encode counts in both, and
// enabling a registry again does not count it twice.
func TestMetricsCountInEveryRegistry(t *testing.T) {
	ingestMu.Lock()
	old, oldRegs := ingestPtr.Load(), ingestRegs
	ingestMu.Unlock()
	t.Cleanup(func() {
		ingestMu.Lock()
		defer ingestMu.Unlock()
		ingestPtr.Store(old)
		ingestRegs = oldRegs
	})
	a, b := obs.NewRegistry(), obs.NewRegistry()
	EnableMetrics(a)
	EnableMetrics(b)
	EnableMetrics(a)
	recs := sampleRecords()
	var buf bytes.Buffer
	w := NewWriter(&buf, JSONL)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*obs.Registry{"first": a, "second": b} {
		if n := reg.Counter("autosens_ingest_records_encoded_total", "").Value(); n != uint64(len(recs)) {
			t.Errorf("%s registry counted %d encoded records, want %d", name, n, len(recs))
		}
	}
}
