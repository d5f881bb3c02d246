package core

import (
	"testing"

	"autosens/internal/obs"
)

// isolateMetrics lets a test enable registries of its own and puts the
// process-wide metrics back as they were when it ends.
func isolateMetrics(t *testing.T) {
	t.Helper()
	metricsMu.Lock()
	old, oldRegs := metricsPtr.Load(), metricsRegs
	metricsMu.Unlock()
	t.Cleanup(func() {
		metricsMu.Lock()
		defer metricsMu.Unlock()
		metricsPtr.Store(old)
		metricsRegs = oldRegs
	})
}

// TestMetricsCountInEveryRegistry pins that the estimator's metrics are
// process wide: with two registries enabled, as two nodes in one process
// enable theirs, one estimate counts in both, and enabling a registry again
// does not count it twice.
func TestMetricsCountInEveryRegistry(t *testing.T) {
	isolateMetrics(t)
	a, b := obs.NewRegistry(), obs.NewRegistry()
	EnableMetrics(a)
	EnableMetrics(b)
	EnableMetrics(a)
	times, lats := tieColumns(3, 0, 48)
	if _, err := tieEstimator(t, 1).Finish(Request{Mode: ModeNormalized}, summaryOf(times, lats), nil); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*obs.Registry{"first": a, "second": b} {
		if n := reg.Counter("autosens_core_estimates_total", "").Value(); n != 1 {
			t.Errorf("%s registry counted %d estimates, want 1", name, n)
		}
		if n := reg.Histogram("autosens_core_estimate_duration_seconds", "", nil).Count(); n != 1 {
			t.Errorf("%s registry timed %d estimates, want 1", name, n)
		}
	}
}
