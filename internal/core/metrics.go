package core

import (
	"sync/atomic"
	"time"

	"autosens/internal/obs"
)

// coreMetrics are the estimator's operational metrics. They are process
// global (estimators are cheap, short-lived values; a per-estimator
// registry would fragment the numbers) and disabled until EnableMetrics
// installs a registry, so library users who never call it pay one atomic
// pointer load per estimate.
type coreMetrics struct {
	estimates    *obs.Counter
	estimateDur  *obs.Histogram
	replicates   *obs.Counter
	replicateErr *obs.Counter
	replicateDur *obs.Histogram
	bootstrapDur *obs.Histogram
	workers      *obs.Gauge
	keyFallbacks *obs.Counter
}

var metricsPtr atomic.Pointer[coreMetrics]

// EnableMetrics registers the estimator's autosens_core_* metrics on reg
// and starts recording into them. Subsequent calls switch recording to the
// new registry.
func EnableMetrics(reg *obs.Registry) {
	m := &coreMetrics{
		estimates: reg.Counter("autosens_core_estimates_total",
			"NLP curve estimations started (all estimator levels)"),
		estimateDur: reg.Histogram("autosens_core_estimate_duration_seconds",
			"wall time of one curve estimation", obs.DefLatencyBuckets()),
		replicates: reg.Counter("autosens_core_bootstrap_replicates_total",
			"bootstrap replicates estimated"),
		replicateErr: reg.Counter("autosens_core_bootstrap_replicate_failures_total",
			"bootstrap replicates skipped as degenerate"),
		replicateDur: reg.Histogram("autosens_core_bootstrap_replicate_duration_seconds",
			"wall time of one bootstrap replicate", obs.DefLatencyBuckets()),
		bootstrapDur: reg.Histogram("autosens_core_bootstrap_duration_seconds",
			"wall time of one full bootstrap (all replicates)", obs.DefLatencyBuckets()),
		workers: reg.Gauge("autosens_core_bootstrap_workers",
			"worker count used by the most recent bootstrap"),
		keyFallbacks: reg.Counter("autosens_core_key_stream_fallbacks_total",
			"chunked draw-key schedules redrawn serially after a rejected raw word (expect ~0)"),
	}
	metricsPtr.Store(m)
}

// getMetrics returns the active metrics, or nil when disabled.
func getMetrics() *coreMetrics { return metricsPtr.Load() }

// observeEstimate records one estimation start/duration pair.
func observeEstimate(start time.Time) {
	if m := getMetrics(); m != nil {
		m.estimates.Inc()
		m.estimateDur.ObserveSince(start)
	}
}
