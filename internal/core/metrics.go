package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/obs"
)

// coreMetrics are the estimator's operational metrics. They are process
// wide (estimators are cheap, short-lived values; a per-estimator registry
// would fragment the numbers): every registry EnableMetrics was given
// counts every estimation in the process from then on, so two nodes in one
// process both report the process's estimates. Until EnableMetrics installs
// a registry they are disabled, and library users who never call it pay one
// atomic pointer load per estimate.
type coreMetrics struct {
	estimates    obs.Counters
	estimateDur  obs.Histograms
	replicates   obs.Counters
	replicateErr obs.Counters
	replicateDur obs.Histograms
	bootstrapDur obs.Histograms
	workers      obs.Gauges
	keyFallbacks obs.Counters
}

var (
	metricsPtr  atomic.Pointer[coreMetrics]
	metricsMu   sync.Mutex // serializes EnableMetrics
	metricsRegs []*obs.Registry
)

// EnableMetrics registers the estimator's autosens_core_* metrics on reg
// and starts recording into them, beside every registry enabled before it.
// Enabling a registry twice changes nothing.
func EnableMetrics(reg *obs.Registry) {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if slices.Contains(metricsRegs, reg) {
		return
	}
	metricsRegs = append(metricsRegs, reg)
	var m coreMetrics
	if old := metricsPtr.Load(); old != nil {
		m = *old
	}
	// Clip, so that no reader's slice shares the array appended to.
	m.estimates = append(slices.Clip(m.estimates), reg.Counter("autosens_core_estimates_total",
		"NLP curve estimations started (all estimator levels)"))
	m.estimateDur = append(slices.Clip(m.estimateDur), reg.Histogram("autosens_core_estimate_duration_seconds",
		"wall time of one curve estimation", obs.DefLatencyBuckets()))
	m.replicates = append(slices.Clip(m.replicates), reg.Counter("autosens_core_bootstrap_replicates_total",
		"bootstrap replicates estimated"))
	m.replicateErr = append(slices.Clip(m.replicateErr), reg.Counter("autosens_core_bootstrap_replicate_failures_total",
		"bootstrap replicates skipped as degenerate"))
	m.replicateDur = append(slices.Clip(m.replicateDur), reg.Histogram("autosens_core_bootstrap_replicate_duration_seconds",
		"wall time of one bootstrap replicate", obs.DefLatencyBuckets()))
	m.bootstrapDur = append(slices.Clip(m.bootstrapDur), reg.Histogram("autosens_core_bootstrap_duration_seconds",
		"wall time of one full bootstrap (all replicates)", obs.DefLatencyBuckets()))
	m.workers = append(slices.Clip(m.workers), reg.Gauge("autosens_core_bootstrap_workers",
		"worker count used by the most recent bootstrap"))
	m.keyFallbacks = append(slices.Clip(m.keyFallbacks), reg.Counter("autosens_core_key_stream_fallbacks_total",
		"chunked draw-key schedules redrawn serially after a rejected raw word (expect ~0)"))
	metricsPtr.Store(&m)
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
