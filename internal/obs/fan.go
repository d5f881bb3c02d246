package obs

import "time"

// Counters, Gauges and Histograms fan one observation out to the same
// metric in several registries: process-wide metrics that every registry
// enabling them reports in full (core.EnableMetrics, telemetry.EnableMetrics).

// Counters is one counter kept in several registries.
type Counters []*Counter

// Inc adds one to every counter.
func (cs Counters) Inc() { cs.Add(1) }

// Add increases every counter by n.
func (cs Counters) Add(n uint64) {
	for _, c := range cs {
		c.Add(n)
	}
}

// Gauges is one gauge kept in several registries.
type Gauges []*Gauge

// Set stores v in every gauge.
func (gs Gauges) Set(v float64) {
	for _, g := range gs {
		g.Set(v)
	}
}

// Histograms is one histogram kept in several registries.
type Histograms []*Histogram

// ObserveSince records the elapsed time since start, in seconds, once in
// every histogram.
func (hs Histograms) ObserveSince(start time.Time) {
	d := time.Since(start).Seconds()
	for _, h := range hs {
		h.Observe(d)
	}
}
