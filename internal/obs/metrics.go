// Package obs is the repo's dependency-free observability substrate:
// a metrics registry (counters, gauges, fixed-bucket histograms) with an
// atomic hot path and Prometheus text exposition, a lightweight stage-span
// tracer, and an admin HTTP surface (metrics + health + pprof).
//
// It exists so that a system whose subject is latency telemetry can be
// pointed at itself: the collector's ingest path exports latency
// histograms in the same shape AutoSens consumes, and every estimator
// stage reports where the wall-clock time of an analysis went.
//
// Design constraints, in order: (1) stdlib only, (2) the increment/observe
// hot path must be a handful of atomic ops with no allocation and no lock,
// (3) exposition is Prometheus text format 0.0.4 so any scraper works.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use, but counters should normally be obtained from a Registry so they are
// exported.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; lock-free).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// sense: bucket i counts observations <= upper[i], with an implicit +Inf
// bucket at the end. Observe is lock-free.
type Histogram struct {
	upper   []float64 // strictly increasing upper bounds, +Inf excluded
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(buckets []float64) (*Histogram, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket")
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	for i, b := range upper {
		if math.IsNaN(b) {
			return nil, fmt.Errorf("obs: NaN bucket bound")
		}
		if i > 0 && b <= upper[i-1] {
			return nil, fmt.Errorf("obs: bucket bounds not strictly increasing at %v", b)
		}
	}
	// Drop a trailing +Inf: it is implicit.
	if math.IsInf(upper[len(upper)-1], +1) {
		upper = upper[:len(upper)-1]
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefLatencyBuckets covers an HTTP handler's latency range in seconds,
// from 100µs to 10s.
func DefLatencyBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// DefSizeBuckets covers batch/record-count distributions from 1 to 10k.
func DefSizeBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// DefBytesBuckets covers payload/frame sizes from 256 B to 16 MiB.
func DefBytesBuckets() []float64 {
	return []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

type metric struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	gaugeFunc  func() float64
	hist       *Histogram
}

// Registry holds named metrics and renders them for scraping. Metric
// lookup/creation takes a lock; the returned Counter/Gauge/Histogram
// handles are lock-free, so callers should hold on to them rather than
// re-resolving names per event.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup returns the existing metric under name after checking its kind, or
// nil if the name is free. Mis-registrations (bad name, kind clash) panic:
// they are programmer errors on a code path that runs once at startup.
func (r *Registry) lookup(name string, kind metricKind) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.kind))
		}
		return m
	}
	return nil
}

// Counter returns the counter registered under name, creating it if needed.
// By Prometheus convention counter names should end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kindCounter); m != nil {
		return m.counter
	}
	m := &metric{name: name, help: help, kind: kindCounter, counter: &Counter{}}
	r.metrics[name] = m
	return m.counter
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kindGauge); m != nil {
		return m.gauge
	}
	m := &metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}
	r.metrics[name] = m
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering a name replaces its function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kindGaugeFunc); m != nil {
		m.gaugeFunc = fn
		return
	}
	r.metrics[name] = &metric{name: name, help: help, kind: kindGaugeFunc, gaugeFunc: fn}
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed (a trailing +Inf is implicit).
// Re-registration ignores the buckets argument and returns the original.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kindHistogram); m != nil {
		return m.hist
	}
	h, err := newHistogram(buckets)
	if err != nil {
		panic(err)
	}
	r.metrics[name] = &metric{name: name, help: help, kind: kindHistogram, hist: h}
	return h
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	UpperBound      float64 // +Inf for the last bucket
	CumulativeCount uint64
}

// MetricSnapshot is a point-in-time reading of one metric.
type MetricSnapshot struct {
	Name string
	Help string
	Kind string // counter, gauge, histogram

	// Value holds counter and gauge readings.
	Value float64

	// Count, Sum and Buckets hold histogram readings.
	Count   uint64
	Sum     float64
	Buckets []BucketSnapshot
}

// Snapshot reads every metric, sorted by name. Counters and histograms are
// read without stopping writers, so a snapshot taken under load is a
// consistent-enough monotone view, not an atomic cut.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.RLock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Help: m.help, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.counter.Value())
		case kindGauge:
			s.Value = m.gauge.Value()
		case kindGaugeFunc:
			s.Value = m.gaugeFunc()
		case kindHistogram:
			h := m.hist
			s.Sum = h.Sum()
			cum := uint64(0)
			s.Buckets = make([]BucketSnapshot, len(h.counts))
			for i := range h.counts {
				cum += h.counts[i].Load()
				bound := math.Inf(+1)
				if i < len(h.upper) {
					bound = h.upper[i]
				}
				s.Buckets[i] = BucketSnapshot{UpperBound: bound, CumulativeCount: cum}
			}
			// Report the bucket total, not h.count: Observe bumps the
			// bucket first, so between the two atomic adds the bucket
			// view is the one that stays internally cumulative.
			s.Count = cum
		}
		out = append(out, s)
	}
	return out
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in Prometheus text format 0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if s.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
			return err
		}
		var err error
		switch s.Kind {
		case "histogram":
			for _, b := range s.Buckets {
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Name, formatFloat(b.UpperBound), b.CumulativeCount); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", s.Name, formatFloat(s.Sum), s.Name, s.Count); err != nil {
				return err
			}
		case "counter":
			// Counters are integral; print them as such.
			_, err = fmt.Fprintf(w, "%s %d\n", s.Name, uint64(s.Value))
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", s.Name, formatFloat(s.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
