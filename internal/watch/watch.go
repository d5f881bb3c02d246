// Package watch is sensd's continuous sensitivity-ops subsystem: a
// background watcher that periodically re-derives each watched slice's
// rolling NLP series from the live store, runs drift and correlated-
// incident detection over it, and maintains an alert lifecycle served at
// GET /v1/alerts and in the sensitivity report.
//
// # Incremental recomputation
//
// A tick polls each slice's ingest version (a handful of atomic loads)
// and skips the slice entirely when it hasn't moved — the detectors'
// inputs are a pure function of the stored records, so unchanged version
// ⇒ unchanged conditions, and the previous tick's conditions are replayed
// into the lifecycle instead of recomputed. Versions are stamped before a
// snapshot gathers its inputs and can only understate (the live engine's
// invariant), so a racing append at worst causes one extra recompute,
// never a missed one. A tick over a quiescent store therefore does no
// estimation work at all, which is what makes a short watch interval
// affordable.
//
// # Determinism
//
// Detection is anchored on data time (the newest record timestamp) and
// lifecycle history on tick numbers — never wall clock — so a replayed
// history scores identically however fast it is replayed, and ground-truth
// tests drive Tick directly.
package watch

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/obs"
	"autosens/internal/report"
	"autosens/internal/timeutil"
)

// Store is the slice read surface the watcher drives: estimator options
// (so derived series bin identically to served curves), the cheap
// per-tick staleness poll, and the snapshot itself. A single node's
// live.Engine implements it directly; a cluster.Coordinator implements
// it by scatter-gathering per-node partials, so one watcher can run
// drift and incident detection over cluster-wide slices.
type Store interface {
	Options() core.Options
	SliceVersion(key live.SliceKey) uint64
	// SnapshotSliceWindow materializes the slice's columns inside a
	// half-open time window; the zero window is the full history the store
	// holds. With Config.Window set, the watcher's ticks pass a trailing
	// window so its detectors judge a bounded span against the store's
	// hot/cold cutover logic instead of full history.
	SnapshotSliceWindow(key live.SliceKey, win live.Window) (*live.SliceSnapshot, error)
}

// Config parameterizes a Watcher.
type Config struct {
	// Engine is the store to watch (required).
	Engine Store
	// Slices are the slices to run drift detection on (default: the
	// all-records slice). The all-records slice is always watched for
	// correlated incidents, whether or not it is listed.
	Slices []live.SliceKey
	// Interval is the Run loop's tick period (default 30s).
	Interval time.Duration
	// Window, when positive, bounds each tick's snapshot to a trailing
	// window of this length anchored on data time: the window ends
	// unbounded above (so records arriving "now" are never clipped) and
	// starts Window before the newest record time the previous tick saw.
	// Zero keeps the historical behavior of judging full history.
	Window time.Duration
	// Drift tunes the NLP drift detector; zero fields take defaults.
	Drift DriftConfig
	// Incident tunes the correlated-incident detector; zero fields take
	// defaults.
	Incident IncidentConfig
	// FiringTicks is how many consecutive ticks a condition must persist
	// before its pending alert fires (default 2).
	FiringTicks int
	// ResolveTicks is how many consecutive condition-free ticks resolve a
	// pending or firing alert (default 3).
	ResolveTicks int
	// RetentionTicks is how long a resolved alert stays listed (default 240).
	RetentionTicks int
	// ArtifactsDir, when set, receives alerts.json, report.json and
	// report.html after every tick (written atomically).
	ArtifactsDir string
	// Registry exports autosens_watch_* and autosens_alert_* metrics; nil
	// skips instrumentation.
	Registry *obs.Registry
	// Logger receives tick and transition logs; nil disables logging.
	Logger *slog.Logger
}

// sliceState is the watcher's per-slice memory between ticks.
type sliceState struct {
	key      live.SliceKey
	name     string
	drift    bool // run the drift detector on this slice
	incident bool // run the incident detector (all-records slice only)

	valid       bool   // a tick has judged this slice at least once
	lastVersion uint64 // slice version the cached state reflects
	conds       []condition
	series      *core.RollingSeries // last drift series, for the report
	records     int
	// lastMax is the newest record time the last snapshot held — the
	// trailing-window anchor when Config.Window is set. Anchoring on data
	// time keeps replayed histories deterministic (the package's
	// determinism rule), at the cost of one tick of lag in where the
	// window starts.
	lastMax timeutil.Millis
}

// Watcher periodically re-evaluates slices and maintains alerts.
type Watcher struct {
	cfg   Config
	est   *core.Estimator
	store *alertStore

	mu     sync.Mutex // serializes ticks and guards slice states
	slices []*sliceState

	ticks      atomic.Uint64
	recomputes atomic.Uint64
	skips      atomic.Uint64

	m *metrics
}

// New builds a Watcher. The engine is required; everything else defaults.
func New(cfg Config) (*Watcher, error) {
	if cfg.Engine == nil {
		return nil, errors.New("watch: nil engine")
	}
	if len(cfg.Slices) == 0 {
		cfg.Slices = []live.SliceKey{live.AllSlices}
	}
	if cfg.Interval == 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.Interval < 0 {
		return nil, errors.New("watch: negative interval")
	}
	cfg.Drift.setDefaults()
	cfg.Incident.setDefaults()
	if err := cfg.Drift.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Incident.validate(); err != nil {
		return nil, err
	}
	if cfg.FiringTicks == 0 {
		cfg.FiringTicks = 2
	}
	if cfg.ResolveTicks == 0 {
		cfg.ResolveTicks = 3
	}
	if cfg.RetentionTicks == 0 {
		cfg.RetentionTicks = 240
	}
	if cfg.FiringTicks < 1 || cfg.ResolveTicks < 1 || cfg.RetentionTicks < 1 {
		return nil, errors.New("watch: lifecycle tick counts must be positive")
	}

	// The watcher estimates under the engine's own options, so its rolling
	// windows and the engine's served curves agree bin for bin.
	est, err := core.NewEstimator(cfg.Engine.Options())
	if err != nil {
		return nil, err
	}

	w := &Watcher{cfg: cfg, est: est,
		store: newAlertStore(cfg.FiringTicks, cfg.ResolveTicks, cfg.RetentionTicks)}

	// One state per distinct slice; the all-records slice always exists and
	// is the one slice the correlated-incident detector runs on, so a
	// fleet-wide regression is exactly one condition no matter how the
	// watched slice set is configured.
	seen := make(map[live.SliceKey]*sliceState)
	for _, key := range cfg.Slices {
		if ss := seen[key]; ss != nil {
			continue
		}
		ss := &sliceState{key: key, name: key.String(), drift: true}
		seen[key] = ss
		w.slices = append(w.slices, ss)
	}
	all := seen[live.AllSlices]
	if all == nil {
		all = &sliceState{key: live.AllSlices, name: live.AllSlices.String()}
		w.slices = append(w.slices, all)
	}
	all.incident = true

	if cfg.Registry != nil {
		w.m = newMetrics(cfg.Registry, w)
	}
	return w, nil
}

// TickResult summarizes one tick.
type TickResult struct {
	// Tick is this tick's number (1-based).
	Tick uint64
	// Recomputed and Skipped count slices re-evaluated vs served from the
	// previous tick's cached conditions.
	Recomputed, Skipped int
	// Conditions is how many detector conditions this tick observed.
	Conditions int
	// NewlyFiring is how many alerts transitioned to firing this tick.
	NewlyFiring int
}

// Tick evaluates every watched slice once and advances the alert
// lifecycle. Safe for concurrent use with ingest and the HTTP handlers;
// concurrent Ticks serialize.
func (w *Watcher) Tick() TickResult {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()

	res := TickResult{Tick: w.ticks.Add(1)}
	var conds []condition
	for _, ss := range w.slices {
		v := w.cfg.Engine.SliceVersion(ss.key)
		if ss.valid && v == ss.lastVersion {
			// Unchanged data ⇒ unchanged conditions: replay, don't recompute.
			w.skips.Add(1)
			res.Skipped++
			conds = append(conds, ss.conds...)
			continue
		}
		var win live.Window
		if w.cfg.Window > 0 && ss.lastMax > 0 {
			from := ss.lastMax - timeutil.Millis(w.cfg.Window.Milliseconds())
			if from > 0 {
				win.From = from // To stays 0: unbounded above
			}
		}
		snap, err := w.cfg.Engine.SnapshotSliceWindow(ss.key, win)
		if err != nil {
			// Empty slice: nothing to judge. The version poll above still
			// notices the first matching append.
			ss.valid, ss.lastVersion = true, v
			ss.conds, ss.series, ss.records = nil, nil, 0
			continue
		}
		w.recomputes.Add(1)
		res.Recomputed++
		var cs []condition
		if ss.drift {
			dc, series := detectDrift(w.est, ss.name, snap, w.cfg.Drift)
			cs = append(cs, dc...)
			ss.series = series
		}
		if ss.incident {
			cs = append(cs, detectIncident(ss.name, snap, w.cfg.Incident)...)
		}
		ss.conds = cs
		ss.records = len(snap.Times)
		ss.valid, ss.lastVersion = true, snap.Version
		if n := len(snap.Times); n > 0 && snap.Times[n-1] > ss.lastMax {
			ss.lastMax = snap.Times[n-1]
		}
		conds = append(conds, cs...)
	}
	res.Conditions = len(conds)

	// A tick where every slice was served from cache saw no new data, so
	// it carries no evidence for OR against any alert: the lifecycle is
	// frozen, not advanced. Replaying cached conditions into the store
	// here would let a transient condition caught by the last real
	// recompute "confirm itself" into firing off stale data; equally,
	// counting the tick as a miss would resolve alerts that nothing
	// contradicted. Evidence only accrues with data.
	raised0, fired0, resolved0 := w.store.transitions()
	if res.Recomputed > 0 {
		res.NewlyFiring = w.store.apply(res.Tick, conds)
	}
	raised1, fired1, resolved1 := w.store.transitions()

	if w.m != nil {
		w.m.ticks.Inc()
		w.m.tickDur.ObserveSince(start)
		w.m.raised.Add(raised1 - raised0)
		w.m.fired.Add(fired1 - fired0)
		w.m.resolvedC.Add(resolved1 - resolved0)
	}
	if l := w.cfg.Logger; l != nil && (raised1 != raised0 || fired1 != fired0 || resolved1 != resolved0) {
		l.Info("alert transitions",
			"tick", res.Tick,
			"raised", raised1-raised0, "fired", fired1-fired0, "resolved", resolved1-resolved0,
			"conditions", res.Conditions)
	}
	if w.cfg.ArtifactsDir != "" {
		if err := w.writeArtifactsLocked(); err != nil && w.cfg.Logger != nil {
			w.cfg.Logger.Warn("artifact write failed", "err", err)
		}
	}
	return res
}

// Run ticks on the configured interval until ctx is canceled.
func (w *Watcher) Run(ctx context.Context) {
	t := time.NewTicker(w.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.Tick()
		}
	}
}

// Stats snapshots the watcher's operational counters for /v1/status.
func (w *Watcher) Stats() api.WatchStats {
	pending, firing, resolved := w.store.counts()
	raised, _, _ := w.store.transitions()
	w.mu.Lock()
	slices := len(w.slices)
	w.mu.Unlock()
	return api.WatchStats{
		Ticks:        w.ticks.Load(),
		Slices:       slices,
		Recomputes:   w.recomputes.Load(),
		Skips:        w.skips.Load(),
		AlertsRaised: raised,
		Pending:      pending,
		Firing:       firing,
		Resolved:     resolved,
	}
}

// Alerts snapshots the alert set in the v1 wire schema; state filters to
// one lifecycle state when non-empty.
func (w *Watcher) Alerts(state string) api.AlertsResponse {
	pending, firing, resolved := w.store.counts()
	return api.AlertsResponse{
		Tick:     w.ticks.Load(),
		Pending:  pending,
		Firing:   firing,
		Resolved: resolved,
		Alerts:   w.store.list(state),
	}
}

// Report assembles the sensitivity-ops report from the last tick's cached
// per-slice series and the current alert set.
func (w *Watcher) Report() *report.SensOpsReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reportLocked()
}

func (w *Watcher) reportLocked() *report.SensOpsReport {
	r := &report.SensOpsReport{Tick: w.ticks.Load()}
	for _, ss := range w.slices {
		if ss.series == nil {
			continue
		}
		s := report.SensSlice{
			Slice:   ss.name,
			Records: ss.records,
			Version: ss.lastVersion,
			Probes:  ss.series.Probes,
			Skipped: ss.series.Skipped,
		}
		for i, start := range ss.series.WindowStart {
			s.WindowStartHours = append(s.WindowStartHours,
				float64(start)/float64(timeutil.MillisPerHour))
			s.NLP = append(s.NLP, ss.series.NLP[i])
			s.WindowRecords = append(s.WindowRecords, ss.series.Records[i])
		}
		r.Slices = append(r.Slices, s)
	}
	for _, a := range w.store.list("") {
		r.Alerts = append(r.Alerts, report.AlertRow{
			ID: a.ID, Type: a.Type, Slice: a.Slice, Severity: a.Severity,
			State: a.State, Value: a.Value, Threshold: a.Threshold, Message: a.Message,
		})
	}
	return r
}

// String implements fmt.Stringer for logs.
func (w *Watcher) String() string {
	return fmt.Sprintf("watch.Watcher(%d slices, interval %s)", len(w.slices), w.cfg.Interval)
}
