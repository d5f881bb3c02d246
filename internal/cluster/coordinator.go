package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/histogram"
	"autosens/internal/live"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// DefaultPollInterval is how often a cached-hit query triggers a
// background version poll of every source. It bounds how stale a cached
// merged curve can be served once a remote node has quietly ingested:
// within one interval of new data, some query's poll raises that node's
// known version past the cached stamp and the next query recomputes.
const DefaultPollInterval = 500 * time.Millisecond

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// Sources are the cluster's nodes, one per ring member (required).
	// Index order is the coordinator's version-vector order.
	Sources []PartialSource
	// Options configures the estimator; it must match the nodes' engine
	// options (same binning, smoothing and seed), or merged histograms
	// will be rejected and curves will disagree with single-node serving.
	// Zero value selects core.DefaultOptions().
	Options core.Options
	// CI configures bootstrap bounds for ci=1 queries. Zero value selects
	// core.DefaultCIOptions().
	CI core.CIOptions
	// Workers bounds the estimator's internal parallelism. 0 means
	// GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int
	// PollInterval rate-limits the background staleness polls issued from
	// the cached-hit path (default DefaultPollInterval; negative disables
	// background polling — staleness is then noticed only through
	// Refresh, SliceVersion, or a fetch).
	PollInterval time.Duration
}

// Coordinator answers curve queries over a cluster by scatter-gathering
// per-node partials, k-way merging them, and finishing the curve exactly
// once. It implements live.Querier (so live.NewCurvesHandler serves
// /v1/curves over it) and the watch store surface (Options, SliceVersion,
// SnapshotSlice — so a watcher's alert detection reads cluster-wide
// slices).
//
// # Caching
//
// Each (slice, mode, ci) entry caches its last merged result together
// with the per-node version vector it was computed at. A cached result is
// served only while every node's known version still equals its stamp in
// that vector; since stamps are taken before each node gathers its
// columns and known versions only ever rise, versions only understate —
// the coordinator can serve stale-by-at-most-a-poll-interval data but can
// never claim freshness it doesn't have. The hit path is entirely
// in-process (an atomic load plus a vector compare), which is what keeps
// cached cluster queries within an order of magnitude of single-node
// cached serving. Known versions rise on every partial fetch, every
// SliceVersion call, and the rate-limited background polls.
type Coordinator struct {
	srcs  []PartialSource
	est   *core.Estimator
	opts  core.Options
	ci    core.CIOptions
	poll  time.Duration
	epoch atomic.Uint64

	mu      sync.Mutex
	entries map[coordKey]*coordEntry
	combos  map[int]*comboVersions
}

// coordKey identifies one cache entry. win is the zero live.Window for
// unwindowed queries; windowed entries carry their exact bounds so
// distinct windows never share a slot (and partials from different
// windows are never merged together).
type coordKey struct {
	combo int
	mode  live.Mode
	ci    bool
	win   live.Window
}

// comboVersions is one combo's per-node known-version state, shared by
// every (mode, ci) entry over that combo so one poll freshens them all.
type comboVersions struct {
	known    []atomic.Uint64
	lastPoll atomic.Int64 // UnixNano of the newest completed/started poll
	polling  atomic.Bool
}

// coordEntry is one (slice, mode, ci) cache slot: val holds the last
// published result, mu serializes recomputes (single-flight), and the
// remaining fields are pooled recompute scratch guarded by mu.
type coordEntry struct {
	mu  sync.Mutex
	val atomic.Pointer[coordResult]

	key    live.SliceKey
	parts  []*core.Summary
	merged core.Summary
	plan   core.UnbiasedPlan
	sc     core.Scratch
	vec    []uint64
}

// coordResult pairs a served result with the version vector it reflects.
type coordResult struct {
	res live.Result
	vec []uint64
}

// NewCoordinator builds a coordinator over the given sources.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Sources) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one source")
	}
	if cfg.Options == (core.Options{}) {
		cfg.Options = core.DefaultOptions()
	}
	if cfg.CI == (core.CIOptions{}) {
		cfg.CI = core.DefaultCIOptions()
	}
	if cfg.Workers < 0 {
		return nil, errors.New("cluster: negative workers")
	}
	cfg.Options.Workers = cfg.Workers
	cfg.CI.Workers = cfg.Workers
	switch {
	case cfg.PollInterval == 0:
		cfg.PollInterval = DefaultPollInterval
	case cfg.PollInterval < 0:
		cfg.PollInterval = 0 // disabled
	}
	est, err := core.NewEstimator(cfg.Options)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		srcs:    cfg.Sources,
		est:     est,
		opts:    cfg.Options,
		ci:      cfg.CI,
		poll:    cfg.PollInterval,
		entries: make(map[coordKey]*coordEntry),
		combos:  make(map[int]*comboVersions),
	}, nil
}

// Options returns the estimator options the coordinator runs with (the
// watch store surface).
func (c *Coordinator) Options() core.Options { return c.opts }

// combosFor returns (creating if needed) a combo's known-version state.
func (c *Coordinator) combosFor(combo int) *comboVersions {
	c.mu.Lock()
	defer c.mu.Unlock()
	cv, ok := c.combos[combo]
	if !ok {
		cv = &comboVersions{known: make([]atomic.Uint64, len(c.srcs))}
		c.combos[combo] = cv
	}
	return cv
}

// entryFor returns (creating if needed) a query's cache entry.
func (c *Coordinator) entryFor(qk coordKey, key live.SliceKey) *coordEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	ce, ok := c.entries[qk]
	if !ok {
		ce = &coordEntry{
			key:   key,
			parts: make([]*core.Summary, len(c.srcs)),
			vec:   make([]uint64, len(c.srcs)),
		}
		ce.merged.B = histogram.MustNew(0, c.opts.MaxLatencyMS, c.opts.BinWidthMS)
		c.entries[qk] = ce
	}
	return ce
}

// raiseKnown lifts one node's known version, monotonically: a concurrent
// fetch racing a poll can only raise it further, never lower it back —
// which is what keeps "known == stamp ⇒ serve cached" safe.
func raiseKnown(known *atomic.Uint64, v uint64) {
	for {
		cur := known.Load()
		if v <= cur || known.CompareAndSwap(cur, v) {
			return
		}
	}
}

// fresh reports whether a cached result's version vector still matches
// every node's known version.
func fresh(cv *comboVersions, vec []uint64) bool {
	for i := range vec {
		if cv.known[i].Load() != vec[i] {
			return false
		}
	}
	return true
}

// maybePoll spawns one rate-limited background version poll for a combo.
// The calling query is never blocked: it serves its (possibly stale)
// cached answer while the poll freshens the known vector for the next
// query.
func (c *Coordinator) maybePoll(cv *comboVersions, key live.SliceKey) {
	if c.poll <= 0 {
		return
	}
	now := time.Now().UnixNano()
	last := cv.lastPoll.Load()
	if now-last < int64(c.poll) || !cv.polling.CompareAndSwap(false, true) {
		return
	}
	cv.lastPoll.Store(now)
	go func() {
		defer cv.polling.Store(false)
		c.pollVersions(cv, key)
	}()
}

// pollVersions polls every source's slice version and raises the combo's
// known vector. Source errors leave that node's known version untouched —
// understating, never overstating.
func (c *Coordinator) pollVersions(cv *comboVersions, key live.SliceKey) {
	var wg sync.WaitGroup
	for i, src := range c.srcs {
		wg.Add(1)
		go func(i int, src PartialSource) {
			defer wg.Done()
			if v, err := src.PartialVersion(key); err == nil {
				raiseKnown(&cv.known[i], v)
			}
		}(i, src)
	}
	wg.Wait()
}

// Refresh synchronously polls every source's version for the slice,
// raising the known vector so the next Query observes any new data.
// Tests and tick-driven callers use it in place of the background polls.
func (c *Coordinator) Refresh(key live.SliceKey) {
	c.pollVersions(c.combosFor(comboOf(key)), key)
}

// comboOf densely encodes the three slice axes (with -1, "any", in slot
// 0 of each) into one map key, mirroring the live engine's combo index.
func comboOf(key live.SliceKey) int {
	userAxis := telemetry.NumUserTypes + 1
	periodAxis := timeutil.NumPeriods + 1
	return ((int(key.Action)+1)*userAxis+(int(key.UserType)+1))*periodAxis +
		(int(key.Period) + 1)
}

// SliceVersion synchronously polls every node and returns the summed
// known versions (the watch store surface: the watcher's per-tick
// staleness check). A node that cannot be reached contributes its last
// known version — understating, so the watcher at worst recomputes one
// tick late, never serves data as fresher than it is.
func (c *Coordinator) SliceVersion(key live.SliceKey) uint64 {
	cv := c.combosFor(comboOf(key))
	c.pollVersions(cv, key)
	var sum uint64
	for i := range cv.known {
		sum += cv.known[i].Load()
	}
	return sum
}

// Query answers one curve query over the cluster. Clean slices are an
// in-process cache hit; dirty slices scatter-gather every node's partial,
// k-way merge, and finish the curve once. Implements live.Querier.
func (c *Coordinator) Query(key live.SliceKey, mode live.Mode, ci bool) (*live.Result, error) {
	return c.QueryWindow(key, mode, ci, live.Window{})
}

// QueryWindow answers one windowed curve query over the cluster: every
// node contributes its windowed partial (hot store clipped to the window
// plus its cold tier's scan), and the merge/finish path is the very same
// one unwindowed queries take. Windowed entries cache under their exact
// bounds with the same version-vector staleness rule — node versions
// cover hot appends, and each node's cold tier is immutable below its
// cutover. Implements live.WindowQuerier; a zero win is exactly Query.
func (c *Coordinator) QueryWindow(key live.SliceKey, mode live.Mode, ci bool, win live.Window) (*live.Result, error) {
	combo := comboOf(key)
	cv := c.combosFor(combo)
	ce := c.entryFor(coordKey{combo: combo, mode: mode, ci: ci, win: win}, key)

	if r := ce.val.Load(); r != nil && fresh(cv, r.vec) {
		c.maybePoll(cv, key)
		hit := r.res
		hit.Cached = true
		return &hit, nil
	}
	ce.mu.Lock()
	defer ce.mu.Unlock()
	// Another query may have recomputed while this one waited.
	if r := ce.val.Load(); r != nil && fresh(cv, r.vec) {
		hit := r.res
		hit.Cached = true
		return &hit, nil
	}
	res, err := c.recompute(cv, ce, key, mode, ci, win)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fetchPartials gathers every node's partial for the slice (restricted
// to win when non-zero) concurrently into ce.parts (as summaries) and
// stamps ce.vec. Network-bound, so one goroutine per source regardless
// of Workers.
func (c *Coordinator) fetchPartials(cv *comboVersions, ce *coordEntry, key live.SliceKey, win live.Window) error {
	errs := make([]error, len(c.srcs))
	var wg sync.WaitGroup
	for i, src := range c.srcs {
		wg.Add(1)
		go func(i int, src PartialSource) {
			defer wg.Done()
			p, err := src.PartialWindow(key, win)
			if err != nil {
				errs[i] = err
				return
			}
			ce.vec[i] = p.Version
			raiseKnown(&cv.known[i], p.Version)
			if ce.parts[i] == nil {
				ce.parts[i] = &core.Summary{}
			}
			ce.parts[i].Columns, ce.parts[i].B = partialColumns(p), p.Hist
		}(i, src)
	}
	wg.Wait()
	// Scatter-gather is all-or-nothing: a merged curve missing one node's
	// records would silently misestimate, which is worse than failing.
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}

// recompute fetches, merges, and finishes one (mode, ci, window) slot.
// Caller holds ce.mu.
func (c *Coordinator) recompute(cv *comboVersions, ce *coordEntry, key live.SliceKey, mode live.Mode, ci bool, win live.Window) (*live.Result, error) {
	if err := c.fetchPartials(cv, ce, key, win); err != nil {
		return nil, err
	}
	if err := core.MergeSummaries(&ce.merged, ce.parts...); err != nil {
		return nil, err
	}
	n := ce.merged.Len()
	if n == 0 {
		return nil, live.ErrNoRecords
	}
	res := &live.Result{Slice: key.String(), Mode: mode.String(), Records: n}
	switch {
	case ci:
		opts := c.ci
		opts.TimeNormalized = mode == live.ModeNormalized
		band, err := c.est.EstimateCIColumns(ce.merged.Times, ce.merged.Lats, opts)
		if err != nil {
			return nil, err
		}
		if res.Curve, err = band.Curve.MarshalJSON(); err != nil {
			return nil, err
		}
		if res.CI, err = band.MarshalBoundsJSON(); err != nil {
			return nil, err
		}
	case mode == live.ModeNormalized:
		curve, err := c.est.EstimateTimeNormalizedColumns(ce.merged.Times, ce.merged.Lats)
		if err != nil {
			return nil, err
		}
		if res.Curve, err = curve.MarshalJSON(); err != nil {
			return nil, err
		}
	default:
		curve, err := c.est.EstimateSummary(&ce.merged, &ce.plan, &ce.sc)
		if err != nil {
			return nil, err
		}
		var jsonErr error
		if res.Curve, jsonErr = curve.MarshalJSON(); jsonErr != nil {
			return nil, jsonErr
		}
	}
	var sum uint64
	for _, v := range ce.vec {
		sum += v
	}
	res.Version = sum
	res.Epoch = c.epoch.Add(1)
	ce.val.Store(&coordResult{res: *res, vec: append([]uint64(nil), ce.vec...)})
	return res, nil
}

// SnapshotSliceWindow materializes the cluster-wide slice columns inside
// win (the watch store surface; the zero window is full history): every
// node's windowed partial — hot store and cold tier — merged into the
// stable by-time sort of the global stream. Shards holds the per-node
// sorted columns, index-aligned with the coordinator's sources, so
// cross-shard analysis sees per-node contributions. An empty cluster-wide
// slice returns live.ErrNoRecords like the engine does.
func (c *Coordinator) SnapshotSliceWindow(key live.SliceKey, win live.Window) (*live.SliceSnapshot, error) {
	cv := c.combosFor(comboOf(key))
	parts := make([]*api.Partial, len(c.srcs))
	errs := make([]error, len(c.srcs))
	var wg sync.WaitGroup
	for i, src := range c.srcs {
		wg.Add(1)
		go func(i int, src PartialSource) {
			defer wg.Done()
			parts[i], errs[i] = src.PartialWindow(key, win)
		}(i, src)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	snap := &live.SliceSnapshot{Shards: make([]core.Columns, len(parts))}
	for i, p := range parts {
		snap.Version += p.Version
		raiseKnown(&cv.known[i], p.Version)
		snap.Shards[i] = partialColumns(p)
	}
	var merged core.Columns
	core.MergeColumns(&merged, snap.Shards...)
	if merged.Len() == 0 {
		return nil, live.ErrNoRecords
	}
	snap.Times, snap.Lats = merged.Times, merged.Lats
	return snap, nil
}

// partialColumns views a wire partial's rows as core.Columns (api stays
// free of a core import, so the conversion lives on this side).
func partialColumns(p *api.Partial) core.Columns {
	return core.Columns{Times: p.Times, Lats: p.Lats, Seqs: p.Seqs}
}

// Stats snapshots the coordinator's serving counters.
func (c *Coordinator) Stats() (entries int, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.epoch.Load()
}

var _ live.Querier = (*Coordinator)(nil)
var _ live.WindowQuerier = (*Coordinator)(nil)
