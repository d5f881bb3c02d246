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
	// Index order is the order partials are merged in.
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
// once. It implements live.WindowQuerier (so live.NewCurvesHandlerWith
// serves /v1/curves over it) and the watch store surface (Options,
// SliceVersion, SnapshotSlice — so a watcher's alert detection reads
// cluster-wide slices).
//
// # Caching
//
// Results are cached in the same live.ResultCache the engine uses, so the
// coordinator's windowed slots are bounded exactly like a node's. A
// result is stamped with the sum of the per-node versions its partials
// carried, and served while that sum still equals the sum of every node's
// known version. Each fetched version is raised into the node's known
// version before the result is stored, and known versions only rise, so
// known[i] ≥ fetched[i] for every node: the sums are equal only when every
// gap is zero, which is the per-node vector compare. Since stamps are taken
// before each node gathers its columns, versions only understate — the
// coordinator can serve stale-by-at-most-a-poll-interval data but can
// never claim freshness it doesn't have. The hit path is entirely
// in-process (an atomic load plus a sum of known versions), which is what
// keeps cached cluster queries within an order of magnitude of single-node
// cached serving. Known versions rise on every partial fetch, every
// SliceVersion call, and the rate-limited background polls.
type Coordinator struct {
	srcs  []PartialSource
	est   *core.Estimator
	opts  core.Options
	ci    core.CIOptions
	poll  time.Duration
	epoch atomic.Uint64
	cache live.ResultCache
	bufs  chan *recomputeBuf // idle recompute buffers

	mu       sync.Mutex
	versions map[live.SliceKey]*sliceVersions
}

// sliceVersions is one slice's per-node known-version state, shared by
// every (mode, ci, window) slot over that slice so one poll freshens them
// all.
type sliceVersions struct {
	known    []atomic.Uint64
	lastPoll atomic.Int64 // UnixNano of the newest completed/started poll
	polling  atomic.Bool
}

// version sums the known per-node versions: the slice version cached
// results are stamped against.
func (cv *sliceVersions) version() uint64 {
	var sum uint64
	for i := range cv.known {
		sum += cv.known[i].Load()
	}
	return sum
}

// recomputeBuf is one recompute's merge buffers and estimator scratch,
// pooled on the coordinator so a cache slot retains only its Result.
type recomputeBuf struct {
	merged core.Summary
	sc     core.Scratch
}

// maxIdleBufs bounds the idle recompute buffers kept; concurrent
// recomputes past it allocate their own and drop them afterwards. A
// sync.Pool would not do: the garbage a dirty query makes (every node's
// partial) empties it within a GC cycle or two, and each recompute would
// then regrow its merged columns and redraw its key plan.
const maxIdleBufs = 4

func (c *Coordinator) getBuf() *recomputeBuf {
	select {
	case buf := <-c.bufs:
		return buf
	default:
		buf := &recomputeBuf{}
		buf.merged.B = histogram.MustNew(0, c.opts.MaxLatencyMS, c.opts.BinWidthMS)
		return buf
	}
}

func (c *Coordinator) putBuf(buf *recomputeBuf) {
	select {
	case c.bufs <- buf:
	default:
	}
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
		srcs:     cfg.Sources,
		est:      est,
		opts:     cfg.Options,
		ci:       cfg.CI,
		poll:     cfg.PollInterval,
		bufs:     make(chan *recomputeBuf, maxIdleBufs),
		versions: make(map[live.SliceKey]*sliceVersions),
	}, nil
}

// Options returns the estimator options the coordinator runs with (the
// watch store surface).
func (c *Coordinator) Options() core.Options { return c.opts }

// versionsFor returns (creating if needed) a slice's known-version state.
func (c *Coordinator) versionsFor(key live.SliceKey) *sliceVersions {
	c.mu.Lock()
	defer c.mu.Unlock()
	cv, ok := c.versions[key]
	if !ok {
		cv = &sliceVersions{known: make([]atomic.Uint64, len(c.srcs))}
		c.versions[key] = cv
	}
	return cv
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

// maybePoll spawns one rate-limited background version poll for a slice.
// The calling query is never blocked: it serves its (possibly stale)
// cached answer while the poll freshens the known versions for the next
// query.
func (c *Coordinator) maybePoll(cv *sliceVersions, key live.SliceKey) {
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

// pollVersions polls every source's slice version and raises the slice's
// known versions. Source errors leave that node's known version untouched
// — understating, never overstating.
func (c *Coordinator) pollVersions(cv *sliceVersions, key live.SliceKey) {
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
// raising the known versions so the next Query observes any new data.
// Tests and tick-driven callers use it in place of the background polls.
func (c *Coordinator) Refresh(key live.SliceKey) {
	c.pollVersions(c.versionsFor(key), key)
}

// SliceVersion synchronously polls every node and returns the summed
// known versions (the watch store surface: the watcher's per-tick
// staleness check). A node that cannot be reached contributes its last
// known version — understating, so the watcher at worst recomputes one
// tick late, never serves data as fresher than it is.
func (c *Coordinator) SliceVersion(key live.SliceKey) uint64 {
	cv := c.versionsFor(key)
	c.pollVersions(cv, key)
	return cv.version()
}

// Query answers one curve query over the cluster. Clean slices are an
// in-process cache hit; dirty slices scatter-gather every node's partial,
// k-way merge, and finish the curve once.
func (c *Coordinator) Query(key live.SliceKey, mode live.Mode, ci bool) (*live.Result, error) {
	return c.QueryWindow(key, mode, ci, live.Window{})
}

// QueryWindow answers one windowed curve query over the cluster: every
// node contributes its windowed partial (hot store clipped to the window
// plus its cold tier's scan), and the merge/finish path is the very same
// one unwindowed queries take. Windowed slots cache under their exact
// bounds with the same staleness rule — node versions cover hot appends,
// and each node's cold tier is immutable below its cutover. Implements
// live.WindowQuerier; a zero win is exactly Query.
func (c *Coordinator) QueryWindow(key live.SliceKey, mode live.Mode, ci bool, win live.Window) (*live.Result, error) {
	cv := c.versionsFor(key)
	res, err := c.cache.Query(key, mode, ci, win, cv.version,
		func(bool) (*live.Result, error) { return c.recompute(cv, key, mode, ci, win) })
	if err == nil && res.Cached {
		c.maybePoll(cv, key)
	}
	return res, err
}

// gather fetches every node's partial for the slice inside win (the zero
// window is full history), raising each node's known version to the one
// its partial carries, and returns the partials index-aligned with the
// sources plus their summed versions. Network-bound, so one goroutine per
// source regardless of Workers.
func (c *Coordinator) gather(cv *sliceVersions, key live.SliceKey, win live.Window) ([]*api.Partial, uint64, error) {
	parts := make([]*api.Partial, len(c.srcs))
	errs := make([]error, len(c.srcs))
	var wg sync.WaitGroup
	for i, src := range c.srcs {
		wg.Add(1)
		go func(i int, src PartialSource) {
			defer wg.Done()
			if parts[i], errs[i] = src.PartialWindow(key, win); errs[i] == nil {
				raiseKnown(&cv.known[i], parts[i].Version)
			}
		}(i, src)
	}
	wg.Wait()
	// Scatter-gather is all-or-nothing: a merged curve missing one node's
	// records would silently misestimate, which is worse than failing.
	var version uint64
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		version += parts[i].Version
	}
	return parts, version, nil
}

// recompute gathers, merges, and finishes one (mode, ci, window) slot,
// stamped with the summed versions of the partials it merged.
func (c *Coordinator) recompute(cv *sliceVersions, key live.SliceKey, mode live.Mode, ci bool, win live.Window) (*live.Result, error) {
	parts, version, err := c.gather(cv, key, win)
	if err != nil {
		return nil, err
	}
	sums := make([]*core.Summary, len(parts))
	for i, p := range parts {
		sums[i] = &core.Summary{Columns: partialColumns(p), B: p.Hist}
	}
	buf := c.getBuf()
	defer c.putBuf(buf)
	if err := core.MergeSummaries(&buf.merged, sums...); err != nil {
		return nil, err
	}
	res, err := live.Finish(c.est, core.Request{Mode: mode, CI: ci, CIOptions: c.ci}, key, &buf.merged, &buf.sc)
	if err != nil {
		return nil, err
	}
	res.Version = version
	res.Epoch = c.epoch.Add(1)
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
	parts, version, err := c.gather(c.versionsFor(key), key, win)
	if err != nil {
		return nil, err
	}
	snap := &live.SliceSnapshot{Version: version, Shards: make([]core.Columns, len(parts))}
	for i, p := range parts {
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

var _ live.WindowQuerier = (*Coordinator)(nil)
