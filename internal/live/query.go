package live

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/cell"
	"autosens/internal/core"
	"autosens/internal/parallel"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// Mode selects the estimator a query runs: core's plain pooled estimate or
// the full time-normalized method. Queries do not serve the biased-only
// baseline.
type Mode = core.Mode

const (
	ModePlain      = core.ModePlain
	ModeNormalized = core.ModeNormalized
)

// ParseMode converts a query-string mode value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "plain":
		return ModePlain, nil
	case "normalized":
		return ModeNormalized, nil
	}
	return 0, fmt.Errorf("live: unknown mode %q", s)
}

// SliceKey names a record subset along the three slice dimensions; -1 on
// an axis means "any".
type SliceKey = cell.Key

// AllSlices matches every record.
var AllSlices = cell.All

// ParseSliceKey parses the /v1/curves slice syntax: a comma-separated
// list of dim:value terms ("action:SelectMail,usertype:Business,
// period:8am-2pm"); omitted dimensions match anything, and "" or "all"
// match everything.
func ParseSliceKey(s string) (SliceKey, error) {
	key := AllSlices
	if s == "" || s == "all" {
		return key, nil
	}
	for _, term := range strings.Split(s, ",") {
		dim, val, ok := strings.Cut(term, ":")
		if !ok {
			return key, fmt.Errorf("live: slice term %q is not dim:value", term)
		}
		switch dim {
		case "action":
			a, err := telemetry.ParseActionType(val)
			if err != nil {
				return key, err
			}
			key.Action = a
		case "usertype":
			u, err := telemetry.ParseUserType(val)
			if err != nil {
				return key, err
			}
			key.UserType = u
		case "period":
			p, err := timeutil.ParsePeriod(val)
			if err != nil {
				return key, fmt.Errorf("live: unknown period %q", val)
			}
			key.Period = p
		default:
			return key, fmt.Errorf("live: unknown slice dimension %q", dim)
		}
	}
	return key, nil
}

// ErrNoRecords is returned when a slice holds no usable records.
var ErrNoRecords = errors.New("live: no records in slice")

// queryKey identifies one cached query: a slice, its estimator, and its
// window — the zero Window for unwindowed queries; windowed slots carry
// their exact bounds so distinct windows never share one.
type queryKey struct {
	key  SliceKey
	mode Mode
	ci   bool
	win  Window
}

// cacheSlot is one query's cache slot: val holds the last published
// result, mu serializes recomputes (single-flight — concurrent dirty
// queries for the same slot wait for one recompute instead of each running
// their own).
type cacheSlot struct {
	mu  sync.Mutex
	val atomic.Pointer[Result]
}

// Result is one answered curve query.
type Result struct {
	// Slice is the canonical slice key string.
	Slice string
	// Mode names the estimator used.
	Mode string
	// Version is the combo version the result reflects (stamped before
	// the recompute gathered its inputs, so it can only understate).
	Version uint64
	// Epoch is the recompute that produced this result.
	Epoch uint64
	// Records is the number of usable records the curve is built on.
	Records int
	// Cached reports whether this query was served from cache.
	Cached bool
	// Curve is the point estimate, in core.Curve JSON form.
	Curve json.RawMessage
	// CI holds bootstrap bounds (lower/upper/replicates), if requested.
	// Both are json.Marshal output — compact and HTML-escaped — which the
	// curves handler writes into its response verbatim.
	CI json.RawMessage
}

// MaxWindowedCache bounds the windowed slots a ResultCache retains: window
// bounds are caller-chosen (a dashboard defaulting at=now mints a fresh
// window every request), so unlike the slice-keyed unwindowed slots these
// would otherwise grow without bound. They are kept as two generations of
// half the bound each: a lookup checks the current one, then the previous
// (promoting on a hit), and a full current generation rotates — so sliding
// traffic ages out one-shot windows while a window asked for again within
// the bound (a pinned dashboard) keeps its slot and its still-valid result.
const MaxWindowedCache = 512

// ResultCache is the /v1/curves query front the engine and the cluster
// coordinator share: one single-flight slot per (slice, mode, ci, window),
// unwindowed slots kept for good, windowed ones bounded by
// MaxWindowedCache. A cached result is served while its Version equals
// the caller's current slice version; the caller's compute stamps that
// Version with a value read before it gathered its inputs, so a stamp can
// only understate and a result can never be served as fresher than it is.
// The zero value is ready to use.
type ResultCache struct {
	mu            sync.Mutex
	slots         map[queryKey]*cacheSlot
	wcache, wprev map[queryKey]*cacheSlot
}

// slot returns (creating if needed) the cache slot for a query.
func (c *ResultCache) slot(qk queryKey) *cacheSlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if qk.win.IsZero() {
		s, ok := c.slots[qk]
		if !ok {
			if c.slots == nil {
				c.slots = make(map[queryKey]*cacheSlot)
			}
			s = &cacheSlot{}
			c.slots[qk] = s
		}
		return s
	}
	s, ok := c.wcache[qk]
	if ok {
		return s
	}
	if s, ok = c.wprev[qk]; ok {
		delete(c.wprev, qk)
	} else {
		s = &cacheSlot{}
	}
	if c.wcache == nil || len(c.wcache) >= MaxWindowedCache/2 {
		c.wprev, c.wcache = c.wcache, make(map[queryKey]*cacheSlot, MaxWindowedCache/2)
	}
	c.wcache[qk] = s
	return s
}

// Query serves the slot's cached result while its Version equals
// version(), else runs compute once for every concurrent caller of the slot
// and caches what it returns. compute must stamp Result.Version itself;
// repeated reports whether the slot held a result before (it merely went
// stale). Neither function is retained.
func (c *ResultCache) Query(key SliceKey, mode Mode, ci bool, win Window,
	version func() uint64, compute func(repeated bool) (*Result, error)) (*Result, error) {
	s := c.slot(queryKey{key: key, mode: mode, ci: ci, win: win})
	if r := s.val.Load(); r != nil && r.Version == version() {
		hit := *r
		hit.Cached = true
		return &hit, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Another query may have recomputed while this one waited.
	prev := s.val.Load()
	if prev != nil && prev.Version == version() {
		hit := *prev
		hit.Cached = true
		return &hit, nil
	}
	res, err := compute(prev != nil)
	if err != nil {
		return nil, err
	}
	s.val.Store(res)
	return res, nil
}

// Len reports how many unwindowed slots hold a result, and how many
// windowed slots the cache retains.
func (c *ResultCache) Len() (curves, windowed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.slots {
		if s.val.Load() != nil {
			curves++
		}
	}
	return curves, len(c.wcache) + len(c.wprev)
}

// Query answers one curve query over the full history the engine holds:
// the window (−∞, +∞) of QueryWindow.
func (e *Engine) Query(key SliceKey, mode Mode, ci bool) (*Result, error) {
	return e.QueryWindow(key, mode, ci, Window{})
}

// QueryWindow answers one curve query restricted to win (the zero Window
// is unwindowed). Clean slices are a cache lookup; a dirty one folds only
// what arrived since the last recompute and re-finishes the curve on the
// engine's worker pool. A windowed query merges the hot store's rows inside
// win with the cold tier's (when attached) at the cutover watermark. Either
// way the estimated columns are exactly the stable by-time sort of the
// acked stream's window, so the finished curve is byte-identical to the
// batch estimator run over the same records.
//
// The combo version covers hot appends; the cold tier below the cutover is
// immutable for the life of the process (retention only removes data the
// handler already clamps windows away from), so the hot version alone
// decides staleness for windowed slots too.
func (e *Engine) QueryWindow(key SliceKey, mode Mode, ci bool, win Window) (*Result, error) {
	start := time.Now()
	qk := queryKey{key: key, mode: mode, ci: ci, win: win}
	res, err := e.cache.Query(key, mode, ci, win,
		func() uint64 { return e.SliceVersion(key) },
		func(repeated bool) (*Result, error) { return e.recompute(qk, repeated) })
	e.nQueries.Add(1)
	if err == nil {
		if res.Cached {
			e.nHits.Add(1)
		} else {
			e.nMisses.Add(1)
		}
	}
	if e.m != nil {
		e.m.queries.Inc()
		e.m.queryDur.ObserveSince(start)
		if err == nil {
			if res.Cached {
				e.m.cacheHits.Inc()
			} else {
				e.m.cacheMisses.Inc()
			}
		}
	}
	return res, err
}

// comboState is one delta-maintained estimation state: a combo's, shared
// by every (mode, ci) query slot over it, or — embedded in a windowState —
// one (combo, window)'s. A recompute decodes only the store suffix each
// shard appended since the state's last recompute, folds it into a
// core.Incremental — which delta-maintains the columns, the biased
// histogram AND the unbiased sweep — and re-finishes the curve, so a dirty
// query costs O(records since the last epoch), not O(store). Decode and
// merge buffers are not part of the state: they come from the engine's
// scratch pool for the duration of one recompute.
type comboState struct {
	mu  sync.Mutex
	inc *core.Incremental
	cps []checkpoint // per-shard resumable decode positions

	// normBytes is what the state's time-normalized draw tables retain, as
	// of its last normalized recompute — atomic so /v1/status can sum it
	// over states without waiting on their recomputes.
	normBytes atomic.Int64
}

// drop forgets the estimation state; the next recompute seeds a fresh one.
func (cs *comboState) drop() {
	cs.inc = nil
	cs.normBytes.Store(0)
}

// scratch is one recompute's reusable buffers: per-shard decoded delta
// columns and block snapshots, the runs of them a fold merges, the merged
// delta (or a window's merged view), and — for stateless windows — the
// estimator scratch (draw-key plan and histograms) Finish uses. Scratch
// is pooled on the engine, not kept per state, so what a state retains is
// its folded columns only and the steady-state dirty path still allocates
// nothing here.
type scratch struct {
	sh    []core.Columns
	snaps [][]blockSnap
	runs  []core.Columns // sh, each clipped to the window being folded
	all   core.Columns
	est   core.Scratch
	size  int // bytes accounted to poolBytes while idle
}

// maxPooledScratch bounds the idle scratch kept; concurrent recomputes past
// it allocate their own and drop it afterwards.
const maxPooledScratch = 4

func (e *Engine) getScratch() *scratch {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if n := len(e.pool); n > 0 {
		sc := e.pool[n-1]
		e.pool = e.pool[:n-1]
		e.poolBytes -= sc.size
		return sc
	}
	n := len(e.shards)
	return &scratch{
		sh: make([]core.Columns, n), snaps: make([][]blockSnap, n), runs: make([]core.Columns, n),
	}
}

func (e *Engine) putScratch(sc *scratch) {
	sc.size = 24*cap(sc.all.Times) + sc.est.RetainedBytes()
	for i := range sc.sh {
		sc.size += 24 * cap(sc.sh[i].Times)
	}
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if len(e.pool) < maxPooledScratch {
		e.pool = append(e.pool, sc)
		e.poolBytes += sc.size
	}
}

// scratchPoolBytes reports what the idle pooled scratch retains.
func (e *Engine) scratchPoolBytes() int {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	return e.poolBytes
}

// stateFor returns (creating if needed) the slice's estimation state.
func (e *Engine) stateFor(key SliceKey) *comboState {
	e.smu.Lock()
	defer e.smu.Unlock()
	cs, ok := e.states[key]
	if !ok {
		cs = &comboState{
			inc: e.est.NewIncremental(),
			cps: make([]checkpoint, len(e.shards)),
		}
		e.states[key] = cs
	}
	return cs
}

// recompute brings the estimation state behind one query slot up to date
// and re-finishes its curve, stamped with the combo version read before
// gathering: appends racing with the recompute may or may not be included,
// and the understated stamp guarantees the next query notices and
// recomputes. repeated reports whether the slot was answered before (its
// result merely went stale) — what decides whether a window is worth
// keeping state for.
func (e *Engine) recompute(qk queryKey, repeated bool) (res *Result, err error) {
	start := time.Now()
	key := qk.key
	v0 := e.SliceVersion(key)
	sc := e.getScratch()
	defer e.putScratch(sc)
	label := "combo_recompute"
	if !qk.win.IsZero() {
		label = "window_recompute"
	}
	var dirty, folded int
	// The fold and estimate run tagged so profiles attribute recompute CPU
	// to the slice being answered.
	pprof.Do(context.Background(), pprof.Labels(
		"live", label, "slice", key.String(), "mode", qk.mode.String(),
	), func(context.Context) {
		if !qk.win.IsZero() {
			res, dirty, folded, err = e.recomputeWindow(qk, repeated, sc)
			return
		}
		cs := e.stateFor(key)
		cs.mu.Lock()
		defer cs.mu.Unlock()
		if dirty, folded, err = e.foldDelta(cs, key, Window{}, sc); err == nil {
			res, err = e.finish(cs, qk)
		}
	})
	e.nDirty.Add(1)
	e.nDeltaRecords.Add(uint64(folded))
	if e.m != nil {
		e.m.dirtyCombos.Inc()
		e.m.deltaRecords.Add(uint64(folded))
		e.m.dirtyShards.Observe(float64(dirty))
		e.m.recomputeDur.ObserveSince(start)
	}
	if err != nil {
		return nil, err
	}
	res.Version = v0
	res.Epoch = e.epoch.Add(1)
	return res, nil
}

// foldDelta decodes each shard's store suffix since st's last recompute
// (in parallel on the worker pool), keeps win's share of it (everything,
// for the zero Window), merges the sorted per-shard deltas into one
// (time, seq)-sorted delta, and folds it into st's Incremental. Returns how
// many shards were dirty and how many records were folded.
func (e *Engine) foldDelta(st *comboState, key SliceKey, win Window, sc *scratch) (dirty, folded int, err error) {
	parallel.ForEach(e.cfg.Workers, len(e.shards), func(i int) {
		d := &sc.sh[i]
		d.Reset()
		if e.shards[i].deltaSince(&st.cps[i], key, d, &sc.snaps[i]) > 0 {
			// Each shard's suffix arrives in ack (seq) order; sort it by
			// (time, seq) so the merge below yields exactly the stable
			// by-time sort of the acked stream. Sorted, the window's share
			// is a contiguous run found by binary search.
			sort.Sort(d)
		}
		sc.runs[i] = *d
		if !win.IsZero() {
			sc.runs[i] = d.Slice(d.Range(win.From, win.To))
		}
	})
	for i := range sc.runs {
		if n := sc.runs[i].Len(); n > 0 {
			dirty++
			folded += n
		}
	}
	if folded == 0 {
		return 0, 0, nil
	}
	sc.all.Reset()
	core.MergeColumns(&sc.all, sc.runs...)
	return dirty, folded, st.inc.Fold(sc.all.Times, sc.all.Lats, sc.all.Seqs)
}

// finish answers one (mode, ci) slot from cs's delta-maintained state,
// which gives the bytes Finish — and so the batch estimator — would over
// the same columns.
func (e *Engine) finish(cs *comboState, qk queryKey) (*Result, error) {
	n := cs.inc.Len()
	if n == 0 {
		return nil, ErrNoRecords
	}
	out, err := cs.inc.Finish(e.request(qk))
	e.countNormalized(cs)
	if err != nil {
		return nil, err
	}
	return newResult(qk.key, qk.mode, n, out)
}

// request is the estimate qk asks for.
func (e *Engine) request(qk queryKey) core.Request {
	return core.Request{Mode: qk.mode, CI: qk.ci, CIOptions: e.cfg.CI}
}

// Finish is the stateless curve finisher the engine's first-seen windows
// and the cluster coordinator share: it answers req over s, a slice's
// (time, seq)-sorted columns, with an unstamped Result. s.B, when non-nil,
// must hold exactly the counts of s.Lats under est's binning (a
// coordinator's summed partial histograms); nil builds it. sc is the plain
// estimator's reusable scratch. The bytes are the batch estimator's over
// the same rows.
func Finish(est *core.Estimator, req core.Request, key SliceKey, s *core.Summary, sc *core.Scratch) (*Result, error) {
	if s.Len() == 0 {
		return nil, ErrNoRecords
	}
	out, err := est.Finish(req, s, sc)
	if err != nil {
		return nil, err
	}
	return newResult(key, req.Mode, s.Len(), out)
}

// newResult marshals a finished curve, with its bounds when it has them,
// into a Result over n records.
func newResult(key SliceKey, mode Mode, n int, out *core.CurveCI) (res *Result, err error) {
	res = &Result{Slice: key.String(), Mode: mode.String(), Records: n}
	if out.Lower != nil {
		if res.CI, err = out.MarshalBoundsJSON(); err != nil {
			return nil, err
		}
	}
	if res.Curve, err = out.Curve.MarshalJSON(); err != nil {
		return nil, err
	}
	return res, nil
}

// countNormalized adds cs's delta-maintained normalized estimate, if its
// last finish ran one, to the engine's slot-path counters and records what
// its tables hold.
func (e *Engine) countNormalized(cs *comboState) {
	last, tableBytes, fresh := cs.inc.NormalizedStats()
	if !fresh {
		return
	}
	cs.normBytes.Store(int64(tableBytes))
	e.nNormalized.Add(1)
	for path, n := range last {
		e.nNormSlots[path].Add(uint64(n))
		if e.m != nil {
			e.m.normSlots[path].Add(uint64(n))
		}
	}
}

// normalizedTableBytes sums the draw-table bytes over every retained
// estimation state, windowed or not.
func (e *Engine) normalizedTableBytes() int {
	var n int64
	e.smu.Lock()
	for _, cs := range e.states {
		n += cs.normBytes.Load()
	}
	e.smu.Unlock()
	e.wsmu.Lock()
	for _, ws := range e.wstates {
		n += ws.normBytes.Load()
	}
	e.wsmu.Unlock()
	return int(n)
}

// QueryMany answers one query per key, finishing curves for distinct
// combos in parallel on the engine's worker pool (per-combo recomputes are
// independent). Results align with keys; a slice with no records yields a
// nil result and ErrNoRecords in errs. Use with cell.Keys to prewarm
// every curve after a WAL replay.
func (e *Engine) QueryMany(keys []SliceKey, mode Mode, ci bool) (results []*Result, errs []error) {
	results = make([]*Result, len(keys))
	errs = make([]error, len(keys))
	parallel.ForEach(e.cfg.Workers, len(keys), func(i int) {
		results[i], errs[i] = e.Query(keys[i], mode, ci)
	})
	return results, errs
}
