package live

import (
	"context"
	"runtime/pprof"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/parallel"
	"autosens/internal/timeutil"
)

// Window restricts a query to the half-open time range [From, To), in
// unix millis. The zero Window means "unwindowed" — the full history the
// engine holds — and every windowed entry point degrades to its
// unwindowed twin on it, so existing callers and wire bytes are
// untouched. To == 0 with From > 0 means unbounded above (the watcher's
// trailing windows use this so records arriving "now" are never clipped).
type Window struct {
	From timeutil.Millis
	To   timeutil.Millis
}

// IsZero reports whether the window is the unwindowed sentinel.
func (w Window) IsZero() bool { return w.From == 0 && w.To == 0 }

// Contains reports whether t falls inside the window.
func (w Window) Contains(t timeutil.Millis) bool {
	return t >= w.From && (w.To == 0 || t < w.To)
}

// ColdTier is the engine's read hook into tiered storage: records that
// were compacted out of the WAL before this incarnation's cutover and no
// longer live in the hot store. The engine never writes to it — the
// store's compactor runs independently — and the hot/cold partition is
// fixed at startup (cold serves only seqs below the cutover, the hot
// store is warmed starting at it), so merging the two by (time, seq) can
// neither lose nor double-count a record.
type ColdTier interface {
	// ScanWindow returns the cold tier's records matching key inside win,
	// as (time, seq)-sorted parallel columns. A nil/empty result is a
	// valid "nothing retained there" answer.
	ScanWindow(key SliceKey, win Window) (times []timeutil.Millis, lats []float64, seqs []uint64, err error)
	// OldestRetained returns the oldest record time the tier still holds,
	// and false when it holds nothing.
	OldestRetained() (timeutil.Millis, bool)
	// Generation is an epoch for the tier's visible data: while it holds
	// steady, two ScanWindow calls over the same key and window return the
	// same rows, so state derived from a scan (a windowed query's folded
	// cold columns) stays valid. It advances when the visible set changes
	// — in the store's case, only when retention GC drops served blocks.
	Generation() uint64
}

// AttachCold installs the cold tier. Call once at startup, after warming
// and before serving queries; a nil tier keeps the engine hot-only.
func (e *Engine) AttachCold(c ColdTier) { e.cold = c }

// SetBaseSeq advances the global ack sequence counter to seq, so the
// first stored record gets that sequence number. Must be called before
// any append (including Warm): a tiered engine starts its hot seqs at the
// store's cutover, placing every hot record strictly after every cold one
// in the global ack order — the invariant the hot/cold merge relies on.
func (e *Engine) SetBaseSeq(seq uint64) { e.seq.Store(seq) }

// The paths a windowed recompute can take, counted in nWinPath.
const (
	winStateless = iota // first-seen window: estimated from a view, nothing retained
	winSeeded           // repeated window: state built from a view
	winDelta            // state resumed: only the hot delta folded
	numWinPaths
)

// winStateKey identifies one windowed slice's delta-maintained state:
// the slice plus the exact window bounds (distinct windows hold distinct
// column subsets, so they can never share folded state).
type winStateKey struct {
	key SliceKey
	win Window
}

// maxWindowStateBytes bounds what the windowed estimation states retain
// between recomputes, by core.Incremental.RetainedBytes. Window bounds are
// caller-chosen and each state holds its window's folded columns, so the
// bound is on bytes, not entries; past it the least recently recomputed
// states go, and the one just used always stays.
//
// Sliding windows fill it too: a query racing an append sees its window's
// slot stale and promotes a window nobody asks for again. On window-cold such
// dead states were most of the node's peak RSS (235–337 MB at 256 MiB against
// 131–141 MB at 16 MiB, same seeds), and faster queries race more often.
// 64 MiB still holds a dozen pinned 100 k-record windows.
const maxWindowStateBytes = 64 << 20

// windowState is one (combo, window)'s delta-maintained estimation state:
// the shared comboState machinery holding only the window's rows — O(window)
// memory. It exists only for windows that are recomputed again (a pinned
// dashboard); a first-seen window is answered statelessly from a view.
// coldGen remembers the tier generation the seed reflects — if retention
// GC advances it, the next recompute reseeds instead of trusting stale
// cold rows. bytes and used are the engine's eviction bookkeeping, guarded
// by wsmu.
type windowState struct {
	comboState
	coldGen uint64
	bytes   int
	used    uint64
}

// windowStateFor returns the (combo, window)'s state, creating an unseeded
// one when create is set; nil means the window has none.
func (e *Engine) windowStateFor(k winStateKey, create bool) *windowState {
	e.wsmu.Lock()
	defer e.wsmu.Unlock()
	ws := e.wstates[k]
	if ws == nil && create {
		if e.wstates == nil {
			e.wstates = make(map[winStateKey]*windowState)
		}
		ws = &windowState{comboState: comboState{
			cps: make([]checkpoint, len(e.shards)),
		}}
		e.wstates[k] = ws
	}
	return ws
}

// windowStates reports how many windowed states are retained and the
// bytes they hold.
func (e *Engine) windowStates() (n, bytes int) {
	e.wsmu.Lock()
	defer e.wsmu.Unlock()
	return len(e.wstates), e.wsBytes
}

// retainWindowState re-measures ws after a recompute, marks it most
// recently used, and evicts least recently used states while the total is
// over budget. A state evicted while another goroutine still computes on
// it is simply garbage once that recompute returns.
func (e *Engine) retainWindowState(k winStateKey, ws *windowState, size int) {
	e.wsmu.Lock()
	defer e.wsmu.Unlock()
	if e.wstates[k] != ws {
		return
	}
	e.wsClock++
	ws.used = e.wsClock
	e.wsBytes += size - ws.bytes
	ws.bytes = size
	for e.wsBytes > e.wsBudget && len(e.wstates) > 1 {
		var victim winStateKey
		oldest := ws.used
		for vk, v := range e.wstates {
			if v.used < oldest {
				victim, oldest = vk, v.used
			}
		}
		e.wsBytes -= e.wstates[victim].bytes
		delete(e.wstates, victim)
	}
}

// windowView materializes win's (time, seq)-sorted rows for key: the combo's
// delta-maintained columns are brought up to date (O(delta), shared with
// unwindowed queries and every other window on the combo), the window's hot
// rows are their binary-searched subslice, and the cold tier's scan is
// merged in front. The returned columns alias the cold scan when no hot row
// qualifies and sc.all otherwise — read-only either way, and valid until sc
// is reused. When cps is non-nil it receives the combo's decode
// checkpoints the view reflects, so a state seeded from the view resumes
// exactly past it. gen is the cold generation read BEFORE the scan: a
// concurrent retention GC can only make it understate, which the next
// recompute of a seeded state notices.
func (e *Engine) windowView(key SliceKey, win Window, sc *scratch, cps []checkpoint) (v core.Columns, gen uint64, dirty, folded int, err error) {
	var cold core.Columns
	if e.cold != nil {
		gen = e.cold.Generation()
		if cold.Times, cold.Lats, cold.Seqs, err = e.cold.ScanWindow(key, win); err != nil {
			return v, 0, 0, 0, err
		}
	}
	cs := e.stateFor(key)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if dirty, folded, err = e.foldDelta(cs, key, Window{}, sc); err != nil {
		return v, 0, 0, 0, err
	}
	copy(cps, cs.cps)
	hot := cs.inc.Summary().Columns
	lo, hi := hot.Range(win.From, win.To)
	if lo == hi {
		return cold, gen, dirty, folded, nil
	}
	// The hot rows must be copied out before cs.mu is released (the next
	// fold may move them); the copy is the merge with the cold rows.
	sc.all.Reset()
	core.MergeColumns(&sc.all, cold, hot.Slice(lo, hi))
	return sc.all, gen, dirty, folded, nil
}

// recomputeWindow answers one windowed recompute by the cheapest path that
// is exact: a window never recomputed before is estimated statelessly from
// its view and retains nothing but its Result; the second recompute
// (repeated: the slot's previous result went stale) seeds a windowState from
// the same view; every later one folds only the hot delta into that state
// — O(delta), not O(window) — until retention GC moves the cold generation
// and forces a reseed. Every path estimates over the same rows in the same
// (time, seq) order, so all three are byte-identical to the batch estimator
// over the window's records.
func (e *Engine) recomputeWindow(qk queryKey, repeated bool, sc *scratch) (res *Result, dirty, folded int, err error) {
	key := qk.key
	k := winStateKey{key: key, win: qk.win}
	ws := e.windowStateFor(k, repeated)
	if ws == nil {
		e.nWinPath[winStateless].Add(1)
		var v core.Columns
		if v, _, dirty, folded, err = e.windowView(key, qk.win, sc, nil); err == nil {
			res, err = Finish(e.est, e.request(qk), key, &core.Summary{Columns: v}, &sc.est)
		}
		return res, dirty, folded, err
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.inc != nil && (e.cold == nil || e.cold.Generation() == ws.coldGen) {
		e.nWinPath[winDelta].Add(1)
		dirty, folded, err = e.foldDelta(&ws.comboState, key, qk.win, sc)
	} else {
		e.nWinPath[winSeeded].Add(1)
		ws.drop()
		var v core.Columns
		if v, ws.coldGen, dirty, folded, err = e.windowView(key, qk.win, sc, ws.cps); err == nil {
			ws.inc = e.est.NewIncremental()
			err = ws.inc.Fold(v.Times, v.Lats, v.Seqs)
		}
	}
	if err != nil {
		// Half-built state must not be resumed: reseed on the next try.
		ws.drop()
		e.retainWindowState(k, ws, 0)
		return nil, dirty, folded, err
	}
	res, err = e.finish(&ws.comboState, qk)
	e.retainWindowState(k, ws, ws.inc.RetainedBytes())
	return res, dirty, folded, err
}

// runsFor gathers the slice's hot (time, seq)-sorted runs inside win, one
// per shard: the shard's cached view — rebuilt only if its combo version
// moved — clipped to the window by binary search. Views are sorted and
// windows are contiguous time ranges, so a clipped view is a subslice: no
// per-record filtering, nothing copied. A windowed gather over an attached
// cold tier also returns the tier's scan; the zero Window is the whole of
// every view and never consults the tier.
func (e *Engine) runsFor(label string, key SliceKey, win Window) (views []*shardView, runs []core.Columns, cold core.Columns, err error) {
	views = make([]*shardView, len(e.shards))
	pprof.Do(context.Background(), pprof.Labels(
		"live", label, "slice", key.String(),
	), func(context.Context) {
		parallel.ForEach(e.cfg.Workers, len(e.shards), func(i int) {
			views[i], _ = e.shards[i].viewFor(key, e.newHist)
		})
	})
	runs = make([]core.Columns, len(views))
	for i, v := range views {
		runs[i] = v.Columns
		if !win.IsZero() {
			runs[i] = v.Slice(v.Range(win.From, win.To))
		}
	}
	if !win.IsZero() && e.cold != nil {
		cold.Times, cold.Lats, cold.Seqs, err = e.cold.ScanWindow(key, win)
	}
	return views, runs, cold, err
}

// mergeTiers returns the cold scan and the per-shard hot runs as one
// (time, seq)-sorted run in fresh columns. The hot runs interleave and are
// merged first, so the cold rows — usually all in front of them — join by
// bulk copy instead of riding through the per-row scan over every shard.
func mergeTiers(cold core.Columns, runs []core.Columns) core.Columns {
	var hot core.Columns
	core.MergeColumns(&hot, runs...)
	if cold.Len() == 0 {
		return hot
	}
	var all core.Columns
	core.MergeColumns(&all, cold, hot)
	return all
}

// PartialWindow materializes one slice's mergeable curve partial over win:
// the slice's records as (time, seq)-sorted columns plus their biased
// histogram, stamped with the slice version read before gathering. It
// reuses the per-shard view cache — a clean slice serves cached views with
// no store decode, a dirty one rebuilds only the shard views whose combo
// version moved — so exporting a partial costs the same as the local half
// of a recompute, never a full decode. A windowed partial adds the cold
// tier's rows and is marked Windowed so the wire encoding carries the
// bounds (version 2); the zero win is wire version 1, byte-identical to
// unwindowed builds.
//
// A slice with no records yields an empty partial (with the engine's
// histogram binning), not an error: a scatter-gather coordinator must be
// able to merge nodes that simply hold none of the slice's users.
func (e *Engine) PartialWindow(key SliceKey, win Window) (*api.Partial, error) {
	// Stamp before gathering, as Query does: racing appends may or may not
	// be included, and the understated stamp keeps staleness detectable at
	// the coordinator exactly as it is locally.
	v0 := e.SliceVersion(key)
	label := "partial_export"
	if !win.IsZero() {
		label = "partial_window"
	}
	views, runs, cold, err := e.runsFor(label, key, win)
	if err != nil {
		return nil, err
	}
	p := &api.Partial{Version: v0, Hist: e.newHist()}
	mv := mergeTiers(cold, runs)
	p.Times, p.Lats, p.Seqs = mv.Times, mv.Lats, mv.Seqs
	if win.IsZero() {
		// Per-shard histograms are weight-1 adds under one binning, so the
		// sum is bit-identical to a single-pass build over the merged columns.
		for _, v := range views {
			if err := p.Hist.AddHistogram(v.b); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	// The windowed histogram cannot be summed from per-shard view
	// histograms (those cover full history); weight-1 adds over the
	// windowed latencies are still bit-identical to any other build order.
	p.Windowed, p.WindowFrom, p.WindowTo = true, win.From, win.To
	for _, l := range p.Lats {
		p.Hist.Add(l)
	}
	return p, nil
}

// SnapshotSliceWindow materializes the slice's columns inside win,
// rebuilding only shard views whose combo version moved since the last
// build (queries and snapshots share the per-shard view cache). Per-shard
// columns are the cached views' window subslices; the cold tier's scan
// (when attached and non-empty) rides along as one extra entry past the
// engine's shard count, and the merged columns cover
// hot+cold. On an unchanged slice no decode work happens — every shard
// serves its cached view — so callers that skip on SliceVersion equality
// pay nothing and callers that don't still pay only the merge.
func (e *Engine) SnapshotSliceWindow(key SliceKey, win Window) (*SliceSnapshot, error) {
	// Stamp before gathering, as Query does: racing appends may or may not
	// be included, and the understated stamp keeps staleness detectable.
	v0 := e.SliceVersion(key)
	label := "slice_snapshot"
	if !win.IsZero() {
		label = "slice_snapshot_window"
	}
	_, runs, cold, err := e.runsFor(label, key, win)
	if err != nil {
		return nil, err
	}
	mv := mergeTiers(cold, runs)
	if mv.Len() == 0 {
		return nil, ErrNoRecords
	}
	snap := &SliceSnapshot{Version: v0, Times: mv.Times, Lats: mv.Lats, Shards: runs}
	if cold.Len() > 0 {
		snap.Shards = append(snap.Shards, cold)
	}
	return snap, nil
}
