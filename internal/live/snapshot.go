package live

import (
	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/timeutil"
)

// SliceSnapshot is the watcher-facing read surface of one slice: the
// merged time-sorted columns the batch estimator would see, the per-shard
// columns behind them (for cross-shard correlation analysis), and the
// slice version the snapshot reflects.
type SliceSnapshot struct {
	// Version is the slice's ingest version, stamped before the shard
	// views were gathered — like a query's version it can only understate,
	// so a later SliceVersion comparison never misses new data.
	Version uint64
	// Times and Lats are the merged (time, seq)-sorted columns across all
	// shards — exactly the stable by-time sort of the acked stream, the
	// same columns a curve recompute estimates over.
	Times []timeutil.Millis
	Lats  []float64
	// Shards holds the per-shard (time, seq)-sorted columns, empty shards
	// included; index matches the engine's shard index. They alias the
	// engine's immutable shard views and must be treated as read-only.
	Shards []core.Columns
}

// Options returns the estimator options the engine runs with, so derived
// computations (the watcher's rolling series) estimate under identical
// binning and smoothing.
func (e *Engine) Options() core.Options { return e.cfg.Options }

// LiveStats snapshots the engine's operational counters for /v1/status —
// one JSON read for operators instead of scraping /metrics. Counters are
// maintained by the engine itself, so they are present with or without a
// metrics registry.
func (e *Engine) LiveStats() api.LiveStats {
	states, stateBytes := e.windowStates()
	return api.LiveStats{
		Shards:       len(e.shards),
		Records:      e.Records(),
		StoreBytes:   e.StoreBytes(),
		Epoch:        e.Epoch(),
		Queries:      e.nQueries.Load(),
		CacheHits:    e.nHits.Load(),
		CacheMisses:  e.nMisses.Load(),
		CachedCurves: e.cachedCurves(),
		DirtyCombos:  e.nDirty.Load(),
		DeltaRecords: e.nDeltaRecords.Load(),

		WindowStateless:  e.nWinPath[winStateless].Load(),
		WindowSeeded:     e.nWinPath[winSeeded].Load(),
		WindowDelta:      e.nWinPath[winDelta].Load(),
		WindowStates:     states,
		WindowStateBytes: stateBytes,
		ScratchPoolBytes: e.scratchPoolBytes(),

		NormalizedRecomputes:  e.nNormalized.Load(),
		NormalizedReused:      e.nNormSlots[core.SlotReused].Load(),
		NormalizedReswept:     e.nNormSlots[core.SlotReswept].Load(),
		NormalizedRegenerated: e.nNormSlots[core.SlotRegenerated].Load(),
		NormalizedFallback:    e.nNormSlots[core.SlotFallback].Load(),
		NormalizedTableBytes:  e.normalizedTableBytes(),
	}
}
