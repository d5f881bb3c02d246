package live

import (
	"autosens/internal/core"
	"autosens/internal/obs"
)

// metrics bundles the autosens_live_* instruments on the admin surface.
type metrics struct {
	appended     *obs.Counter
	queries      *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	dirtyCombos  *obs.Counter
	deltaRecords *obs.Counter
	queryDur     *obs.Histogram
	recomputeDur *obs.Histogram
	dirtyShards  *obs.Histogram
	normSlots    [core.NumSlotPaths]*obs.Counter
}

func newMetrics(reg *obs.Registry, e *Engine) *metrics {
	m := &metrics{
		appended:    reg.Counter("autosens_live_records_total", "records appended to the live store"),
		queries:     reg.Counter("autosens_live_queries_total", "curve queries answered (hits and misses)"),
		cacheHits:   reg.Counter("autosens_live_cache_hits_total", "queries served from the epoch cache"),
		cacheMisses: reg.Counter("autosens_live_cache_misses_total", "queries that recomputed the curve"),
		dirtyCombos: reg.Counter("autosens_live_recompute_dirty_combos",
			"combo recomputes run by dirty queries"),
		deltaRecords: reg.Counter("autosens_live_delta_records",
			"store records delta-folded into combo estimation state"),
		queryDur: reg.Histogram("autosens_live_query_duration_seconds",
			"wall-clock time answering one curve query", obs.DefLatencyBuckets()),
		recomputeDur: reg.Histogram("autosens_live_recompute_duration_seconds",
			"wall-clock time of one curve recompute (dirty query)", obs.DefLatencyBuckets()),
		dirtyShards: reg.Histogram("autosens_live_recompute_dirty_shards",
			"shard views rebuilt per recompute", obs.DefSizeBuckets()),
	}
	for path := range m.normSlots {
		name := core.SlotPath(path).String()
		m.normSlots[path] = reg.Counter("autosens_live_normalized_slots_"+name+"_total",
			"retained slots "+name+" by delta-maintained normalized recomputes")
	}
	reg.GaugeFunc("autosens_live_normalized_table_bytes", "bytes retained by time-normalized draw tables",
		func() float64 { return float64(e.normalizedTableBytes()) })
	reg.GaugeFunc("autosens_live_shards", "store shards",
		func() float64 { return float64(len(e.shards)) })
	reg.GaugeFunc("autosens_live_store_records", "records held in the live store",
		func() float64 { return float64(e.Records()) })
	reg.GaugeFunc("autosens_live_store_bytes", "approximate live store footprint in bytes",
		func() float64 { return float64(e.StoreBytes()) })
	reg.GaugeFunc("autosens_live_records_skipped", "failed or invalid records not stored",
		func() float64 { return float64(e.skipped.Load()) })
	reg.GaugeFunc("autosens_live_cached_curves", "curve results currently cached",
		func() float64 { return float64(e.cachedCurves()) })
	reg.GaugeFunc("autosens_live_epoch", "curve recomputes performed",
		func() float64 { return float64(e.Epoch()) })
	for path, name := range [numWinPaths]string{winStateless: "stateless", winSeeded: "seeded", winDelta: "delta"} {
		reg.GaugeFunc("autosens_live_window_recomputes_"+name,
			"windowed recomputes answered by the "+name+" path",
			func() float64 { return float64(e.nWinPath[path].Load()) })
	}
	reg.GaugeFunc("autosens_live_window_states", "windowed estimation states retained",
		func() float64 { n, _ := e.windowStates(); return float64(n) })
	reg.GaugeFunc("autosens_live_window_state_bytes", "bytes retained by windowed estimation states",
		func() float64 { _, b := e.windowStates(); return float64(b) })
	reg.GaugeFunc("autosens_live_window_scratch_pool_bytes", "bytes retained by idle recompute scratch",
		func() float64 { return float64(e.scratchPoolBytes()) })
	return m
}
