package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"autosens/internal/cluster"
	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/pipeline"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/watch"
)

// layerDefs lists every per-layer metric, in report order. Layers are the
// repository's modules. A traced run of a workload reports the layers
// that workload exercises; the driver's JSON fills the rest with 0.
var layerDefs = []struct{ name, unit string }{
	{"telemetry.encode_ns_per_rec", "ns"},
	{"telemetry.decode_ns_per_rec", "ns"},
	{"telemetry.wire_bytes_per_rec", "B"},
	{"collector.handler_p50_ms", "ms"},
	{"collector.handler_self_p50_ms", "ms"},
	{"collector.queue_wait_mean_ms", "ms"},
	{"collector.shed_ratio", "ratio"},
	{"collector.client_minus_handler_p50_ms", "ms"},
	{"wal.write_p50_ms", "ms"},
	{"wal.sync_p50_ms", "ms"},
	{"wal.syncs_per_1k_batches", "count"},
	{"wal.fs_writes_per_batch", "count"},
	{"wal.bytes_per_rec", "B"},
	{"wal.replay_ns_per_rec", "ns"},
	{"live.append_ns_per_rec", "ns"},
	{"live.store_bytes_per_rec", "B"},
	{"live.query_cached_us", "us"},
	{"live.cache_hit_ratio", "ratio"},
	{"live.query_dirty_advancing_ms", "ms"},
	{"live.query_dirty_backfill_ms", "ms"},
	{"live.delta_records_per_query", "count"},
	{"live.query_window_self_ms", "ms"},
	{"live.warm_ns_per_rec", "ns"},
	{"core.estimate_plain_ms", "ms"},
	{"core.estimate_normalized_ms", "ms"},
	{"core.estimate_ci_ms", "ms"},
	{"core.incremental_fold_us_per_rec", "us"},
	{"core.incremental_rebuild_ms", "ms"},
	{"pipeline.load_ns_per_rec", "ns"},
	{"pipeline.partition_ms", "ms"},
	{"pipeline.run_ms", "ms"},
	{"store.scan_p50_ms", "ms"},
	{"store.blocks_scanned_per_query", "count"},
	{"store.prune_ratio", "ratio"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.cache_evictions", "count"},
	{"store.compact_mb_per_s", "MB/s"},
	{"store.compact_write_amp", "ratio"},
	{"store.cold_bytes_per_rec", "B"},
	{"store.open_ms", "ms"},
	{"cluster.partial_p50_ms", "ms"},
	{"cluster.partial_bytes_per_rec", "B"},
	{"cluster.gather_merge_ms", "ms"},
	{"cluster.ring_skew", "ratio"},
	{"watch.tick_clean_us", "us"},
	{"watch.tick_dirty_ms", "ms"},
	{"bench.send_lag_p99_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
	// The workload's own operation as measured, unscaled: the median and
	// the tail that would not hold a bound on a shared host and were demoted
	// from the driver's end-to-end metrics, and the calibrator's reading.
	{"bench.op_p50_ms", "ms"},
	{"bench.op_tail_ms", "ms"},
	{"bench.host_unit_us", "us"},
}

var (
	layerNames []string
	layerUnits = map[string]string{}
)

func init() {
	for _, d := range layerDefs {
		layerNames = append(layerNames, d.name)
		layerUnits[d.name] = d.unit
	}
}

// setLayer records a per-layer metric under its declared unit.
func (e *env) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: undefined per-layer metric " + name)
	}
	e.res.Layers[name] = metric{Value: v, Unit: unit}
}

// phase opens a workload phase: it stamps the boundary into the trace and
// returns the function that records how long the phase really lasted and
// reports how fast the host ran meanwhile (see calibrator.speed).
func (e *env) phase(name string) (end func() (speed float64)) {
	if e.tr != nil {
		e.tr.mark(name)
	}
	start := time.Now()
	return func() float64 {
		now := time.Now()
		e.res.Phases[name] = now.Sub(start).Seconds()
		return e.cal.speed(start, now)
	}
}

// p50 is the median of xs (0 when empty).
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// mergeTraced folds the traced run's per-layer metrics into the untraced
// run's result, and reports the tracing overhead: the traced over the
// untraced quiet latency of the workload's primary operation.
func mergeTraced(res, tres *result) {
	res.Traced = true
	for name, m := range tres.Layers {
		// Figures the untraced run also takes (generator lateness, the
		// hit ratio and blocks-per-query guards) stay the untraced run's.
		if _, ok := res.Layers[name]; !ok {
			res.Layers[name] = m
		}
	}
	if u, t := res.Metrics["op_p10_ms"].Value, tres.Metrics["op_p10_ms"].Value; u > 0 && res.Workload != wBatchAnalyze {
		res.Layers["bench.trace_overhead_ratio"] = metric{Value: t / u, Unit: "ratio"}
	}
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed
	for _, p := range tres.Problems {
		res.Problems = append(res.Problems, "traced run: "+p)
	}
	for _, n := range tres.Notes {
		res.Notes = append(res.Notes, "traced run: "+n)
	}
	res.Shares = tres.Shares
	res.Correct = res.Correct && tres.Correct
}

// shares records where the requests of one phase spent their time.
func (e *env) shares(phase, root string) {
	if s := e.tr.selfShares(phase, root); s != nil {
		e.res.Shares[phase+" "+root] = s
	}
}

// telemetryLayers times the wire codec by direct calls on D.
func (e *env) telemetryLayers() error {
	n := min(len(e.ds.recs), 200_000)
	recs := e.ds.recs[:n]
	start := time.Now()
	body, err := encodeTBIN(recs)
	if err != nil {
		return err
	}
	e.setLayer("telemetry.encode_ns_per_rec", float64(time.Since(start))/float64(n))
	start = time.Now()
	r := telemetry.NewReader(bytes.NewReader(body), telemetry.TBIN)
	got, err := r.ReadAll()
	r.Close()
	if err != nil {
		return err
	}
	e.setLayer("telemetry.decode_ns_per_rec", float64(time.Since(start))/float64(len(got)))
	// Beacons are 500-record bodies: the per-batch dictionary and header
	// make them a little fatter per record than one long stream.
	batch, err := encodeTBIN(recs[:batchRecords])
	if err != nil {
		return err
	}
	e.setLayer("telemetry.wire_bytes_per_rec", float64(len(batch))/batchRecords)
	return nil
}

// coreLayers times the estimator by direct calls on the `all` columns of
// D's first preloadRecords records (what query-fresh preloads).
func (e *env) coreLayers() error {
	n := min(len(e.ds.recs), e.sc.preloadRecords)
	recs := e.ds.recs[:n]
	est := e.orc.est
	start := time.Now()
	if _, err := est.Estimate(recs); err != nil {
		return err
	}
	e.setLayer("core.estimate_plain_ms", ms(time.Since(start)))
	start = time.Now()
	if _, err := est.EstimateTimeNormalized(recs); err != nil {
		return err
	}
	e.setLayer("core.estimate_normalized_ms", ms(time.Since(start)))
	start = time.Now()
	if _, err := est.EstimateCI(recs, core.DefaultCIOptions()); err != nil {
		return err
	}
	e.setLayer("core.estimate_ci_ms", ms(time.Since(start)))

	// Incremental: seed with all but the last two batches' worth, estimate
	// once (builds the sweep state), then fold one batch that keeps the
	// observation window (times inside it) and one that moves it.
	usable := telemetry.Successful(recs)
	cut := len(usable) - 2*batchRecords
	if cut < batchRecords {
		return fmt.Errorf("core layers: dataset too small (%d usable records)", len(usable))
	}
	cols := func(rs []telemetry.Record, seq0 int, shift timeutil.Millis) ([]timeutil.Millis, []float64, []uint64) {
		times, lats, seqs := make([]timeutil.Millis, len(rs)), make([]float64, len(rs)), make([]uint64, len(rs))
		for i, r := range rs {
			times[i], lats[i], seqs[i] = r.Time-shift, r.LatencyMS, uint64(seq0+i)
		}
		return times, lats, seqs
	}
	inc := est.NewIncremental()
	t, l, s := cols(usable[:cut], 0, 0)
	if err := inc.Fold(t, l, s); err != nil {
		return err
	}
	if _, err := inc.EstimatePlain(); err != nil {
		return err
	}
	span := usable[cut-1].Time - usable[0].Time
	t, l, s = cols(usable[cut:cut+batchRecords], cut, span/2) // lands mid-window
	start = time.Now()
	if err := inc.Fold(t, l, s); err != nil {
		return err
	}
	if _, err := inc.EstimatePlain(); err != nil {
		return err
	}
	e.setLayer("core.incremental_fold_us_per_rec", float64(time.Since(start))/1e3/batchRecords)
	t, l, s = cols(usable[cut+batchRecords:], cut+batchRecords, 0) // newer than everything
	start = time.Now()
	if err := inc.Fold(t, l, s); err != nil {
		return err
	}
	if _, err := inc.EstimatePlain(); err != nil {
		return err
	}
	e.setLayer("core.incremental_rebuild_ms", ms(time.Since(start)))
	return nil
}

// traceIngestLayers derives ingest-steady's per-layer metrics from the
// spans, the counting FS and the node's counters.
func (e *env) traceIngestLayers(st api.StatusResponse) error {
	if e.tr == nil {
		return nil
	}
	tr := e.tr
	handlers := tr.in("rate", "http:"+api.PathBeacons)
	e.setLayer("collector.handler_p50_ms", p50(durations(handlers)))
	e.setLayer("collector.handler_self_p50_ms", p50(tr.selfMS(handlers)))
	// Client ack minus server handler, request by request: HTTP framing,
	// loopback and the two schedulers. One connection keeps the i-th
	// client sample and the i-th handler span the same request.
	var gap []float64
	for i := 0; i < min(len(handlers), len(e.rateSamples)); i++ {
		gap = append(gap, e.rateSamples[i].serviceMS()-handlers[i].durMS())
	}
	e.setLayer("collector.client_minus_handler_p50_ms", p50(gap))
	for _, m := range tr.last.reg.Snapshot() {
		if m.Name == "autosens_collector_queue_wait_seconds" {
			e.setLayer("collector.queue_wait_mean_ms", 1000*ratio(m.Sum, float64(m.Count)))
		}
	}
	e.setLayer("collector.shed_ratio", ratio(float64(st.BatchesShed), float64(st.Batches+st.BatchesShed)))
	e.setLayer("wal.write_p50_ms", p50(durations(tr.in("rate", "wal.write"))))
	e.setLayer("wal.sync_p50_ms", p50(durations(tr.all("wal.fsync"))))
	batches := float64(len(e.acked))
	e.setLayer("wal.syncs_per_1k_batches", 1000*ratio(float64(tr.walFS.syncs.Load()), batches))
	e.setLayer("wal.fs_writes_per_batch", ratio(float64(tr.walFS.writes.Load()), batches))
	e.setLayer("wal.bytes_per_rec", ratio(float64(tr.walFS.writeBytes.Load()), batches*batchRecords))
	appendNS := 0.0
	for _, s := range tr.all("live.append") {
		appendNS += float64(s.End - s.Start)
	}
	e.setLayer("live.append_ns_per_rec", ratio(appendNS, float64(tr.appended.Load())))
	if st.Live != nil {
		e.setLayer("live.store_bytes_per_rec", ratio(float64(st.Live.StoreBytes), float64(st.Live.Records)))
	}
	e.setLayer("wal.replay_ns_per_rec", ratio(float64(e.replayTook), batches*batchRecords))
	e.shares("rate", "http:"+api.PathBeacons)
	return e.telemetryLayers()
}

// misses keeps the spans of queries that were not cache hits.
func misses(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Note == "miss" {
			out = append(out, s)
		}
	}
	return out
}

// traceQueryLayers derives query-fresh's per-layer metrics; dirty0 is the
// live section of /v1/status when phase advancing began, st the final one.
func (e *env) traceQueryLayers(dirty0, st api.StatusResponse) error {
	if e.tr == nil {
		return nil
	}
	tr := e.tr
	e.setLayer("live.query_cached_us", 1000*p50(durations(tr.in("cached", "live.query"))))
	e.setLayer("live.query_dirty_advancing_ms", p50(durations(misses(tr.in("advancing", "live.query")))))
	e.setLayer("live.query_dirty_backfill_ms", p50(durations(misses(tr.in("backfill", "live.query")))))
	if st.Live != nil && dirty0.Live != nil {
		e.setLayer("live.delta_records_per_query",
			ratio(float64(st.Live.DeltaRecords-dirty0.Live.DeltaRecords), float64(st.Live.DirtyCombos-dirty0.Live.DirtyCombos)))
	}
	e.shares("advancing", "http:"+api.PathCurves)
	e.shares("backfill", "http:"+api.PathCurves)
	if err := e.coreLayers(); err != nil {
		return err
	}
	if err := e.clusterLayers(); err != nil {
		return err
	}
	return e.watchLayers()
}

// traceWindowLayers derives window-cold's per-layer metrics from the
// spans and the storage counters either side of the measured phase.
func (e *env) traceWindowLayers(before, after api.StatusResponse) error {
	if e.tr == nil {
		return nil
	}
	tr := e.tr
	windows := misses(tr.in("windows", "live.query_window"))
	e.setLayer("live.query_window_self_ms", p50(tr.selfMS(windows)))
	e.setLayer("live.warm_ns_per_rec", ratio(float64(tr.last.warmNS), float64(tr.last.warmRecords)))
	e.setLayer("store.scan_p50_ms", p50(durations(tr.in("windows", "store.scan"))))
	b, a := before.Storage, after.Storage
	scanned := float64(a.ScannedBlocks - b.ScannedBlocks)
	e.setLayer("store.prune_ratio", ratio(float64(a.PrunedBlocks-b.PrunedBlocks), scanned))
	if a.Cache != nil && b.Cache != nil {
		hits, miss := float64(a.Cache.Hits-b.Cache.Hits), float64(a.Cache.Misses-b.Cache.Misses)
		e.setLayer("store.cache_hit_ratio", ratio(hits, hits+miss))
		e.setLayer("store.cache_evictions", float64(a.Cache.Evictions-b.Cache.Evictions))
	}
	var walRead, coldWrote, compactNS float64
	for _, s := range tr.all("store.compact") {
		if r, w, ok := strings.Cut(s.Note, " "); ok {
			rb, _ := strconv.ParseFloat(r, 64)
			wb, _ := strconv.ParseFloat(w, 64)
			walRead, coldWrote = walRead+rb, coldWrote+wb
			compactNS += float64(s.End - s.Start)
		}
	}
	e.setLayer("store.compact_mb_per_s", ratio(walRead/1e6, compactNS/1e9))
	e.setLayer("store.compact_write_amp", ratio(coldWrote, walRead))
	e.setLayer("store.cold_bytes_per_rec", ratio(float64(a.ColdBytes), float64(a.ColdRecords)))
	e.setLayer("store.open_ms", tr.last.openMS)
	e.shares("windows", "http:"+api.PathCurves)
	return nil
}

// traceBatchLayers times batch-analyze's layers by direct calls: there is
// no server to wrap, the CLI is telemetry decode → pipeline → core.
func (e *env) traceBatchLayers() error {
	if e.tr == nil {
		return nil
	}
	start := time.Now()
	f, err := os.Open(e.ds.path)
	if err != nil {
		return err
	}
	r := telemetry.NewReader(f, telemetry.TBIN)
	recs, err := r.ReadAll()
	r.Close()
	f.Close()
	if err != nil {
		return err
	}
	recs = telemetry.Successful(recs)
	e.setLayer("pipeline.load_ns_per_rec", ratio(float64(time.Since(start)), float64(len(e.ds.recs))))
	start = time.Now()
	slices := pipeline.NewPartition(recs).ByActionType()
	e.setLayer("pipeline.partition_ms", ms(time.Since(start)))
	start = time.Now()
	results, err := pipeline.Run(pipeline.Request{Options: core.DefaultOptions(), TimeNormalized: true, Slices: slices})
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
	}
	e.setLayer("pipeline.run_ms", ms(time.Since(start)))
	if err := e.telemetryLayers(); err != nil {
		return err
	}
	return e.coreLayers()
}

// timedSource wraps a cluster.PartialSource to time each partial fetch
// and weigh its wire encoding.
type timedSource struct {
	cluster.LocalNode
	ms    *[]float64
	bytes *int
	recs  *int
}

// The coordinator fetches every partial, windowed or not, through
// PartialWindow.
func (s timedSource) PartialWindow(key live.SliceKey, win live.Window) (*api.Partial, error) {
	start := time.Now()
	p, err := s.LocalNode.PartialWindow(key, win)
	*s.ms = append(*s.ms, ms(time.Since(start)))
	if err == nil {
		*s.bytes += len(api.AppendPartial(nil, p))
		*s.recs += p.Len()
	}
	return p, err
}

// clusterLayers runs a Coordinator over three in-process engines that
// split D's first preloadRecords records by the consistent-hash ring.
// Counts and bytes only: three nodes on two cores say nothing about
// wall-clock scaling.
func (e *env) clusterLayers() error {
	nodes := []cluster.Node{{ID: "n0", URL: "http://n0"}, {ID: "n1", URL: "http://n1"}, {ID: "n2", URL: "http://n2"}}
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		return err
	}
	recs := e.ds.recs[:min(len(e.ds.recs), e.sc.preloadRecords)]
	var partialMS []float64
	var wireBytes, wireRecs int
	srcs := make([]cluster.PartialSource, len(nodes))
	most, total := 0, 0
	for i := range nodes {
		eng, err := live.New(live.Config{})
		if err != nil {
			return err
		}
		for lo := 0; lo < len(recs); lo += batchRecords {
			eng.AppendOwned(recs[lo:min(lo+batchRecords, len(recs))], ring.Owns(i))
		}
		most, total = max(most, eng.Records()), total+eng.Records()
		srcs[i] = timedSource{LocalNode: cluster.LocalNode{Engine: eng}, ms: &partialMS, bytes: &wireBytes, recs: &wireRecs}
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Sources: srcs, PollInterval: -1})
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := coord.Query(live.AllSlices, live.ModePlain, false); err != nil {
		return err
	}
	whole := ms(time.Since(start))
	slowest := 0.0
	for _, v := range partialMS {
		slowest = max(slowest, v)
	}
	e.setLayer("cluster.partial_p50_ms", p50(partialMS))
	e.setLayer("cluster.partial_bytes_per_rec", ratio(float64(wireBytes), float64(wireRecs)))
	// The gather waits for the slowest partial; the rest is merge + finish.
	e.setLayer("cluster.gather_merge_ms", whole-slowest)
	e.setLayer("cluster.ring_skew", ratio(float64(most), float64(total)/float64(len(nodes))))
	return nil
}

// watchLayers times one dirty and one clean watcher tick over an engine
// holding D's first preloadRecords records.
func (e *env) watchLayers() error {
	eng, err := live.New(live.Config{})
	if err != nil {
		return err
	}
	recs := e.ds.recs[:min(len(e.ds.recs), e.sc.preloadRecords)]
	for lo := 0; lo < len(recs); lo += batchRecords {
		eng.Append(recs[lo:min(lo+batchRecords, len(recs))])
	}
	w, err := watch.New(watch.Config{Engine: eng})
	if err != nil {
		return err
	}
	start := time.Now()
	w.Tick()
	e.setLayer("watch.tick_dirty_ms", ms(time.Since(start)))
	start = time.Now()
	w.Tick()
	e.setLayer("watch.tick_clean_us", float64(time.Since(start))/1e3)
	return nil
}
