package main

import (
	"fmt"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/store"
	"autosens/internal/timeutil"
)

// windowCycle is the number of requests in one window-cold cycle: each
// slice at the short sliding span, then each at the long sliding span,
// then each at the pinned window.
var windowCycle = 3 * len(windowSlices)

// spanHolding is the window, in whole seconds, that ends at `at` and
// reaches back to record from of the advancing stream.
func (e *env) spanHolding(from int, at timeutil.Millis) time.Duration {
	span := time.Duration(at-e.st.timeAt(max(from, 0))) * time.Millisecond
	return max(span.Truncate(time.Second)+time.Second, time.Minute)
}

// windowQuery builds request i of the cycle when pos records of the
// advancing stream have been acked. Sliding windows end at the
// (minute-floored) data time of the newest acked record, so they move as
// ingest advances; the pinned window never moves.
func (e *env) windowQuery(i, pos int) query {
	i %= windowCycle
	q := query{slice: windowSlices[i%len(windowSlices)], mode: "plain"}
	sc, by := e.sc, e.sc.byRecords
	at := minuteFloor(e.st.timeAt(pos - 1))
	switch kind := i / len(windowSlices); {
	case kind == 0 && by != nil: // trailing span whose blocks fit the block cache
		q.window, q.at = e.spanHolding(pos-by.short, at), at
	case kind == 0:
		q.window, q.at = sc.slideShort, at
	case kind == 1 && by != nil: // trailing span whose decoded blocks do not
		q.window, q.at = e.spanHolding(pos-by.long, at), at
	case kind == 1:
		q.window, q.at = sc.slideLong, at
	case by != nil: // fixed span at a fixed data time
		q.at = minuteFloor(e.st.timeAt(by.pinnedEnd - 1))
		q.window = e.spanHolding(by.pinnedEnd-by.pinned, q.at)
	default:
		q.window = sc.pinnedSpan
		q.at = timeutil.Millis(sc.pinnedAtDay) * timeutil.MillisPerDay
	}
	return q
}

// waitCompacted polls /v1/status until the cold tier has folded at least
// one segment and storage.compacted_through has stopped moving.
func (e *env) waitCompacted(base string, settle time.Duration) (api.StatusResponse, error) {
	deadline := time.Now().Add(90 * time.Second)
	last, since := -2, time.Now()
	for {
		st, err := e.qconn.status(base)
		if err != nil {
			return st, err
		}
		if st.Storage == nil {
			return st, fmt.Errorf("/v1/status has no storage section; is the cold tier on?")
		}
		if st.Storage.CompactedThrough != last {
			last, since = st.Storage.CompactedThrough, time.Now()
		} else if last >= 0 && time.Since(since) >= settle {
			e.idle += settle
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("compaction never settled (compacted_through=%d, compactions=%d)",
				st.Storage.CompactedThrough, st.Storage.Compactions)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runWindowCold is the only workload where store — zone-map prune,
// chunk-skipping decode, block cache, compaction beside reads — does most
// of the work. The node is restarted after loading so the hot/cold
// cutover moves and the hot store holds only the tail; a fresh node
// answers the same requests without ever scanning a block.
func runWindowCold(e *env) error {
	sc := e.sc
	load := sc.coldLoadRecords / batchRecords
	ingN := int(sc.windowDur.Seconds() * float64(sc.windowIngestPerS))
	batches, err := e.st.encodeBatches(0, load+ingN, 0)
	if err != nil {
		return err
	}
	walDir, err := e.freshDir("wal")
	if err != nil {
		return err
	}
	coldDir, err := e.freshDir("cold")
	if err != nil {
		return err
	}
	const compactEvery = time.Second
	cfg := nodeConfig{
		walDir: walDir, coldDir: coldDir, segBytes: sc.segBytes,
		compactInterval: compactEvery, cacheBytes: sc.cacheBytes,
	}
	first, err := e.startNode(cfg, 0)
	if err != nil {
		return err
	}
	defer first.stop()
	if err := e.preload(first.base(), batches[:load]); err != nil {
		return err
	}
	st0, err := e.waitCompacted(first.base(), 2*compactEvery+500*time.Millisecond)
	if err != nil {
		return err
	}
	if err := first.stop(); err != nil {
		return fmt.Errorf("stop sensd before restart: %w", err)
	}
	n, err := e.startNode(cfg, 1)
	if err != nil {
		return err
	}
	defer n.stop()
	e.res.set("restart_ready_s", metric{Value: n.readyIn().Seconds()})
	cycle := windowCycle
	for i := 0; i < cycle; i++ {
		q := e.windowQuery(i, int(e.ackedPos.Load()))
		if _, _, err := e.qconn.curveRaw(n.base(), q); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}
	before, err := e.qconn.status(n.base())
	if err != nil {
		return err
	}
	e.setupDone()

	// Measured phase: advancing ingest with the compactor running, the
	// query connection cycling the nine window requests.
	end := e.phase("windows")
	var samples []querySample
	var queues []int
	ing := e.ingestBeside(n.base(), batches[load:], sc.windowIngestPerS, sc.windowDur, func() {
		samples, queues = e.queryLoop(n.base(), sc.windowDur, func(i int) query {
			return e.windowQuery(i, int(e.ackedPos.Load()))
		})
	})
	speed := end()
	// One sliding sample is one dashboard refresh of a slice: its short
	// and its long trailing window, asked in the same cycle. Pooling the two
	// spans request by request would put the median on the cliff between
	// a sub-millisecond and a tens-of-milliseconds population. Cache hits
	// are left out of all three timings: a request is a hit only when no
	// batch landed since the previous cycle, which is a race between the
	// two load loops and not a property of the node.
	var sliding, pin []float64
	failed, hits := 0, 0
	for _, s := range samples {
		if !s.ok {
			failed++
		} else if s.hit {
			hits++
		}
	}
	timed := func(s querySample) bool { return s.ok && !s.hit }
	for base := 0; base+cycle <= len(samples); base += cycle {
		for k := range windowSlices {
			short, long, pinned := samples[base+k], samples[base+len(windowSlices)+k], samples[base+2*len(windowSlices)+k]
			if timed(short) && timed(long) {
				sliding = append(sliding, short.latencyMS()+long.latencyMS())
			}
			if timed(pinned) {
				pin = append(pin, pinned.latencyMS())
			}
		}
	}
	e.res.count(len(samples), failed)
	e.res.note("window-cold: %d of %d window responses were cache hits and are not in the timings", hits, len(samples))
	_, ingFailed := latencies(ing)
	e.res.count(len(ing), ingFailed)
	interval := time.Second / time.Duration(sc.windowIngestPerS)
	if e.openLoopValid("windows", ing, interval, queues,
		"window_sliding_p50_ms", "window_sliding_p95_ms", "window_pinned_p50_ms", "op_p10_ms", "alt_p10_ms") {
		t := summarize(sliding, 95)
		e.res.set("window_sliding_p50_ms", metric{Value: t.P50, N: t.N})
		e.res.set("window_sliding_p95_ms", metric{Value: t.Tail, N: t.N, At: t.TailAt})
		e.setLayer("bench.op_p50_ms", t.P50)
		e.setLayer("bench.op_tail_ms", t.Tail)
		t = summarize(pin, 95)
		e.res.set("window_pinned_p50_ms", metric{Value: t.P50, N: t.N})
		// The driver's view: the quiet latency of a sliding request (six
		// kinds: three slices at two spans) and of a pinned one (three).
		pinned := func(kind int) bool { return kind >= 2*len(windowSlices) }
		v, n := quietByKind(samples, cycle, func(kind int) bool { return !pinned(kind) })
		e.res.set("op_p10_ms", scaled(v, speed, n))
		v, n = quietByKind(samples, cycle, pinned)
		e.res.set("alt_p10_ms", scaled(v, speed, n))
	}

	after, err := e.qconn.status(n.base())
	if err != nil {
		return err
	}
	if after.Storage == nil || before.Storage == nil {
		return fmt.Errorf("/v1/status lost its storage section")
	}
	// A fresh node serves these same requests from the hot store alone;
	// that is how the old soak's "windowed" half never touched the store.
	scanned := after.Storage.ScannedBlocks - before.Storage.ScannedBlocks
	perQuery := float64(scanned) / float64(max(len(samples), 1))
	e.setLayer("store.blocks_scanned_per_query", perQuery)
	if scanned == 0 {
		e.res.problem("window-cold scanned no cold blocks: the windows were answered from the hot store and the store layer was not measured")
	}

	// Quiesced: check every request once more at the final data time.
	queries := make([]query, cycle)
	for i := range queries {
		queries[i] = e.windowQuery(i, int(e.ackedPos.Load()))
	}
	e.oracleCheck(n.base(), queries)
	if err := n.stop(); err != nil {
		return fmt.Errorf("stop sensd: %w", err)
	}
	// Compaction moved records out of the WAL, so the durable count is the
	// cold tier's sequence frontier plus whatever the WAL still replays.
	cold, err := store.Open(store.Config{Dir: coldDir, WALDir: walDir})
	if err != nil {
		return fmt.Errorf("reopen cold tier: %w", err)
	}
	inWAL, _, err := walRecords(walDir)
	if err != nil {
		return fmt.Errorf("replay WAL: %w", err)
	}
	e.checkCounts(st0.RecordsAccepted+after.RecordsAccepted, int(cold.Cutover())+inWAL)
	e.res.set("rss_peak_mb", metric{Value: max(first.rssPeakMB(), n.rssPeakMB())})
	if err := e.diskMetric(walDir, coldDir); err != nil {
		return err
	}
	return e.traceWindowLayers(before, after)
}
