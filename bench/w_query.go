package main

import (
	"fmt"
	"sync"
	"time"
)

// querySample is one timed curve request and whether the node answered
// it from cache.
type querySample struct {
	sample
	q   int // request number within the phase
	hit bool
}

// queryLoop is the closed-loop query client: one connection, request i
// built by next(i), each sent when the previous reply arrived, until dur
// has passed. It polls /v1/status about once a second between requests —
// the poll shares the query connection, as a dashboard's would.
func (e *env) queryLoop(base string, dur time.Duration, next func(i int) query) (out []querySample, queues []int) {
	start := time.Now()
	lastPoll := start
	for i := 0; time.Since(start) < dur; i++ {
		s := querySample{q: i}
		s.sent = time.Now()
		s.due, s.free = s.sent, s.sent
		_, hit, err := e.qconn.curveRaw(base, next(i))
		s.done = time.Now()
		s.ok, s.hit = err == nil, hit
		out = append(out, s)
		if time.Since(lastPoll) >= time.Second {
			if st, err := e.qconn.status(base); err == nil {
				queues = append(queues, st.QueueLength)
			}
			lastPoll = time.Now()
		}
	}
	return out, queues
}

// quietByKind is the quiet latency of a query phase whose request i is of
// kind i % kinds: per kind, over the requests the node had to compute
// (a hit costs the same whatever the slice, and which requests find their
// slice clean is the two load loops' race, not the node's doing).
func quietByKind(samples []querySample, kinds int, keep func(kind int) bool) (v float64, n int) {
	byKind := make([][]float64, kinds)
	for _, s := range samples {
		if k := s.q % kinds; s.ok && !s.hit && keep(k) {
			byKind[k] = append(byKind[k], s.latencyMS())
		}
	}
	return quietMean(byKind)
}

func everyKind(int) bool { return true }

// queryTimings splits query samples into latencies and counts.
func queryTimings(samples []querySample) (lat []float64, failed, hits int) {
	for _, s := range samples {
		if !s.ok {
			failed++
			continue
		}
		if s.hit {
			hits++
		}
		lat = append(lat, s.latencyMS())
	}
	return lat, failed, hits
}

// ingestBeside runs an open-loop ingest phase on the ingest connection
// while fn runs on the caller's goroutine, and returns the ingest samples
// once both are done.
func (e *env) ingestBeside(base string, batches []wireBatch, perSec int, dur time.Duration, fn func()) []sample {
	var samples []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		interval := time.Second / time.Duration(perSec)
		samples = openLoop(wallClock{}, interval, dur, len(batches), func(i int) bool {
			return e.send(base, batches[i])
		})
	}()
	fn()
	wg.Wait()
	return samples
}

// runQueryFresh is the read path over the hot store: live's delta fold
// and core's curve finishing dominate, collector and wal are light. Its
// three phases use the same layer three ways — cache hit, window-moved
// rebuild (advancing arrivals), window-kept fold (backfill arrivals) — so
// a gain for one that costs another shows.
func runQueryFresh(e *env) error {
	sc := e.sc
	pre := sc.preloadRecords / batchRecords
	advN := int(sc.advancingDur.Seconds() * float64(sc.queryIngestPerS))
	bfN := int(sc.backfillDur.Seconds() * float64(sc.queryIngestPerS))
	adv, err := e.st.encodeBatches(0, pre+advN, 0)
	if err != nil {
		return err
	}
	// Backfill batches come from further down the stream, moved back whole
	// days so they land inside what the node will hold by then.
	shift, err := e.st.backfillShift(pre+advN, pre+advN+bfN, e.st.lastTime(pre+advN))
	if err != nil {
		return err
	}
	bf, err := e.st.encodeBatches(pre+advN, pre+advN+bfN, shift)
	if err != nil {
		return err
	}
	walDir, err := e.freshDir("wal")
	if err != nil {
		return err
	}
	n, err := e.startNode(nodeConfig{walDir: walDir}, 0)
	if err != nil {
		return err
	}
	defer n.stop()
	if err := e.preload(n.base(), adv[:pre]); err != nil {
		return err
	}
	for _, q := range mixQ {
		if _, _, err := e.qconn.curveRaw(n.base(), q); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}
	e.setupDone()
	next := func(i int) query { return mixQ[i%len(mixQ)] }

	// Phase cached: no ingest, every request is a cache hit.
	end := e.phase("cached")
	cached, _ := e.queryLoop(n.base(), sc.cachedDur, next)
	end()
	lat, failed, hits := queryTimings(cached)
	e.res.count(len(cached), failed)
	t := summarize(lat, 99)
	e.res.set("query_cached_p50_ms", metric{Value: t.P50, N: t.N})
	if hits != len(lat) {
		e.res.problem("phase cached: %d of %d responses were not cache hits with no ingest running", len(lat)-hits, len(lat))
	}

	// Phase advancing: the data clock moves, so a dirty query rebuilds.
	dirty0, err := e.qconn.status(n.base())
	if err != nil {
		return err
	}
	end = e.phase("advancing")
	var dirty []querySample
	var queues []int
	ing := e.ingestBeside(n.base(), adv[pre:], sc.queryIngestPerS, sc.advancingDur, func() {
		dirty, queues = e.queryLoop(n.base(), sc.advancingDur, next)
	})
	speed := end()
	lat, failed, hits = queryTimings(dirty)
	e.res.count(len(dirty), failed)
	_, ingFailed := latencies(ing)
	e.res.count(len(ing), ingFailed)
	interval := time.Second / time.Duration(sc.queryIngestPerS)
	if e.openLoopValid("advancing", ing, interval, queues, "query_dirty_p50_ms", "query_dirty_p95_ms", "op_p10_ms") {
		t = summarize(lat, 95)
		e.res.set("query_dirty_p50_ms", metric{Value: t.P50, N: t.N})
		e.res.set("query_dirty_p95_ms", metric{Value: t.Tail, N: t.N, At: t.TailAt})
		v, n := quietByKind(dirty, len(mixQ), everyKind)
		e.res.set("op_p10_ms", scaled(v, speed, n))
		e.setLayer("bench.op_p50_ms", t.P50)
		e.setLayer("bench.op_tail_ms", t.Tail)
	}
	hitRatio := float64(hits) / float64(max(len(lat), 1))
	e.setLayer("live.cache_hit_ratio", hitRatio)
	// The old soak measured the cached path and called it a query: refuse
	// to do the same.
	if hitRatio > 0.25 {
		e.res.problem("phase advancing: %.0f%% of responses were cache hits (limit 25%%); the phase is not measuring dirty queries", 100*hitRatio)
	}

	// Phase backfill: same rate, but arrivals fall inside the loaded range,
	// so the observation window is kept and the incremental fold applies.
	end = e.phase("backfill")
	var filled []querySample
	ing = e.ingestBeside(n.base(), bf, sc.queryIngestPerS, sc.backfillDur, func() {
		filled, queues = e.queryLoop(n.base(), sc.backfillDur, next)
	})
	speed = end()
	lat, failed, _ = queryTimings(filled)
	e.res.count(len(filled), failed)
	_, ingFailed = latencies(ing)
	e.res.count(len(ing), ingFailed)
	if e.openLoopValid("backfill", ing, interval, queues, "query_backfill_p50_ms", "alt_p10_ms") {
		t = summarize(lat, 95)
		e.res.set("query_backfill_p50_ms", metric{Value: t.P50, N: t.N})
		v, n := quietByKind(filled, len(mixQ), everyKind)
		e.res.set("alt_p10_ms", scaled(v, speed, n))
	}

	st, err := e.qconn.status(n.base())
	if err != nil {
		return err
	}
	e.oracleCheck(n.base(), mixQ)
	if err := e.settle(n, walDir, st.RecordsAccepted); err != nil {
		return err
	}
	return e.traceQueryLayers(dirty0, st)
}
