package main

import "time"

// ingestOracle is what ingest-steady checks. The run leaves millions of
// records behind and an estimate costs time in proportion to its slice,
// so the check uses three narrow slices rather than all of Q; that no
// record was lost or doubled on the way in is what the acked == accepted
// == replayed count check shows.
var ingestOracle = []query{
	{slice: "action:ComposeSend", mode: "plain"},
	{slice: "action:Search,usertype:consumer", mode: "plain"},
	{slice: "action:SwitchFolder,usertype:business", mode: "plain"},
}

// runIngestSteady is the write path alone — telemetry decode → collector
// queue → wal write/fsync → live append → 202 — on a fresh node with no
// cold tier. The query connection only polls /v1/status once a second, so
// core and store do nothing: a query-side change must leave it flat.
//
// Phase "rate" is an open loop at a fixed rate (latency at a load the
// node sustains); phase "capacity" is one closed-loop client (the most
// one connection can push). At the timed scale the capacity phase sends a
// fixed number of batches, so what the node holds at the end — its
// resident set, its bytes on disk — does not depend on how fast the host
// happened to be.
func runIngestSteady(e *env) error {
	sc := e.sc
	interval := time.Second / time.Duration(sc.rateBatchesPerS)
	rateN := int(sc.rateDur / interval)
	capN := sc.capacityBatches
	if capN == 0 {
		capN = int(sc.capacityDur.Seconds()*capacityBudgetRecsPerS) / batchRecords
	}
	batches, err := e.st.encodeBatches(0, rateN+capN, 0)
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
	// Warm the connection and the node's first-request paths with one
	// batch outside the timed phases.
	if err := e.preload(n.base(), batches[:1]); err != nil {
		return err
	}
	batches = batches[1:]
	e.setupDone()

	// Phase rate.
	end := e.phase("rate")
	poll := e.pollStatus(n.base())
	rate := openLoop(wallClock{}, interval, sc.rateDur, rateN-1, func(i int) bool {
		return e.send(n.base(), batches[i])
	})
	end()
	queues := poll.finish()
	lat, failed := latencies(rate)
	e.res.count(len(rate), failed)
	if e.openLoopValid("rate", rate, interval, queues, "ingest_ack_p50_ms", "ingest_ack_p95_ms", "ingest_ack_p99_ms", "op_p10_ms") {
		t := summarize(lat, 99)
		e.res.set("ingest_ack_p50_ms", metric{Value: t.P50, N: t.N})
		e.res.set("ingest_ack_p99_ms", metric{Value: t.Tail, N: t.N, At: t.TailAt})
		// About one request in fifty waits behind the 250 ms fsync, so p99
		// sits inside that population and moves with every stall the
		// sandbox adds to it; p95 is the highest percentile that holds a
		// bound here, and is the tail the driver is given.
		e.res.set("ingest_ack_p95_ms", metric{Value: percentile(lat, 95), N: t.N})
		// As measured, not scaled to the reference host: a paced
		// sub-millisecond ack is spent waiting for cores to wake, not
		// computing, and does not follow the calibrator — scaling it doubled
		// its run-to-run spread (7 % to 13 % over ten seeds).
		e.res.set("op_p10_ms", metric{Value: quiet(lat), N: t.N})
		e.setLayer("bench.op_p50_ms", t.P50)
		e.setLayer("bench.op_tail_ms", percentile(lat, 95))
	}
	e.rateSamples = rate

	// Phase capacity.
	rest := batches[len(rate):]
	end = e.phase("capacity")
	poll = e.pollStatus(n.base())
	start := time.Now()
	capLimit := sc.capacityDur
	if sc.capacityBatches > 0 {
		capLimit *= 5 // the count ends the phase; the clock only bounds a stalled host
	}
	capacity := closedLoop(wallClock{}, capLimit, len(rest), func(i int) bool {
		return e.send(n.base(), rest[i])
	})
	elapsed := time.Since(start)
	speed := end()
	poll.finish()
	clat, failed := latencies(capacity)
	e.res.count(len(capacity), failed)
	if sc.capacityBatches == 0 && len(capacity) == len(rest) {
		e.res.note("capacity phase sent all %d pre-encoded batches in %.1fs and ended early", len(rest), elapsed.Seconds())
	}
	krps := float64(len(clat)*batchRecords) / elapsed.Seconds() / 1000
	e.res.set("ingest_capacity_krps", metric{Value: krps, N: len(clat)})
	// The contrasting path to the paced acks of phase rate: the same ack
	// with the node kept busy.
	e.res.set("alt_p10_ms", scaled(quiet(clat), speed, len(clat)))

	// Quiesced: counts, oracle, then stop and weigh what is left on disk.
	st, err := e.qconn.status(n.base())
	if err != nil {
		return err
	}
	e.oracleCheck(n.base(), ingestOracle)
	if err := e.settle(n, walDir, st.RecordsAccepted); err != nil {
		return err
	}
	return e.traceIngestLayers(st)
}
