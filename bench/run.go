package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// env is everything one run of one workload needs.
type env struct {
	ctx   context.Context
	bin   binaries
	work  string // this run's scratch directory
	sc    scale
	ds    *dataset
	st    stream
	began time.Time // process start: setup_s counts from here

	ingest *conn // the one ingest connection
	qconn  *conn // the one query connection (also carries status polls)
	orc    *oracle
	cal    *calibrator
	// idle is time set-up spent in waits of the benchmark's own choosing
	// (letting compaction settle); it does not shrink on a faster host, so
	// setup_s does not scale it.
	idle time.Duration
	tr   *tracer // nil: the node is a separate, untraced process

	res *result

	// acked lists every batch the node acked, in ack order. Only the
	// ingest goroutine appends; everyone else reads after it has joined.
	acked []wireBatch
	// ackedPos is how far into the advancing stream the acks have got, in
	// records, for the sliding windows the query goroutine aims while ingest
	// is running (window-cold sends the stream in order from its start).
	ackedPos atomic.Int64

	// What the traced run's layer arithmetic needs from ingest-steady: the
	// client-side samples of phase rate, and how long the WAL took to replay.
	rateSamples []sample
	replayTook  time.Duration
}

// stopOnce makes a node's stop idempotent, so a workload can defer it for
// its error paths and still call it where the run needs the node gone.
type stopOnce struct {
	node
	once sync.Once
	err  error
}

func (s *stopOnce) stop() error {
	s.once.Do(func() { s.err = s.node.stop() })
	return s.err
}

// startNode starts sensd with cfg: in-process and traced when e.tr is
// set, otherwise as a child process.
func (e *env) startNode(cfg nodeConfig, incarnation int) (node, error) {
	var n node
	var err error
	if e.tr != nil {
		n, err = startTraced(cfg, e.tr, e.qconn)
	} else {
		logPath := filepath.Join(e.work, fmt.Sprintf("sensd-%d.log", incarnation))
		n, err = startProc(e.bin, cfg, logPath, e.qconn)
	}
	if err != nil {
		return nil, err
	}
	return &stopOnce{node: n}, nil
}

// send posts one batch on the ingest connection and, if acked, records it.
func (e *env) send(base string, b wireBatch) bool {
	if !e.ingest.postBatch(base, b.body) {
		return false
	}
	e.acked = append(e.acked, b)
	e.ackedPos.Store(int64((b.index + 1) * batchRecords))
	return true
}

// preload ships batches closed-loop, untimed, as part of set-up.
func (e *env) preload(base string, batches []wireBatch) error {
	for _, b := range batches {
		if !e.send(base, b) {
			return fmt.Errorf("preload: batch %d was not acked", b.index)
		}
	}
	return nil
}

// ackedRecords rebuilds, in ack order, every record the node acked.
func (e *env) ackedRecords() []telemetry.Record {
	out := make([]telemetry.Record, 0, len(e.acked)*batchRecords)
	for _, b := range e.acked {
		out = append(out, e.st.records(b)...)
	}
	return out
}

// setupDone stamps setup_s: everything before the first timed request.
func (e *env) setupDone() {
	now := time.Now()
	total, idle := now.Sub(e.began).Seconds(), e.idle.Seconds()
	m := scaled(total-idle, e.cal.speed(e.began, now), 0)
	m.Value, m.Raw = m.Value+idle, total
	e.res.set("setup_s", m)
}

// statusPoller polls /v1/status once a second on the query connection
// while a phase runs and keeps the queue lengths it saw.
type statusPoller struct {
	stop   chan struct{}
	done   sync.WaitGroup
	queues []int
}

func (e *env) pollStatus(base string) *statusPoller {
	p := &statusPoller{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				if st, err := e.qconn.status(base); err == nil {
					p.queues = append(p.queues, st.QueueLength)
				}
			}
		}
	}()
	return p
}

// finish stops the poller and returns the queue lengths it saw.
func (p *statusPoller) finish() []int {
	close(p.stop)
	p.done.Wait()
	return p.queues
}

// backlogGrew reports a queue that only ever grew across a phase: the
// rate was above what the node sustains, so the phase's latencies describe
// the length of the run, not the node.
func backlogGrew(queues []int) bool {
	if len(queues) < 3 || queues[len(queues)-1] <= queues[0] {
		return false
	}
	for i := 1; i < len(queues); i++ {
		if queues[i] < queues[i-1] {
			return false
		}
	}
	return true
}

// openLoopValid applies the validity guards to one open-loop phase: the
// generator must have kept its schedule (p99 lateness within one send
// interval) and the node's backlog must not have grown monotonically.
// At the full scale a phase that fails either has its named metrics
// withheld as unresolved and fails the run. The timed and smoke scales run
// where a shared host decides how punctual the generator is, so there a
// late phase is reported with a note beside it: lateness says the numbers
// are noisy, not that the node's outputs are wrong.
func (e *env) openLoopValid(phase string, samples []sample, interval time.Duration, queues []int, metrics ...string) (ok bool) {
	lag := summarize(lags(samples), 99)
	// Reported for every open-loop phase; the workload's figure is its worst.
	if prev, seen := e.res.Layers["bench.send_lag_p99_ms"]; !seen || lag.Tail > prev.Value {
		e.setLayer("bench.send_lag_p99_ms", lag.Tail)
	}
	flag := e.res.note
	if e.sc.withhold {
		flag = e.res.problem
	}
	ok = true
	if lag.Tail > ms(interval) {
		flag("phase %s: generator ran late (send lag p%g %.2f ms > send interval %.2f ms)",
			phase, lag.TailAt, lag.Tail, ms(interval))
		ok = false
	}
	if backlogGrew(queues) {
		flag("phase %s: queue_length grew monotonically %v; the rate is above capacity", phase, queues)
		ok = false
	}
	if ok || !e.sc.withhold {
		return true
	}
	e.res.Unresolved = append(e.res.Unresolved, metrics...)
	return false
}

// checkCounts asserts the three record counts agree: what the client saw
// acked, what the node says it accepted (summed over incarnations), and
// what the durable layer actually holds.
func (e *env) checkCounts(acceptedTotal uint64, durable int) {
	acked := len(e.acked) * batchRecords
	e.res.count(2, 0)
	if uint64(acked) != acceptedTotal {
		e.res.Failed++
		e.res.problem("acked %d records but /v1/status.records_accepted_total says %d", acked, acceptedTotal)
	}
	if acked != durable {
		e.res.Failed++
		e.res.problem("acked %d records but the durable layer replays %d", acked, durable)
	}
}

// oracleCheck fetches each query once more after ingest has quiesced and
// compares it byte for byte with the batch estimator; every mismatch is a
// failed request.
func (e *env) oracleCheck(base string, queries []query) {
	defer e.phase("oracle")()
	acked := e.ackedRecords()
	for _, q := range queries {
		e.res.count(1, 0)
		if err := e.orc.check(e.qconn, base, acked, q); err != nil {
			e.res.Failed++
			e.res.problem("%v", err)
		}
	}
}

// settle ends a hot-only node's run: stop it, then check the record
// counts against what its WAL replays and weigh memory and disk.
func (e *env) settle(n node, walDir string, accepted uint64) error {
	if err := n.stop(); err != nil {
		return fmt.Errorf("stop sensd: %w", err)
	}
	durable, took, err := walRecords(walDir)
	if err != nil {
		return fmt.Errorf("replay WAL: %w", err)
	}
	e.replayTook = took
	e.checkCounts(accepted, durable)
	e.res.set("rss_peak_mb", metric{Value: n.rssPeakMB()})
	return e.diskMetric(walDir)
}

// walRecords counts the records a WAL directory replays, and times it.
func walRecords(dir string) (n int, took time.Duration, err error) {
	start := time.Now()
	err = wal.Replay(nil, dir, func(telemetry.Record) error { n++; return nil })
	return n, time.Since(start), err
}

// diskMetric reports (WAL + cold bytes) / acked records.
func (e *env) diskMetric(dirs ...string) error {
	b, err := dirBytes(dirs...)
	if err != nil {
		return err
	}
	acked := len(e.acked) * batchRecords
	if acked == 0 {
		return fmt.Errorf("no acked records to divide disk bytes by")
	}
	e.res.set("disk_bytes_per_rec", metric{Value: float64(b) / float64(acked), N: acked})
	return nil
}

// minuteFloor truncates a data time to the minute: at= has second
// resolution on the wire, and whole minutes make sliding windows repeat
// now and then, as a dashboard's would.
func minuteFloor(t timeutil.Millis) timeutil.Millis {
	return t - t%timeutil.MillisPerMinute
}

// freshDir (re)creates an empty directory under the run's scratch space.
func (e *env) freshDir(name string) (string, error) {
	dir := filepath.Join(e.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
