// Package collector implements the telemetry ingestion path AutoSens
// assumes exists: clients measure end-to-end action latency and beacon it
// to the service, which logs it server-side (Section 2.1 — "such telemetry
// is available almost universally in the context of online services").
//
// The Server speaks the versioned contract in internal/collector/api: it
// accepts batched beacons (JSON array or TBIN) on POST /v1/beacons,
// decodes them into a bounded in-memory queue drained by a dedicated
// writer goroutine, and acknowledges a batch only after the Sink has
// accepted it — so a 202 means the data reached the durable layer, and a
// full queue sheds load with 429 + Retry-After instead of growing without
// bound. A shed batch was never written, so its sender may post it again
// once the advice has passed. The server is instrumented through an
// obs.Registry.
package collector

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/obs"
	"autosens/internal/telemetry"
)

// DefaultMaxBatchBytes bounds the accepted request body size.
const DefaultMaxBatchBytes = 8 << 20

// DefaultMaxBatchRecords bounds the number of records per beacon request.
const DefaultMaxBatchRecords = 10000

// DefaultQueueDepth is the default bound on batches queued for the sink
// writer. Handlers wait for their batch's result, so this is also the
// maximum number of in-flight beacon requests before the server sheds.
const DefaultQueueDepth = 64

// DefaultRetryAfter is the default retry advice attached to shed-load
// responses.
const DefaultRetryAfter = 500 * time.Millisecond

// ContentTypeTBIN selects the compact binary beacon encoding. Bodies with
// any other content type are decoded as a JSON array of records.
const ContentTypeTBIN = "application/x-autosens-tbin"

// Sink is the durable layer batches land in. WriteBatch reports how many
// records were persisted before any error — for an atomic sink (the WAL)
// that is all-or-nothing, for a plain file sink it may be a mid-batch
// prefix. Implementations need not be concurrency-safe: the server calls
// them from a single writer goroutine.
type Sink interface {
	WriteBatch(recs []telemetry.Record) (written int, err error)
	// Sync makes previously written records durable (flush/fsync).
	Sync() error
	// Close syncs and releases the sink. Called once, by Server.Shutdown.
	Close() error
}

// LiveSink receives every batch the durable sink has accepted, from the
// writer goroutine, after the sink write succeeds and before the client's
// ack — so anything it makes queryable is durable, and an acked batch is
// already visible (read-your-writes). Append must not retain the slice:
// it aliases per-request scratch that is recycled after the ack.
type LiveSink interface {
	Append(recs []telemetry.Record)
}

// writerSink adapts a telemetry.Writer — the degenerate single-file case.
type writerSink struct{ w *telemetry.Writer }

// NewWriterSink wraps a telemetry.Writer as a Sink. The writer must not
// be used by anyone else afterwards; Server.Shutdown closes it.
func NewWriterSink(w *telemetry.Writer) Sink { return writerSink{w} }

func (s writerSink) WriteBatch(recs []telemetry.Record) (int, error) {
	for i, rec := range recs {
		if err := s.w.Write(rec); err != nil {
			return i, err
		}
	}
	return len(recs), nil
}

func (s writerSink) Sync() error { return s.w.Flush() }

func (s writerSink) Close() error { return s.w.Close() }

// batchPool recycles the per-request record scratch so steady-state ingest
// does not allocate a fresh batch slice per beacon.
var batchPool = sync.Pool{New: func() any {
	b := make([]telemetry.Record, 0, 512)
	return &b
}}

// tbinReaders recycles TBIN beacon decoders beside the batch buffers, so
// a request reuses a decoder's input buffer and block payload instead of
// allocating them; Reset binds one to each request body.
var tbinReaders = sync.Pool{New: func() any {
	return telemetry.NewReader(nil, telemetry.TBIN)
}}

// serverMetrics bundles the registry handles the hot path uses.
type serverMetrics struct {
	batches      *obs.Counter
	accepted     *obs.Counter
	rejected     *obs.Counter
	badRequests  *obs.Counter
	shedBatches  *obs.Counter
	sinkFailures *obs.Counter
	serveErrors  *obs.Counter
	ingestDur    *obs.Histogram
	batchRecords *obs.Histogram
	queueWait    *obs.Histogram
	sinkWriteDur *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		batches:      reg.Counter("autosens_collector_batches_total", "beacon batches processed"),
		accepted:     reg.Counter("autosens_collector_records_accepted_total", "records validated and written to the sink"),
		rejected:     reg.Counter("autosens_collector_records_rejected_total", "records that failed validation"),
		badRequests:  reg.Counter("autosens_collector_bad_requests_total", "structurally invalid beacon requests"),
		shedBatches:  reg.Counter("autosens_collector_batches_shed_total", "batches rejected with 429 because the ingest queue was full"),
		sinkFailures: reg.Counter("autosens_collector_sink_failures_total", "batches aborted by a sink write error"),
		serveErrors:  reg.Counter("autosens_collector_serve_errors_total", "fatal errors from the HTTP accept loop"),
		ingestDur: reg.Histogram("autosens_collector_ingest_duration_seconds",
			"wall-clock time spent handling one beacon batch", obs.DefLatencyBuckets()),
		batchRecords: reg.Histogram("autosens_collector_batch_records",
			"records per beacon batch", obs.DefSizeBuckets()),
		queueWait: reg.Histogram("autosens_collector_queue_wait_seconds",
			"time a batch spent queued before the sink writer picked it up", obs.DefLatencyBuckets()),
		sinkWriteDur: reg.Histogram("autosens_collector_sink_write_duration_seconds",
			"time spent appending one batch to the sink", obs.DefLatencyBuckets()),
	}
}

// ServerConfig parameterizes a Server. Only Sink is required; every other
// zero value selects a production-shaped default.
type ServerConfig struct {
	// Sink receives every accepted batch. The server owns it after
	// NewServer: Shutdown closes it. Required.
	Sink Sink
	// SinkName labels the sink in /v1/status ("file", "wal"). Default
	// "file".
	SinkName string
	// QueueDepth bounds batches queued for the writer goroutine; a full
	// queue sheds with 429. Default DefaultQueueDepth. Negative is an
	// error.
	QueueDepth int
	// RetryAfter is the retry advice on 429/503 responses. Default
	// DefaultRetryAfter. Negative is an error.
	RetryAfter time.Duration
	// MaxBatchBytes bounds the request body. Default DefaultMaxBatchBytes.
	MaxBatchBytes int64
	// MaxBatchRecords bounds records per batch. Default
	// DefaultMaxBatchRecords.
	MaxBatchRecords int
	// Recovery, when the sink is a recovered WAL, is surfaced verbatim on
	// /v1/status.
	Recovery *api.RecoveryReport
	// Live, when non-nil, receives every durably accepted batch on the
	// writer goroutine (see LiveSink for the ordering contract).
	Live LiveSink
	// CurvesHandler, when non-nil, is mounted at api.PathCurves. The
	// collector stays decoupled from the query engine: the handler is
	// injected, typically from live.NewCurvesHandlerWith.
	CurvesHandler http.Handler
	// AlertsHandler, when non-nil, is mounted at api.PathAlerts — injected,
	// typically watch.Watcher.AlertsHandler().
	AlertsHandler http.Handler
	// ReportHandler, when non-nil, is mounted at api.PathReport.
	ReportHandler http.Handler
	// PartialsHandler, when non-nil, is mounted at api.PathPartials —
	// injected, typically live.Engine.PartialsHandler(). It is the
	// scatter-gather read surface cluster coordinators fetch mergeable
	// slice partials from.
	PartialsHandler http.Handler
	// BlocksHandler, when non-nil, is mounted at api.PathBlocks —
	// injected, typically store.Store.BlocksHandler(). Servers without a
	// tiered store leave it nil and the path 404s.
	BlocksHandler http.Handler
	// WatchStats, when non-nil, embeds the watcher's snapshot in
	// /v1/status.
	WatchStats func() api.WatchStats
	// StorageStats, when non-nil, embeds the tiered store's snapshot in
	// /v1/status.
	StorageStats func() api.StorageStats
	// Registry exports the server's metrics; nil uses a private registry.
	Registry *obs.Registry
	// Logger routes structured logs; nil uses slog.Default().
	Logger *slog.Logger
}

// writeReq is one decoded, validated batch waiting for the sink writer.
type writeReq struct {
	batch    []telemetry.Record
	enqueued time.Time
	done     chan writeRes
}

// writeRes is the writer's answer: how much was persisted, and the error
// if the sink gave one.
type writeRes struct {
	written int
	err     error
}

// Server ingests beacons and hands them to a Sink through a bounded
// queue.
type Server struct {
	cfg     ServerConfig
	sink    Sink
	reg     *obs.Registry
	m       serverMetrics
	log     *slog.Logger
	started time.Time

	queue    chan writeReq
	qmu      sync.RWMutex // guards stopping vs. enqueue
	stopping bool
	writerWG sync.WaitGroup

	mu          sync.Mutex // guards lastSinkErr
	lastSinkErr error

	httpSrv *http.Server
	ln      net.Listener

	errMu    sync.Mutex
	serveErr error
}

// NewServer validates cfg, starts the sink writer goroutine, and returns
// the server. The sink must not be used concurrently by other writers.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Sink == nil {
		return nil, errors.New("collector: nil sink")
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("collector: negative queue depth %d", cfg.QueueDepth)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter < 0 {
		return nil, fmt.Errorf("collector: negative retry-after %v", cfg.RetryAfter)
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.MaxBatchBytes < 0 || cfg.MaxBatchRecords < 0 {
		return nil, errors.New("collector: negative batch limit")
	}
	if cfg.MaxBatchBytes == 0 {
		cfg.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if cfg.MaxBatchRecords == 0 {
		cfg.MaxBatchRecords = DefaultMaxBatchRecords
	}
	if cfg.SinkName == "" {
		cfg.SinkName = "file"
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:     cfg,
		sink:    cfg.Sink,
		reg:     cfg.Registry,
		log:     cfg.Logger,
		started: time.Now(),
		queue:   make(chan writeReq, cfg.QueueDepth),
	}
	s.m = newServerMetrics(s.reg)
	s.reg.GaugeFunc("autosens_collector_uptime_seconds", "seconds since the server was constructed",
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.GaugeFunc("autosens_collector_queue_length", "batches waiting in the ingest queue",
		func() float64 { return float64(len(s.queue)) })
	s.writerWG.Add(1)
	go s.writerLoop()
	return s, nil
}

// writerLoop is the single sink writer: it serializes every batch into
// the sink and answers the waiting handler.
func (s *Server) writerLoop() {
	defer s.writerWG.Done()
	for req := range s.queue {
		s.m.queueWait.ObserveSince(req.enqueued)
		start := time.Now()
		written, err := s.sink.WriteBatch(req.batch)
		s.m.sinkWriteDur.ObserveSince(start)
		if err != nil {
			s.mu.Lock()
			s.lastSinkErr = err
			s.mu.Unlock()
		}
		// Durability before visibility: the live engine sees exactly the
		// records the sink persisted, and sees them before the handler
		// acks, so a client's own follow-up query reads its writes.
		if s.cfg.Live != nil && written > 0 {
			s.cfg.Live.Append(req.batch[:written])
		}
		req.done <- writeRes{written: written, err: err}
	}
}

// Registry returns the registry holding the server's metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the server's HTTP routes: the /v1 contract plus the
// unversioned operational endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathBeacons, s.handleBeacons)
	mux.HandleFunc(api.PathStatus, s.handleStatus)
	mux.HandleFunc(api.PathFormats, s.handleFormats)
	if s.cfg.CurvesHandler != nil {
		mux.Handle(api.PathCurves, s.cfg.CurvesHandler)
	}
	if s.cfg.AlertsHandler != nil {
		mux.Handle(api.PathAlerts, s.cfg.AlertsHandler)
	}
	if s.cfg.ReportHandler != nil {
		mux.Handle(api.PathReport, s.cfg.ReportHandler)
	}
	if s.cfg.PartialsHandler != nil {
		mux.Handle(api.PathPartials, s.cfg.PartialsHandler)
	}
	if s.cfg.BlocksHandler != nil {
		mux.Handle(api.PathBlocks, s.cfg.BlocksHandler)
	}
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("no such endpoint %s", r.URL.Path), 0)
	})
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("/metrics", s.reg.Handler())
	return mux
}

// BatchResponse aliases the v1 contract type for compatibility.
type BatchResponse = api.BatchResponse

func (s *Server) handleBeacons(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.m.ingestDur.ObserveSince(start)

	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"POST beacon batches to this endpoint", 0)
		return
	}
	scratch := batchPool.Get().(*[]telemetry.Record)
	defer func() {
		*scratch = (*scratch)[:0]
		batchPool.Put(scratch)
	}()
	tbin := r.Header.Get("Content-Type") == ContentTypeTBIN
	batch, status, code, msg := s.readBatch(w, r, tbin, (*scratch)[:0])
	*scratch = batch[:0] // keep any capacity the decode grew
	if status != 0 {
		s.m.badRequests.Inc()
		api.WriteError(w, status, code, msg, 0)
		return
	}
	s.m.batchRecords.Observe(float64(len(batch)))

	// Validate up front: the writer goroutine only ever sees clean
	// records, and rejects are counted whether or not the sink survives.
	// The TBIN reader has already validated every record it returned.
	valid, rejected := batch, 0
	if !tbin {
		valid = batch[:0]
		for _, rec := range batch {
			if rec.Validate() != nil {
				rejected++
				continue
			}
			valid = append(valid, rec)
		}
	}

	resp := api.BatchResponse{Rejected: rejected}
	if len(valid) > 0 {
		res, ok := s.submit(valid)
		if !ok {
			s.m.shedBatches.Inc()
			api.WriteError(w, http.StatusTooManyRequests, api.CodeQueueFull,
				"ingest queue full; retry with backoff", s.cfg.RetryAfter)
			return
		}
		resp.Accepted = res.written
		// Account for the batch whether or not the sink survived it: on a
		// mid-batch sink failure the records already written ARE in the
		// sink, so /metrics must count them or it permanently undercounts
		// relative to the sink's contents.
		s.m.batches.Inc()
		s.m.accepted.Add(uint64(resp.Accepted))
		s.m.rejected.Add(uint64(resp.Rejected))
		if res.err != nil {
			s.m.sinkFailures.Inc()
			s.log.Error("collector: sink write failed",
				"err", res.err, "written", res.written, "rejected", rejected, "batch", len(valid))
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeSinkUnavailable,
				"sink write failed; retry the batch", s.cfg.RetryAfter)
			return
		}
	} else {
		s.m.batches.Inc()
		s.m.rejected.Add(uint64(resp.Rejected))
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		return // client went away; nothing to do
	}
}

// submit enqueues a batch for the writer and waits for its result. A
// false ok means the queue was full (or the server is shutting down) and
// nothing was enqueued.
func (s *Server) submit(batch []telemetry.Record) (writeRes, bool) {
	req := writeReq{batch: batch, enqueued: time.Now(), done: make(chan writeRes, 1)}
	s.qmu.RLock()
	if s.stopping {
		s.qmu.RUnlock()
		return writeRes{}, false
	}
	select {
	case s.queue <- req:
		s.qmu.RUnlock()
	default:
		s.qmu.RUnlock()
		return writeRes{}, false
	}
	return <-req.done, true
}

// readBatch decodes the request body into dst, as TBIN or as a JSON
// array. A zero status means success; otherwise status, code and msg
// describe the v1 error to return.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request, tbin bool, dst []telemetry.Record) (batch []telemetry.Record, status int, code, msg string) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes)
	if tbin {
		return s.readBatchTBIN(body, dst)
	}
	return s.readBatchJSON(body, dst)
}

// decodeErr maps a body-decode error to the v1 error triple: the
// MaxBytesReader limit is "too large", anything else is a bad request.
func decodeErr(err error) (int, string, string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, api.CodeTooLarge, "body too large"
	}
	return http.StatusBadRequest, api.CodeBadRequest, "malformed batch"
}

// readBatchJSON streams a JSON array of records into dst without buffering
// the request body: each record is decoded as it arrives, so an 8 MB batch
// costs one record of decoder state instead of an 8 MB copy.
func (s *Server) readBatchJSON(body io.Reader, dst []telemetry.Record) ([]telemetry.Record, int, string, string) {
	dec := json.NewDecoder(body)
	tok, err := dec.Token()
	if err != nil {
		st, code, msg := decodeErr(err)
		return dst, st, code, msg
	}
	if tok == nil {
		// A JSON null batch is an empty batch, as with json.Unmarshal.
		if _, err := dec.Token(); err != io.EOF {
			return dst, http.StatusBadRequest, api.CodeBadRequest, "malformed batch"
		}
		return dst, 0, "", ""
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return dst, http.StatusBadRequest, api.CodeBadRequest, "malformed batch"
	}
	// rec lives outside the loop so handing its address to Decode heap-
	// allocates once per request, not once per record.
	var rec telemetry.Record
	for dec.More() {
		if len(dst) >= s.cfg.MaxBatchRecords {
			return dst, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
				fmt.Sprintf("batch exceeds %d records", s.cfg.MaxBatchRecords)
		}
		rec = telemetry.Record{}
		if err := dec.Decode(&rec); err != nil {
			st, code, msg := decodeErr(err)
			return dst, st, code, msg
		}
		dst = append(dst, rec)
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		st, code, msg := decodeErr(err)
		return dst, st, code, msg
	}
	if _, err := dec.Token(); err != io.EOF {
		return dst, http.StatusBadRequest, api.CodeBadRequest, "trailing data after batch"
	}
	return dst, 0, "", ""
}

// readBatchTBIN streams a TBIN beacon body into dst through a pooled
// reader.
func (s *Server) readBatchTBIN(body io.Reader, dst []telemetry.Record) ([]telemetry.Record, int, string, string) {
	tr := tbinReaders.Get().(*telemetry.Reader)
	tr.Reset(body)
	defer func() {
		tr.Reset(nil) // hold no reference to the request
		tbinReaders.Put(tr)
	}()
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			return dst, 0, "", ""
		}
		if err != nil {
			st, code, msg := decodeErr(err)
			return dst, st, code, msg
		}
		if len(dst) >= s.cfg.MaxBatchRecords {
			return dst, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
				fmt.Sprintf("batch exceeds %d records", s.cfg.MaxBatchRecords)
		}
		dst = append(dst, rec)
	}
}

// Status builds the /v1/status snapshot.
func (s *Server) Status() api.StatusResponse {
	s.mu.Lock()
	lastErr := s.lastSinkErr
	s.mu.Unlock()
	st := api.StatusResponse{
		Status:          "ok",
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Sink:            s.cfg.SinkName,
		QueueDepth:      s.cfg.QueueDepth,
		QueueLength:     len(s.queue),
		Batches:         s.m.batches.Value(),
		RecordsAccepted: s.m.accepted.Value(),
		RecordsRejected: s.m.rejected.Value(),
		BatchesShed:     s.m.shedBatches.Value(),
		SinkFailures:    s.m.sinkFailures.Value(),
		Recovery:        s.cfg.Recovery,
	}
	// The live engine exposes its stats through an optional interface so
	// the collector keeps depending only on LiveSink.
	if ls, ok := s.cfg.Live.(interface{ LiveStats() api.LiveStats }); ok {
		stats := ls.LiveStats()
		st.Live = &stats
	}
	if s.cfg.WatchStats != nil {
		stats := s.cfg.WatchStats()
		st.Watch = &stats
	}
	if s.cfg.StorageStats != nil {
		stats := s.cfg.StorageStats()
		st.Storage = &stats
	}
	if lastErr != nil {
		st.Status = "degraded"
		st.LastSinkError = lastErr.Error()
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"GET this endpoint", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Status())
}

func (s *Server) handleFormats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"GET this endpoint", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.FormatsResponse{Formats: []api.FormatInfo{
		{Name: "json", ContentType: "application/json"},
		{Name: "tbin", ContentType: ContentTypeTBIN},
	}})
}

// Health reports uptime and sink status for the admin surface.
func (s *Server) Health() obs.Health {
	s.mu.Lock()
	lastErr := s.lastSinkErr
	s.mu.Unlock()
	h := obs.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Details: map[string]any{
			"sink_records_accepted": s.m.accepted.Value(),
			"sink_failures":         s.m.sinkFailures.Value(),
			"queue_length":          len(s.queue),
			"queue_depth":           s.cfg.QueueDepth,
			"batches_shed":          s.m.shedBatches.Value(),
		},
	}
	if lastErr != nil {
		h.Status = "degraded"
		h.Details["sink_last_error"] = lastErr.Error()
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	w.Header().Set("Content-Type", "application/json")
	if h.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(h)
}

// Start begins serving on addr (e.g. "127.0.0.1:0") and returns the bound
// address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The accept loop died underneath us: count it, log it, and
			// hold the error for Shutdown to return.
			s.m.serveErrors.Inc()
			s.log.Error("collector: serve failed", "addr", ln.Addr().String(), "err", err)
			s.errMu.Lock()
			s.serveErr = err
			s.errMu.Unlock()
		}
	}()
	return ln.Addr().String(), nil
}

// ServeError returns the fatal accept-loop error, if one occurred.
func (s *Server) ServeError() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.serveErr
}

// Shutdown gracefully stops the server: the listener drains, the queue is
// closed and the writer finishes every batch already accepted, and the
// sink is closed (which flushes it). If the accept loop had already
// failed, that error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.qmu.Lock()
	stopping := s.stopping
	s.stopping = true
	s.qmu.Unlock()
	if !stopping {
		close(s.queue)
	}
	s.writerWG.Wait()
	if cerr := s.sink.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if serr := s.ServeError(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// Stats returns current counters.
func (s *Server) Stats() (batches, accepted, rejectedRecords, badRequests uint64) {
	return s.m.batches.Value(), s.m.accepted.Value(), s.m.rejected.Value(), s.m.badRequests.Value()
}

// QueueStats returns the queue bound, its current length, and how many
// batches have been shed with 429.
func (s *Server) QueueStats() (depth, length int, shed uint64) {
	return s.cfg.QueueDepth, len(s.queue), s.m.shedBatches.Value()
}
