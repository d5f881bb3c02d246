package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/obs"
	"autosens/internal/store"
	"autosens/internal/telemetry"
	"autosens/internal/wal"
)

// tracedNode is sensd composed in-process from the same public
// constructors cmd/sensd uses, in the same order (wal.Open → store.Open →
// live.New → warm → collector.NewServer), with the benchmark's decorators
// handed to every seam the code already injects. Behaviour is sensd's;
// only the observation is added.
type tracedNode struct {
	url   string
	ready time.Duration
	http  *http.Server
	srv   *collector.Server
	reg   *obs.Registry

	stopCompactor context.CancelFunc
	compactorDone sync.WaitGroup

	// Start-up figures of this incarnation.
	openMS      float64 // store.Open
	warmNS      int64   // engine.Warm over the surviving WAL
	warmRecords int
}

func (n *tracedNode) base() string           { return n.url }
func (n *tracedNode) readyIn() time.Duration { return n.ready }
func (n *tracedNode) rssPeakMB() float64     { return 0 }

func (n *tracedNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.http.Shutdown(ctx)
	if n.stopCompactor != nil {
		n.stopCompactor()
		n.compactorDone.Wait()
	}
	// The collector never started its own listener, so Shutdown only drains
	// the writer and closes the sink (the WAL).
	if serr := n.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	return err
}

// startTraced composes and starts the traced node, then waits for
// /v1/status like the process variant does.
func startTraced(cfg nodeConfig, tr *tracer, q *conn) (*tracedNode, error) {
	start := time.Now()
	n := &tracedNode{reg: obs.NewRegistry()}
	if tr.walFS == nil {
		// One FS across incarnations, so totals span a restart.
		tr.walFS = &countingFS{inner: wal.OSFS(), t: tr, syncName: "wal.fsync"}
	}
	policy, every, err := wal.ParseSyncPolicy(fsyncPolicy)
	if err != nil {
		return nil, err
	}
	w, recovery, err := wal.Open(wal.Options{
		Dir: cfg.walDir, Format: telemetry.TBIN, SegmentMaxBytes: cfg.segBytes,
		Sync: policy, SyncEvery: every, FS: tr.walFS, Registry: n.reg,
	})
	if err != nil {
		return nil, err
	}
	srvCfg := collector.ServerConfig{
		Sink: tracedSink{inner: w, t: tr}, SinkName: "wal", Registry: n.reg,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Recovery: &api.RecoveryReport{
			Segments: recovery.Segments, RecordsRecovered: recovery.RecordsRecovered,
			RecordsLost: recovery.RecordsLost, TornBytes: recovery.TornBytes,
			TruncatedSegments: recovery.TruncatedSegments, ActiveSegment: recovery.ActiveSegment,
		},
	}
	engine, err := live.New(live.Config{Registry: n.reg})
	if err != nil {
		return nil, err
	}
	var cold *store.Store
	if cfg.coldDir != "" {
		if tr.coldFS == nil {
			tr.coldFS = &countingFS{inner: wal.OSFS(), t: tr, syncName: "store.fsync", readRoot: cfg.walDir}
		}
		openStart := time.Now()
		cold, err = store.Open(store.Config{
			Dir: cfg.coldDir, WALDir: cfg.walDir, FS: tr.coldFS, Active: w.ActiveSegment,
			CacheBytes: cfg.cacheBytes, Registry: n.reg,
		})
		if err != nil {
			return nil, err
		}
		n.openMS = ms(time.Since(openStart))
		engine.SetBaseSeq(cold.Cutover())
	}
	warmStart := time.Now()
	if n.warmRecords, err = engine.Warm(cfg.walDir); err != nil {
		return nil, err
	}
	n.warmNS = int64(time.Since(warmStart))
	var curvesOpts live.CurvesHandlerOptions
	if cold != nil {
		engine.AttachCold(tracedCold{inner: cold, t: tr})
		ctx, cancel := context.WithCancel(context.Background())
		n.stopCompactor = cancel
		n.compactorDone.Add(1)
		go func() {
			defer n.compactorDone.Done()
			compactLoop(ctx, cold, cfg.compactInterval, tr)
		}()
		curvesOpts.OldestRetained = cold.OldestRetained
		srvCfg.BlocksHandler = cold.BlocksHandler()
		srvCfg.StorageStats = func() api.StorageStats {
			st := cold.Stats()
			st.HotBytes = engine.StoreBytes()
			return st
		}
	}
	srvCfg.Live = tracedLive{inner: engine, t: tr}
	srvCfg.CurvesHandler = live.NewCurvesHandlerWith(tracedQuerier{inner: engine, t: tr}, curvesOpts)
	srvCfg.PartialsHandler = engine.PartialsHandler()
	srv, err := collector.NewServer(srvCfg)
	if err != nil {
		return nil, err
	}
	core.EnableMetrics(srv.Registry())
	telemetry.EnableMetrics(srv.Registry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.http = &http.Server{Handler: tr.handler(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := n.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("traced node: serve:", err)
		}
	}()
	n.url = "http://127.0.0.1:" + strconv.Itoa(ln.Addr().(*net.TCPAddr).Port)
	if err := waitReady(q, n.url, 30*time.Second); err != nil {
		_ = n.stop()
		return nil, err
	}
	n.ready = time.Since(start)
	tr.last = n
	return n, nil
}

// compactLoop is store.CompactLoop with a span around each fold that did
// something, annotated with the WAL bytes it consumed and the cold bytes
// it wrote (read off the store's counting FS; compactions are
// single-flight, and only they write through it or read the WAL through
// it).
func compactLoop(ctx context.Context, cold *store.Store, interval time.Duration, tr *tracer) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			read0, wrote0 := tr.coldFS.readBytes.Load(), tr.coldFS.writeBytes.Load()
			id, start := tr.begin()
			folded, err := cold.CompactOnce()
			if err != nil || folded == 0 {
				continue
			}
			note := fmt.Sprintf("%d %d", tr.coldFS.readBytes.Load()-read0, tr.coldFS.writeBytes.Load()-wrote0)
			tr.finish(id, 0, 0, "store.compact", start, note)
		}
	}
}
