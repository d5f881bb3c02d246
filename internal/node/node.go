// Package node composes one sensd node from one Config, in the only order
// that keeps the hot/cold partition exact: the sink (a recovered WAL or a
// single telemetry file); the cold tier, whose Open deletes segments
// already folded into blocks and yields the cutover the engine's seqs
// start from, so every hot record lands above every cold one; the WAL
// warm, replaying the surviving tail in the previous incarnation's ack
// order while nothing appends; the cold attach, cluster coordinator and
// watcher; and last the collector server, which feeds the engine after
// every durable write.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"autosens/internal/cell"
	"autosens/internal/cluster"
	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/obs"
	"autosens/internal/store"
	"autosens/internal/telemetry"
	"autosens/internal/wal"
	"autosens/internal/watch"
)

// Config is one node's configuration; every field is a sensd flag. The
// package configs keep their own defaults; the node sets their wiring
// fields (registries, loggers, ownership, the other tiers' handles).
type Config struct {
	Addr      string // ingest listen address
	AdminAddr string // admin listen address; "" disables the admin surface
	Out       string // the single-file sink, used when WAL.Dir is ""
	// WAL configures the write-ahead log; an empty Dir selects the
	// single-file sink. Format is the sink encoding either way.
	WAL wal.Options
	// Fsync is the WAL fsync policy text (wal.ParseSyncPolicy); it sets
	// WAL.Sync and WAL.SyncEvery.
	Fsync      string
	QueueDepth int // collector queue bound

	Live    bool        // run the live query engine
	Engine  live.Config // Shards, Workers, estimator options
	Prewarm bool        // warm every slice before serving
	Peers   string      // cluster membership, id=url,...; "" is one node
	NodeID  string      // this node's ID within Peers

	Cold            store.Config  // an empty Dir disables the cold tier
	CompactInterval time.Duration // cold compaction period

	Watch       bool         // run the sensitivity watcher
	Watcher     watch.Config // Interval, Window, detectors, ArtifactsDir
	WatchSlices string       // semicolon-separated drift slice keys

	Logger *slog.Logger // nil discards
}

// Node is a composed sensd node. Start serves it; Close stops it.
type Node struct {
	cfg      Config
	log      *slog.Logger
	srv      *collector.Server
	file     *os.File // the single-file sink; nil with a WAL
	sinkDesc string
	cold     *store.Store
	watcher  *watch.Watcher

	addr, adminAddr string
	admin           *http.Server
	stop            context.CancelFunc // ends the compactor and the watcher
	bg              sync.WaitGroup     // the compactor and the watcher
}

// New opens and wires every tier cfg enables; nothing is served until
// Start. Flag combinations the node cannot honour are refused before
// anything is opened.
func New(cfg Config) (_ *Node, err error) {
	switch {
	case cfg.Watch && !cfg.Live:
		return nil, errors.New("-watch requires -live")
	case cfg.Cold.Dir != "" && (!cfg.Live || cfg.WAL.Dir == ""):
		return nil, errors.New("-cold-dir requires -live and -wal-dir")
	case cfg.Peers != "" && !cfg.Live:
		return nil, errors.New("-cluster-peers requires -live")
	case cfg.Peers != "" && cfg.WAL.Dir == "":
		return nil, errors.New("-cluster-peers requires -wal-dir")
	case cfg.Peers == "" && cfg.NodeID != "":
		return nil, errors.New("-node-id requires -cluster-peers")
	case cfg.Live && cfg.WAL.Dir == "":
		// The engine warms only from a WAL; over a file sink a restart
		// would serve curves of the post-restart records alone.
		return nil, errors.New("-live requires -wal-dir")
	}
	n := &Node{cfg: cfg, log: cfg.Logger, sinkDesc: cfg.Out}
	if n.log == nil {
		n.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := obs.NewRegistry()
	srvCfg := collector.ServerConfig{QueueDepth: cfg.QueueDepth, Registry: reg, Logger: n.log}
	var w *wal.WAL
	if cfg.WAL.Dir != "" {
		opts := cfg.WAL
		if opts.Sync, opts.SyncEvery, err = wal.ParseSyncPolicy(cfg.Fsync); err != nil {
			return nil, err
		}
		opts.Registry = reg
		var rec *wal.Recovery
		if w, rec, err = wal.Open(opts); err != nil {
			return nil, err
		}
		n.log.Info("wal recovered",
			"dir", opts.Dir,
			"segments", rec.Segments,
			"records_recovered", rec.RecordsRecovered,
			"records_lost", rec.RecordsLost,
			"torn_bytes", rec.TornBytes,
			"truncated_segments", rec.TruncatedSegments,
			"active_segment", rec.ActiveSegment)
		report := api.RecoveryReport(*rec)
		srvCfg.Sink, srvCfg.SinkName, srvCfg.Recovery = w, "wal", &report
		n.sinkDesc = opts.Dir + " (wal, fsync=" + cfg.Fsync + ")"
	} else {
		if n.file, err = os.OpenFile(cfg.Out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, err
		}
		srvCfg.Sink = collector.NewWriterSink(telemetry.NewWriter(n.file, cfg.WAL.Format))
	}
	defer func() {
		if err != nil { // the server never took the sink over
			_ = srvCfg.Sink.Close()
			if n.file != nil {
				_ = n.file.Close()
			}
		}
	}()
	if cfg.Live {
		if err := n.wireLive(&srvCfg, w, reg); err != nil {
			return nil, err
		}
	}
	if n.srv, err = collector.NewServer(srvCfg); err != nil {
		return nil, err
	}
	// Estimator-core (autosens_core_*) and codec (autosens_ingest_*)
	// counters join the collector's on the admin /metrics endpoint.
	core.EnableMetrics(reg)
	telemetry.EnableMetrics(reg)
	return n, nil
}

// wireLive builds the engine and everything that reads it, and mounts
// their handlers on srvCfg.
func (n *Node) wireLive(srvCfg *collector.ServerConfig, w *wal.WAL, reg *obs.Registry) error {
	cfg, ecfg := n.cfg, n.cfg.Engine
	ecfg.Registry = reg
	// Cluster membership: the ring every member agrees on and our place
	// in it. Ownership, the owned-range warm and the coordinator hang off
	// (ring, self).
	var (
		ring  *cluster.Ring
		peers []cluster.Node
		self  int
		err   error
	)
	if cfg.Peers != "" {
		if peers, err = cluster.ParsePeers(cfg.Peers); err != nil {
			return err
		}
		if self = cluster.FindNode(peers, cfg.NodeID); self < 0 {
			return fmt.Errorf("-node-id %q is not in -cluster-peers", cfg.NodeID)
		}
		if ring, err = cluster.NewRing(peers, 0); err != nil {
			return err
		}
		ecfg.Owns = ring.Owns(self)
	}
	engine, err := live.New(ecfg)
	if err != nil {
		return err
	}
	if cfg.Cold.Dir != "" {
		scfg := cfg.Cold
		scfg.WALDir, scfg.Active, scfg.Owns = cfg.WAL.Dir, w.ActiveSegment, ecfg.Owns
		scfg.Registry, scfg.Logger = reg, slog.NewLogLogger(n.log.Handler(), slog.LevelInfo)
		if n.cold, err = store.Open(scfg); err != nil {
			return err
		}
		engine.SetBaseSeq(n.cold.Cutover())
		n.log.Info("cold tier opened", "dir", scfg.Dir,
			"cutover_seq", n.cold.Cutover(), "retention", scfg.Retention,
			"cache_bytes", scfg.CacheBytes)
	}
	replayed, err := engine.Warm(cfg.WAL.Dir)
	if err != nil {
		return err
	}
	n.log.Info("live engine warmed", "records_replayed", replayed,
		"records_stored", engine.Records(), "store_bytes", engine.StoreBytes())
	var curvesOpts live.CurvesHandlerOptions
	if n.cold != nil {
		engine.AttachCold(n.cold)
		curvesOpts.Retention = cfg.Cold.Retention
		curvesOpts.OldestRetained = n.cold.OldestRetained
		srvCfg.BlocksHandler = n.cold.BlocksHandler()
		srvCfg.StorageStats = func() api.StorageStats {
			st := n.cold.Stats()
			st.HotBytes = engine.StoreBytes()
			return st
		}
		n.log.Info("cold compactor running",
			"interval", cfg.CompactInterval, "endpoint", api.PathBlocks)
	}
	srvCfg.Live = engine
	srvCfg.CurvesHandler = live.NewCurvesHandlerWith(engine, curvesOpts)
	srvCfg.PartialsHandler = engine.PartialsHandler()
	n.log.Info("live queries enabled",
		"shards", cfg.Engine.Shards, "endpoint", api.PathCurves)
	// In cluster mode /v1/curves is a scatter-gather coordinator over
	// every peer's /v1/partials (ourselves read in-process), so THIS node
	// answers for the whole cluster, byte-identical to a single node.
	var watchStore watch.Store = engine
	if ring != nil {
		srcs := make([]cluster.PartialSource, len(peers))
		for i, p := range peers {
			if i == self {
				srcs[i] = cluster.LocalNode{Engine: engine}
			} else {
				srcs[i] = cluster.NewHTTPNode(p.URL, nil)
			}
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Sources: srcs,
			Options: engine.Options(),
			CI:      cfg.Engine.CI,
			Workers: cfg.Engine.Workers,
		})
		if err != nil {
			return err
		}
		srvCfg.CurvesHandler = live.NewCurvesHandlerWith(coord, curvesOpts)
		watchStore = coord
		n.log.Info("cluster mode enabled",
			"node", cfg.NodeID, "peers", len(peers),
			"partials_endpoint", api.PathPartials)
	}
	if cfg.Prewarm {
		start := time.Now()
		warmed := prewarm(engine, ring != nil)
		n.log.Info("live curves prewarmed", "slices", warmed,
			"elapsed", time.Since(start).Round(time.Millisecond))
	}
	if !cfg.Watch {
		return nil
	}
	wcfg := cfg.Watcher
	wcfg.Engine, wcfg.Slices, wcfg.Registry, wcfg.Logger = watchStore, nil, reg, n.log
	for _, term := range strings.Split(cfg.WatchSlices, ";") {
		if term = strings.TrimSpace(term); term == "" {
			continue
		}
		key, err := live.ParseSliceKey(term)
		if err != nil {
			return fmt.Errorf("-watch-slices: %w", err)
		}
		wcfg.Slices = append(wcfg.Slices, key)
	}
	if n.watcher, err = watch.New(wcfg); err != nil {
		return err
	}
	srvCfg.AlertsHandler = n.watcher.AlertsHandler()
	srvCfg.ReportHandler = n.watcher.ReportHandler()
	srvCfg.WatchStats = n.watcher.Stats
	n.log.Info("sensitivity watcher enabled",
		"interval", wcfg.Interval, "slices", cfg.WatchSlices,
		"endpoints", api.PathAlerts+" "+api.PathReport)
	return nil
}

// prewarm fills what the first queries read and returns how many slices
// hold records. A single node answers /v1/curves from the engine, so its
// plain curves are computed. A cluster member's /v1/curves is the
// coordinator, which reads only the engine's partials, so their shard
// views are built instead and the engine's curve cache stays empty.
func prewarm(engine *live.Engine, clustered bool) int {
	warmed := 0
	if clustered {
		for _, key := range cell.Keys() {
			if p, err := engine.PartialWindow(key, live.Window{}); err == nil && p.Len() > 0 {
				warmed++
			}
		}
		return warmed
	}
	_, errs := engine.QueryMany(cell.Keys(), live.ModePlain, false)
	for _, err := range errs {
		if err == nil {
			warmed++
		}
	}
	return warmed
}

// Start starts the compactor and the watcher and binds the ingest and
// admin listeners. After a failed Start, Close still releases the node.
func (n *Node) Start() error {
	ctx, cancel := context.WithCancel(context.Background())
	n.stop = cancel
	if n.cold != nil {
		n.bg.Add(1)
		go func() {
			defer n.bg.Done()
			n.cold.CompactLoop(ctx, n.cfg.CompactInterval)
		}()
	}
	if n.watcher != nil {
		n.bg.Add(1)
		go func() {
			defer n.bg.Done()
			n.watcher.Run(ctx)
		}()
	}
	bound, err := n.srv.Start(n.cfg.Addr)
	if err != nil {
		return err
	}
	n.addr = bound
	n.log.Info("listening", "addr", "http://"+bound, "sink", n.sinkDesc)
	if n.cfg.AdminAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", n.cfg.AdminAddr)
	if err != nil {
		return fmt.Errorf("admin listener: %w", err)
	}
	n.adminAddr = ln.Addr().String()
	n.admin = &http.Server{Handler: obs.AdminMux(n.srv.Registry(), n.srv.Health)}
	go func() {
		if err := n.admin.Serve(ln); err != nil && err != http.ErrServerClosed {
			n.log.Error("admin server failed", "err", err)
		}
	}()
	n.log.Info("admin surface up", "addr", "http://"+n.adminAddr,
		"endpoints", "/metrics /healthz /debug/pprof/")
	return nil
}

// Close stops the compactor and the watcher and waits until both have
// returned, so no fold or tick runs against a closing WAL; then it shuts
// the admin listener, drains the collector (every accepted batch reaches
// the sink) and closes the sink.
func (n *Node) Close() error {
	if n.stop != nil {
		n.stop()
	}
	n.bg.Wait()
	if n.watcher != nil {
		ws := n.watcher.Stats()
		n.log.Info("watcher stats", "ticks", ws.Ticks,
			"recomputes", ws.Recomputes, "skips", ws.Skips,
			"alerts_raised", ws.AlertsRaised, "firing", ws.Firing)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n.admin != nil {
		if err := n.admin.Shutdown(ctx); err != nil {
			n.log.Warn("admin shutdown", "err", err)
		}
	}
	err := n.srv.Shutdown(ctx)
	if n.file != nil {
		if cerr := n.file.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	batches, accepted, rejected, bad := n.srv.Stats()
	_, _, shed := n.srv.QueueStats()
	n.log.Info("final stats",
		"batches", batches, "accepted", accepted, "rejected", rejected,
		"bad_requests", bad, "batches_shed", shed)
	return nil
}
