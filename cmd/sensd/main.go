// Command sensd is the beacon collection server: it accepts batched
// latency beacons over HTTP (POST /v1/beacons per the collector API v1)
// and appends them either to a single telemetry log file or — with
// -wal-dir — to a segmented, CRC-framed write-ahead log with crash
// recovery, so beacons acked during overload or before a crash survive to
// analysis. GET /v1/status reports the queue and the startup recovery.
// With -live, acked beacons additionally feed an in-memory sharded query
// engine serving epoch-cached sensitivity curves at GET /v1/curves,
// warmed from the WAL on startup so restarts don't lose query coverage.
//
// With -cold-dir, a background compactor folds the WAL's sealed segments
// into a columnar cold tier of sorted, zone-mapped block files, keeping
// history queryable past the hot store's RAM and the WAL's disk budget.
// GET /v1/curves then accepts window= and at= for trailing-window curves
// served by merging the cold tier with the live store at a sequence
// cutover, GET /v1/blocks lists the block manifest, and /v1/status gains
// a storage section. -retention bounds cold history by data age.
//
// With -cluster-peers and -node-id, sensd joins a scatter-gather cluster:
// a consistent-hash ring places every user on exactly one node, the live
// engine keeps (and warms from the WAL) only this node's owned users,
// GET /v1/partials exports mergeable curve partials, and GET /v1/curves
// on ANY node scatter-gathers the whole cluster's partials, merges them
// and finishes the curve once — byte-identical to a single node holding
// everything. Ship beacons through a placement-routing client (loadgen
// -cluster) so each record lands on its owning node.
//
// A second listener (-admin-addr) exposes the operational surface:
// Prometheus metrics at /metrics, a liveness probe at /healthz, and the Go
// profiler under /debug/pprof/. It binds loopback by default and can be
// disabled with -admin-addr "".
//
// Examples:
//
//	sensd -addr 127.0.0.1:8787 -out telemetry.jsonl -admin-addr 127.0.0.1:8788
//	sensd -addr 127.0.0.1:8787 -wal-dir /var/lib/sensd/wal -fsync 250ms -queue-depth 128
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sensd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8787", "listen address")
	out := flag.String("out", "telemetry.jsonl", "telemetry sink path (single-file mode; ignored with -wal-dir)")
	format := telemetry.NewFormatFlag(telemetry.JSONL)
	flag.Var(format, "format", "sink format: "+format.Choices())
	walDir := flag.String("wal-dir", "",
		"write beacons to a segmented write-ahead log in this directory instead of a single file (jsonl or tbin formats)")
	fsyncFlag := flag.String("fsync", "batch",
		"WAL fsync policy: batch (fsync every append), off, or an interval like 250ms")
	segBytes := flag.Int64("wal-segment-bytes", 64<<20, "WAL segment rotation size in bytes")
	queueDepth := flag.Int("queue-depth", collector.DefaultQueueDepth,
		"bound on beacon batches queued for the sink writer; a full queue sheds with 429")
	adminAddr := flag.String("admin-addr", "127.0.0.1:8788",
		"admin listen address serving /metrics, /healthz and /debug/pprof/ (empty disables)")
	liveOn := flag.Bool("live", false,
		"keep an in-memory live query engine fed from acked beacons and serve GET /v1/curves")
	liveShards := flag.Int("live-shards", live.DefaultShards, "live engine shard count")
	liveWorkers := flag.Int("live-workers", 0,
		"live engine recompute parallelism (0 = GOMAXPROCS); results are bit-identical at any setting")
	livePrewarm := flag.Bool("live-prewarm", false,
		"after WAL warm, precompute every slice's plain curve in parallel so first queries hit the cache")
	clusterPeers := flag.String("cluster-peers", "",
		"cluster membership as id=url,id=url,... — every member passes the same list; requires -live, -wal-dir and -node-id")
	nodeID := flag.String("node-id", "", "this node's ID within -cluster-peers")
	coldDir := flag.String("cold-dir", "",
		"compact sealed WAL segments into a queryable columnar cold tier in this directory and serve windowed queries over it (requires -live and -wal-dir)")
	retention := flag.Duration("retention", 0,
		"cold-tier time retention: blocks whose newest record trails the newest cold record by more than this are dropped at compaction (0 keeps everything)")
	compactInterval := flag.Duration("compact-interval", time.Minute,
		"cold-tier background compaction period")
	coldCacheBytes := flag.Int64("cold-cache-bytes", 256<<20,
		"decoded-block cache budget for cold windowed scans (0 disables; repeated trailing-window queries stop touching disk)")
	watchOn := flag.Bool("watch", false,
		"run the sensitivity-ops watcher over the live store and serve GET /v1/alerts and /v1/report (requires -live)")
	watchInterval := flag.Duration("watch-interval", 30*time.Second, "watcher tick period")
	watchWindow := flag.Duration("watch-window", 0,
		"watch a trailing window of data time instead of full history (0 = full history)")
	watchSlices := flag.String("watch-slices", "all",
		"semicolon-separated slice keys to watch for NLP drift (the all slice is always watched for incidents)")
	watchMinDelta := flag.Float64("watch-drift-min-delta", 0, "NLP drift floor (0 = default 0.05)")
	watchZ := flag.Float64("watch-drift-z", 0, "CI multiplier on the finite-window error (0 = default 2)")
	watchFactor := flag.Float64("watch-incident-factor", 0,
		"recent/baseline shard latency ratio flagging a regression (0 = default 1.6)")
	watchArtifacts := flag.String("watch-artifacts", "",
		"directory receiving alerts.json, report.json and report.html after every tick (empty disables)")
	maxProcs := flag.Int("max-procs", 0,
		"cap GOMAXPROCS, bounding estimator worker parallelism (0 leaves the runtime default)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		return err
	}
	if *maxProcs > 0 {
		runtime.GOMAXPROCS(*maxProcs)
		log.Info("GOMAXPROCS capped", "max_procs", *maxProcs)
	}

	reg := obs.NewRegistry()
	srvCfg := collector.ServerConfig{
		QueueDepth: *queueDepth,
		Registry:   reg,
		Logger:     log,
	}
	var sinkDesc string
	var theWAL *wal.WAL // non-nil iff -wal-dir; the cold compactor reads its append target
	if *walDir != "" {
		policy, every, err := wal.ParseSyncPolicy(*fsyncFlag)
		if err != nil {
			return err
		}
		w, recovery, err := wal.Open(wal.Options{
			Dir:             *walDir,
			Format:          format.Format(),
			SegmentMaxBytes: *segBytes,
			Sync:            policy,
			SyncEvery:       every,
			Registry:        reg,
		})
		if err != nil {
			return err
		}
		log.Info("wal recovered",
			"dir", *walDir,
			"segments", recovery.Segments,
			"records_recovered", recovery.RecordsRecovered,
			"records_lost", recovery.RecordsLost,
			"torn_bytes", recovery.TornBytes,
			"truncated_segments", recovery.TruncatedSegments,
			"active_segment", recovery.ActiveSegment)
		theWAL = w
		srvCfg.Sink = w
		srvCfg.SinkName = "wal"
		srvCfg.Recovery = &api.RecoveryReport{
			Segments:          recovery.Segments,
			RecordsRecovered:  recovery.RecordsRecovered,
			RecordsLost:       recovery.RecordsLost,
			TornBytes:         recovery.TornBytes,
			TruncatedSegments: recovery.TruncatedSegments,
			ActiveSegment:     recovery.ActiveSegment,
		}
		sinkDesc = *walDir + " (wal, fsync=" + *fsyncFlag + ")"
	} else {
		file, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer file.Close()
		srvCfg.Sink = collector.NewWriterSink(telemetry.NewWriter(file, format.Format()))
		sinkDesc = *out
	}

	if *watchOn && !*liveOn {
		return fmt.Errorf("-watch requires -live")
	}
	if *coldDir != "" && (!*liveOn || *walDir == "") {
		return fmt.Errorf("-cold-dir requires -live and -wal-dir")
	}
	// Cluster membership: build the ring every member agrees on and find
	// ourselves in it. Ownership filtering, owned-range WAL warm and the
	// scatter-gather coordinator all hang off (ring, selfIdx).
	var (
		ring    *cluster.Ring
		peers   []cluster.Node
		selfIdx int
	)
	if *clusterPeers != "" {
		if !*liveOn {
			return fmt.Errorf("-cluster-peers requires -live")
		}
		if *walDir == "" {
			return fmt.Errorf("-cluster-peers requires -wal-dir")
		}
		peers, err = cluster.ParsePeers(*clusterPeers)
		if err != nil {
			return err
		}
		if selfIdx = cluster.FindNode(peers, *nodeID); selfIdx < 0 {
			return fmt.Errorf("-node-id %q is not in -cluster-peers", *nodeID)
		}
		if ring, err = cluster.NewRing(peers, 0); err != nil {
			return err
		}
	} else if *nodeID != "" {
		return fmt.Errorf("-node-id requires -cluster-peers")
	}
	var watcher *watch.Watcher
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	if *liveOn {
		engine, err := live.New(live.Config{
			Shards:   *liveShards,
			Workers:  *liveWorkers,
			Registry: reg,
		})
		if err != nil {
			return err
		}
		// The cold tier opens BEFORE the WAL warm: Open deletes segments
		// already folded into blocks (so the replay cannot re-load records
		// the cold tier serves) and yields the cutover watermark the
		// engine's sequence counter must start from, so every hot record's
		// seq lands at or above it.
		var cold *store.Store
		if *coldDir != "" {
			var owns func(uint64) bool
			if ring != nil {
				owns = ring.Owns(selfIdx)
			}
			cold, err = store.Open(store.Config{
				Dir:        *coldDir,
				WALDir:     *walDir,
				Retention:  *retention,
				Active:     theWAL.ActiveSegment,
				Owns:       owns,
				CacheBytes: *coldCacheBytes,
				Registry:   reg,
				Logger:     slog.NewLogLogger(log.Handler(), slog.LevelInfo),
			})
			if err != nil {
				return err
			}
			engine.SetBaseSeq(cold.Cutover())
			log.Info("cold tier opened", "dir", *coldDir,
				"cutover_seq", cold.Cutover(), "retention", *retention,
				"cache_bytes", *coldCacheBytes)
		}
		if *walDir != "" {
			// The WAL is open but nothing appends until the server starts,
			// so replaying here sees a quiescent log. Replay order is append
			// order — the previous incarnation's ack order — so warmed
			// curves are byte-identical to ones served before the restart.
			// In cluster mode the replay keeps only this node's owned users:
			// handed-off segments from a departed peer may over-ship records,
			// and the filter makes that harmless.
			var replayed int
			if ring != nil {
				replayed, err = engine.WarmOwned(*walDir, ring.Owns(selfIdx))
			} else {
				replayed, err = engine.Warm(*walDir)
			}
			if err != nil {
				return err
			}
			log.Info("live engine warmed", "records_replayed", replayed,
				"records_stored", engine.Records(), "store_bytes", engine.StoreBytes())
		}
		var curvesOpts live.CurvesHandlerOptions
		if cold != nil {
			engine.AttachCold(cold)
			go cold.CompactLoop(watchCtx, *compactInterval)
			curvesOpts.Retention = *retention
			curvesOpts.OldestRetained = cold.OldestRetained
			srvCfg.BlocksHandler = cold.BlocksHandler()
			srvCfg.StorageStats = func() api.StorageStats {
				st := cold.Stats()
				st.HotBytes = engine.StoreBytes()
				return st
			}
			log.Info("cold compactor running",
				"interval", *compactInterval, "endpoint", api.PathBlocks)
		}
		srvCfg.Live = engine
		srvCfg.CurvesHandler = live.NewCurvesHandlerWith(engine, curvesOpts)
		srvCfg.PartialsHandler = engine.PartialsHandler()
		log.Info("live queries enabled",
			"shards", *liveShards, "endpoint", api.PathCurves)
		// Cluster mode: local appends stay ownership-filtered, and
		// /v1/curves is served by a scatter-gather coordinator over every
		// peer's /v1/partials (ourselves read in-process) — so THIS node
		// answers for the whole cluster, byte-identical to a single node.
		var watchStore watch.Store = engine
		if ring != nil {
			srvCfg.Live = ownedLive{e: engine, owns: ring.Owns(selfIdx)}
			srcs := make([]cluster.PartialSource, len(peers))
			for i, p := range peers {
				if i == selfIdx {
					srcs[i] = cluster.LocalNode{Engine: engine}
				} else {
					srcs[i] = cluster.NewHTTPNode(p.URL, nil)
				}
			}
			coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
				Sources: srcs,
				Workers: *liveWorkers,
			})
			if err != nil {
				return err
			}
			srvCfg.CurvesHandler = live.NewCurvesHandlerWith(coord, curvesOpts)
			watchStore = coord
			log.Info("cluster mode enabled",
				"node", *nodeID, "peers", len(peers),
				"partials_endpoint", api.PathPartials)
		}
		if *livePrewarm {
			warmStart := time.Now()
			_, errs := engine.QueryMany(cell.Keys(), live.ModePlain, false)
			warmed := 0
			for _, err := range errs {
				if err == nil {
					warmed++
				}
			}
			log.Info("live curves prewarmed", "slices", warmed,
				"elapsed", time.Since(warmStart).Round(time.Millisecond))
		}

		if *watchOn {
			var keys []live.SliceKey
			for _, term := range strings.Split(*watchSlices, ";") {
				if term = strings.TrimSpace(term); term == "" {
					continue
				}
				key, err := live.ParseSliceKey(term)
				if err != nil {
					return fmt.Errorf("-watch-slices: %w", err)
				}
				keys = append(keys, key)
			}
			watcher, err = watch.New(watch.Config{
				Engine:       watchStore,
				Slices:       keys,
				Interval:     *watchInterval,
				Window:       *watchWindow,
				Drift:        watch.DriftConfig{MinDelta: *watchMinDelta, Z: *watchZ},
				Incident:     watch.IncidentConfig{Factor: *watchFactor},
				ArtifactsDir: *watchArtifacts,
				Registry:     reg,
				Logger:       log,
			})
			if err != nil {
				return err
			}
			srvCfg.AlertsHandler = watcher.AlertsHandler()
			srvCfg.ReportHandler = watcher.ReportHandler()
			srvCfg.WatchStats = watcher.Stats
			go watcher.Run(watchCtx)
			log.Info("sensitivity watcher enabled",
				"interval", *watchInterval, "slices", *watchSlices,
				"endpoints", api.PathAlerts+" "+api.PathReport)
		}
	}

	srv, err := collector.NewServer(srvCfg)
	if err != nil {
		return err
	}
	// Export estimator-core counters (autosens_core_*) and codec counters
	// (autosens_ingest_*) alongside the collector's own metrics on the
	// admin /metrics endpoint.
	core.EnableMetrics(srv.Registry())
	telemetry.EnableMetrics(srv.Registry())
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	log.Info("listening", "addr", "http://"+bound, "sink", sinkDesc)

	var admin *http.Server
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		admin = &http.Server{Handler: obs.AdminMux(srv.Registry(), srv.Health)}
		go func() {
			if err := admin.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Error("admin server failed", "err", err)
			}
		}()
		log.Info("admin surface up", "addr", "http://"+ln.Addr().String(),
			"endpoints", "/metrics /healthz /debug/pprof/")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Info("shutting down")
	watchCancel()
	if watcher != nil {
		ws := watcher.Stats()
		log.Info("watcher stats", "ticks", ws.Ticks,
			"recomputes", ws.Recomputes, "skips", ws.Skips,
			"alerts_raised", ws.AlertsRaised, "firing", ws.Firing)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if admin != nil {
		if err := admin.Shutdown(ctx); err != nil {
			log.Warn("admin shutdown", "err", err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	batches, accepted, rejected, bad := srv.Stats()
	_, _, shed := srv.QueueStats()
	log.Info("final stats",
		"batches", batches, "accepted", accepted, "rejected", rejected,
		"bad_requests", bad, "batches_shed", shed)
	return nil
}

// ownedLive filters the live fan-in to this node's owned users while
// still consuming every record's seq slot. Placement-routed ingest sends
// only owned records here, so the filter is normally a no-op — it exists
// so records that arrive anyway (a stale sender ring, an over-shipped
// WAL handoff replayed by a peer) are dropped instead of double-counted.
type ownedLive struct {
	e    *live.Engine
	owns func(uint64) bool
}

func (o ownedLive) Append(recs []telemetry.Record) { o.e.AppendOwned(recs, o.owns) }
