// Command sensd is the beacon collection server: it accepts batched
// latency beacons over HTTP (POST /v1/beacons per the collector API v1)
// and appends them either to a single telemetry log file or — with
// -wal-dir — to a segmented, CRC-framed write-ahead log with crash
// recovery, so beacons acked during overload or before a crash survive to
// analysis. GET /v1/status reports the queue and the startup recovery.
//
// -live keeps an in-memory query engine, warmed from the WAL, serving
// sensitivity curves at GET /v1/curves. -cold-dir compacts sealed WAL
// segments into a columnar cold tier and serves trailing-window curves
// (window=, at=) across both tiers. -cluster-peers with -node-id joins a
// scatter-gather cluster whose every member answers /v1/curves for all of
// it, byte-identical to one node holding everything. -watch raises
// alerts on NLP drift and latency incidents at /v1/alerts and /v1/report.
// A second listener (-admin-addr) serves /metrics, /healthz and
// /debug/pprof/. internal/node composes all of it.
//
// Examples:
//
//	sensd -addr 127.0.0.1:8787 -out telemetry.jsonl -admin-addr 127.0.0.1:8788
//	sensd -addr 127.0.0.1:8787 -wal-dir /var/lib/sensd/wal -fsync 250ms -queue-depth 128
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"autosens/internal/collector"
	"autosens/internal/live"
	"autosens/internal/node"
	"autosens/internal/obs"
	"autosens/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sensd:", err)
		os.Exit(1)
	}
}

func run() error {
	f := newFlags(flag.CommandLine)
	flag.Parse()
	log, err := obs.NewLogger(os.Stderr, f.logLevel)
	if err != nil {
		return err
	}
	if f.maxProcs > 0 {
		runtime.GOMAXPROCS(f.maxProcs)
		log.Info("GOMAXPROCS capped", "max_procs", f.maxProcs)
	}
	f.cfg.WAL.Format, f.cfg.Logger = f.format.Format(), log
	n, err := node.New(f.cfg)
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Info("shutting down")
	return n.Close()
}

// flags is sensd's command line: the node's configuration plus the
// process-wide settings.
type flags struct {
	cfg      node.Config
	format   *telemetry.FormatFlag
	maxProcs int
	logLevel string
}

// newFlags defines every sensd flag on fs.
func newFlags(fs *flag.FlagSet) *flags {
	f := &flags{format: telemetry.NewFormatFlag(telemetry.JSONL)}
	c := &f.cfg
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:8787", "listen address")
	fs.StringVar(&c.Out, "out", "telemetry.jsonl", "telemetry sink path (single-file mode; ignored with -wal-dir)")
	fs.Var(f.format, "format", "sink format: "+f.format.Choices())
	fs.StringVar(&c.WAL.Dir, "wal-dir", "",
		"write beacons to a segmented write-ahead log in this directory instead of a single file (jsonl or tbin formats)")
	fs.StringVar(&c.Fsync, "fsync", "batch",
		"WAL fsync policy: batch (fsync every append), off, or an interval like 250ms")
	fs.Int64Var(&c.WAL.SegmentMaxBytes, "wal-segment-bytes", 64<<20, "WAL segment rotation size in bytes")
	fs.IntVar(&c.QueueDepth, "queue-depth", collector.DefaultQueueDepth,
		"bound on beacon batches queued for the sink writer; a full queue sheds with 429")
	fs.StringVar(&c.AdminAddr, "admin-addr", "127.0.0.1:8788",
		"admin listen address serving /metrics, /healthz and /debug/pprof/ (empty disables)")
	fs.BoolVar(&c.Live, "live", false,
		"keep an in-memory live query engine fed from acked beacons and serve GET /v1/curves (requires -wal-dir)")
	fs.IntVar(&c.Engine.Shards, "live-shards", live.DefaultShards, "live engine shard count")
	fs.IntVar(&c.Engine.Workers, "live-workers", 0,
		"live engine recompute parallelism (0 = GOMAXPROCS); results are bit-identical at any setting")
	fs.BoolVar(&c.Prewarm, "live-prewarm", false,
		"after WAL warm, precompute every slice's plain curve in parallel so first queries hit the cache")
	fs.StringVar(&c.Peers, "cluster-peers", "",
		"cluster membership as id=url,id=url,... — every member passes the same list; requires -live, -wal-dir and -node-id")
	fs.StringVar(&c.NodeID, "node-id", "", "this node's ID within -cluster-peers")
	fs.StringVar(&c.Cold.Dir, "cold-dir", "",
		"compact sealed WAL segments into a queryable columnar cold tier in this directory and serve windowed queries over it (requires -live and -wal-dir)")
	fs.DurationVar(&c.Cold.Retention, "retention", 0,
		"cold-tier time retention: blocks whose newest record trails the newest cold record by more than this are dropped at compaction (0 keeps everything)")
	fs.DurationVar(&c.CompactInterval, "compact-interval", time.Minute,
		"cold-tier background compaction period")
	fs.Int64Var(&c.Cold.CacheBytes, "cold-cache-bytes", 256<<20,
		"decoded-block cache budget for cold windowed scans (0 disables; repeated trailing-window queries stop touching disk)")
	fs.BoolVar(&c.Watch, "watch", false,
		"run the sensitivity-ops watcher over the live store and serve GET /v1/alerts and /v1/report (requires -live)")
	fs.DurationVar(&c.Watcher.Interval, "watch-interval", 30*time.Second, "watcher tick period")
	fs.DurationVar(&c.Watcher.Window, "watch-window", 0,
		"watch a trailing window of data time instead of full history (0 = full history)")
	fs.StringVar(&c.WatchSlices, "watch-slices", "all",
		"semicolon-separated slice keys to watch for NLP drift (the all slice is always watched for incidents)")
	fs.Float64Var(&c.Watcher.Drift.MinDelta, "watch-drift-min-delta", 0, "NLP drift floor (0 = default 0.05)")
	fs.Float64Var(&c.Watcher.Drift.Z, "watch-drift-z", 0, "CI multiplier on the finite-window error (0 = default 2)")
	fs.Float64Var(&c.Watcher.Incident.Factor, "watch-incident-factor", 0,
		"recent/baseline shard latency ratio flagging a regression (0 = default 1.6)")
	fs.StringVar(&c.Watcher.ArtifactsDir, "watch-artifacts", "",
		"directory receiving alerts.json, report.json and report.html after every tick (empty disables)")
	fs.IntVar(&f.maxProcs, "max-procs", 0,
		"cap GOMAXPROCS, bounding estimator worker parallelism (0 leaves the runtime default)")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	return f
}
