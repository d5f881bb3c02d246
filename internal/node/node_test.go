package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autosens/internal/cell"
	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/owasim"
	"autosens/internal/rng"
	"autosens/internal/store"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
	"autosens/internal/watch"
)

// testOptions thins the estimator's per-slot floor so a two-day stream
// of a few dozen users yields normalized curves.
func testOptions() core.Options {
	o := core.DefaultOptions()
	o.MinSlotActions = 10
	return o
}

// defaults is the Config sensd's flag defaults give, with the listeners
// on ephemeral loopback ports, the admin surface off and the engine on
// testOptions.
func defaults(t *testing.T) Config {
	return Config{
		Addr:            "127.0.0.1:0",
		Out:             filepath.Join(t.TempDir(), "telemetry.jsonl"),
		WAL:             wal.Options{SegmentMaxBytes: 64 << 20},
		Fsync:           "batch",
		QueueDepth:      collector.DefaultQueueDepth,
		Engine:          live.Config{Shards: live.DefaultShards, Options: testOptions()},
		Cold:            store.Config{CacheBytes: 256 << 20},
		CompactInterval: time.Minute,
		Watcher:         watch.Config{Interval: 30 * time.Second},
		WatchSlices:     "all",
	}
}

// records is a two-day owasim stream at second resolution, shuffled: it
// arrives out of time order and full of time ties, so the cold and hot
// tiers interleave in time and only the (time, seq) order of their merge
// breaks the ties as ack order does.
func records(t *testing.T) []telemetry.Record {
	t.Helper()
	cfg := owasim.DefaultConfig(2*timeutil.MillisPerDay, 20, 20)
	cfg.Seed = 41
	res, err := owasim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]telemetry.Record, len(res.Records))
	for i, j := range rng.New(7).Perm(len(recs)) {
		recs[i] = res.Records[j]
		recs[i].Time -= recs[i].Time % 1000
	}
	return recs
}

// gate is a log handler that parks the first compaction inside
// CompactOnce, at its install log line, until release is closed.
type gate struct {
	held, release chan struct{}
	once          sync.Once
}

func (g *gate) Enabled(context.Context, slog.Level) bool { return true }
func (g *gate) WithAttrs([]slog.Attr) slog.Handler       { return g }
func (g *gate) WithGroup(string) slog.Handler            { return g }
func (g *gate) Handle(_ context.Context, r slog.Record) error {
	if strings.HasPrefix(r.Message, "store: compacted") {
		g.once.Do(func() {
			close(g.held)
			<-g.release
		})
	}
	return nil
}

// client is a test HTTP client that keeps no idle connections, so a
// closed node leaves no client goroutine behind.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}

func start(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		_ = n.Close()
		t.Fatal(err)
	}
	return n
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// ship posts recs as TBIN beacon batches and requires every one acked.
func ship(t *testing.T, n *Node, recs []telemetry.Record) {
	t.Helper()
	for lo := 0; lo < len(recs); lo += 500 {
		var body bytes.Buffer
		w := telemetry.NewWriter(&body, telemetry.TBIN)
		for _, r := range recs[lo:min(lo+500, len(recs))] {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post("http://"+n.addr+api.PathBeacons, collector.ContentTypeTBIN, &body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("beacon batch at %d: status %d", lo, resp.StatusCode)
		}
	}
}

func status(t *testing.T, n *Node) api.StatusResponse {
	t.Helper()
	code, body := get(t, "http://"+n.addr+api.PathStatus)
	var st api.StatusResponse
	if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil {
		t.Fatalf("status: %d %v: %s", code, err, body)
	}
	return st
}

// curve fetches one /v1/curves response's curve object.
func curve(t *testing.T, n *Node, query string) []byte {
	t.Helper()
	code, body := get(t, "http://"+n.addr+api.PathCurves+"?"+query)
	var resp api.CurvesResponse
	if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil {
		t.Fatalf("curves?%s: %d %v: %s", query, code, err, body)
	}
	return resp.Curve
}

// TestConfigs drives every sensd flag through New and one request over a
// real listener: each accepted combination serves, each refused one is
// refused with the text sensd prints.
func TestConfigs(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	type probe struct {
		admin bool   // ask the admin listener instead of the ingest one
		path  string // GET path; "" posts one beacon batch
		want  int
	}
	beacon, beacons := probe{want: http.StatusAccepted}, records(t)[:50]
	cases := []struct {
		name   string
		set    func(c *Config, dir string)
		probe  probe
		refuse string // New's (or, for listeners, Start's) error
	}{
		{name: "file sink", set: func(c *Config, _ string) {}, probe: beacon},
		{name: "file sink tbin", set: func(c *Config, _ string) { c.WAL.Format = telemetry.TBIN }, probe: beacon},
		{name: "file sink csv", set: func(c *Config, _ string) { c.WAL.Format = telemetry.CSV }, probe: beacon},
		{name: "queue depth", set: func(c *Config, _ string) { c.QueueDepth = 2 }, probe: beacon},
		{name: "admin metrics", set: func(c *Config, _ string) { c.AdminAddr = "127.0.0.1:0" },
			probe: probe{admin: true, path: "/metrics", want: http.StatusOK}},
		{name: "admin healthz", set: func(c *Config, _ string) { c.AdminAddr = "127.0.0.1:0" },
			probe: probe{admin: true, path: "/healthz", want: http.StatusOK}},
		{name: "wal", set: func(c *Config, d string) { c.WAL.Dir = d + "/wal" }, probe: beacon},
		{name: "wal fsync interval tbin", set: func(c *Config, d string) {
			c.WAL.Dir, c.Fsync, c.WAL.Format, c.WAL.SegmentMaxBytes = d+"/wal", "250ms", telemetry.TBIN, 4096
		}, probe: beacon},
		{name: "wal fsync off", set: func(c *Config, d string) { c.WAL.Dir, c.Fsync = d+"/wal", "off" }, probe: beacon},
		{name: "live", set: func(c *Config, d string) { c.Live, c.WAL.Dir = true, d+"/wal" },
			probe: probe{path: api.PathCurves + "?slice=bogus:x", want: http.StatusBadRequest}},
		{name: "live shards workers prewarm", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Engine.Shards, c.Engine.Workers, c.Prewarm = true, d+"/wal", 4, 2, true
		}, probe: probe{path: api.PathStatus, want: http.StatusOK}},
		{name: "cold", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Cold.Dir, c.Cold.Retention, c.CompactInterval = true, d+"/wal", d+"/cold", 48*time.Hour, time.Second
		}, probe: probe{path: api.PathBlocks, want: http.StatusOK}},
		{name: "cold cache off", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Cold.Dir, c.Cold.CacheBytes = true, d+"/wal", d+"/cold", 0
		}, probe: probe{path: api.PathCurves + "?slice=all&window=bogus", want: http.StatusBadRequest}},
		{name: "watch", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Watch, c.WatchSlices, c.Watcher.ArtifactsDir = true, d+"/wal", true, "all; action:SelectMail", d+"/ops"
		}, probe: probe{path: api.PathAlerts, want: http.StatusOK}},
		{name: "watch tuned", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Watch, c.Watcher.Interval, c.Watcher.Window = true, d+"/wal", true, time.Second, 24*time.Hour
			c.Watcher.Drift = watch.DriftConfig{MinDelta: 0.1, Z: 3}
			c.Watcher.Incident.Factor = 2
		}, probe: probe{path: api.PathReport, want: http.StatusOK}},
		{name: "cluster", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Peers, c.NodeID = true, d+"/wal", "n1=http://127.0.0.1:1", "n1"
		}, probe: probe{path: "/v1/partials?slice=all", want: http.StatusOK}},
		{name: "cluster cold watch prewarm", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Peers, c.NodeID = true, d+"/wal", "n1=http://127.0.0.1:1", "n1"
			c.Cold.Dir, c.Watch, c.Prewarm = d+"/cold", true, true
		}, probe: probe{path: api.PathCurves + "?slice=all&window=1h&at=1970-01-01T01:00:00Z", want: http.StatusNotFound}},

		{name: "watch without live", set: func(c *Config, _ string) { c.Watch = true },
			refuse: "-watch requires -live"},
		{name: "cold without live", set: func(c *Config, d string) { c.Cold.Dir, c.WAL.Dir = d+"/cold", d+"/wal" },
			refuse: "-cold-dir requires -live and -wal-dir"},
		{name: "cold without wal", set: func(c *Config, d string) { c.Cold.Dir, c.Live = d+"/cold", true },
			refuse: "-cold-dir requires -live and -wal-dir"},
		{name: "cluster without live", set: func(c *Config, d string) { c.Peers, c.WAL.Dir = "n1=http://x", d+"/wal" },
			refuse: "-cluster-peers requires -live"},
		{name: "cluster without wal", set: func(c *Config, _ string) { c.Peers, c.Live = "n1=http://x", true },
			refuse: "-cluster-peers requires -wal-dir"},
		{name: "node id without cluster", set: func(c *Config, _ string) { c.NodeID = "n1" },
			refuse: "-node-id requires -cluster-peers"},
		{name: "live file sink", set: func(c *Config, _ string) { c.Live = true },
			refuse: "-live requires -wal-dir"},
		{name: "node id not a peer", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Peers, c.NodeID = true, d+"/wal", "n1=http://x", "n9"
		}, refuse: `-node-id "n9" is not in -cluster-peers`},
		{name: "cluster without node id", set: func(c *Config, d string) { c.Live, c.WAL.Dir, c.Peers = true, d+"/wal", "n1=http://x" },
			refuse: `-node-id "" is not in -cluster-peers`},
		{name: "malformed peers", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Peers, c.NodeID = true, d+"/wal", "bogus", "n1"
		}, refuse: `cluster: peer "bogus": want id=url`},
		{name: "duplicate peers", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Peers, c.NodeID = true, d+"/wal", "n1=http://x,n1=http://y", "n1"
		}, refuse: `cluster: duplicate node ID "n1"`},
		{name: "fsync policy", set: func(c *Config, d string) { c.WAL.Dir, c.Fsync = d+"/wal", "sometimes" },
			refuse: `wal: fsync policy "sometimes" (want batch, off, or a positive duration)`},
		{name: "fsync interval", set: func(c *Config, d string) { c.WAL.Dir, c.Fsync = d+"/wal", "-5ms" },
			refuse: `wal: fsync policy "-5ms" (want batch, off, or a positive duration)`},
		{name: "segment bytes", set: func(c *Config, d string) { c.WAL.Dir, c.WAL.SegmentMaxBytes = d+"/wal", 10 },
			refuse: "wal: SegmentMaxBytes 10 too small"},
		{name: "wal csv", set: func(c *Config, d string) { c.WAL.Dir, c.WAL.Format = d+"/wal", telemetry.CSV },
			refuse: "wal: unsupported payload format csv (want jsonl or tbin)"},
		{name: "live shards", set: func(c *Config, d string) { c.Live, c.WAL.Dir, c.Engine.Shards = true, d+"/wal", -1 },
			refuse: "live: negative shard count -1"},
		{name: "live workers", set: func(c *Config, d string) { c.Live, c.WAL.Dir, c.Engine.Workers = true, d+"/wal", -1 },
			refuse: "live: negative workers"},
		{name: "queue depth negative", set: func(c *Config, _ string) { c.QueueDepth = -1 },
			refuse: "collector: negative queue depth -1"},
		{name: "watch slices", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Watch, c.WatchSlices = true, d+"/wal", true, "bogus:x"
		}, refuse: `-watch-slices: live: unknown slice dimension "bogus"`},
		{name: "watch interval", set: func(c *Config, d string) {
			c.Live, c.WAL.Dir, c.Watch, c.Watcher.Interval = true, d+"/wal", true, -time.Second
		}, refuse: "watch: negative interval"},
		{name: "out unopenable", set: func(c *Config, d string) { c.Out = d + "/missing/t.jsonl" },
			refuse: "open DIR/missing/t.jsonl: no such file or directory"},
		{name: "ingest address taken", set: func(c *Config, _ string) { c.Addr = busy.Addr().String() },
			refuse: "listen tcp " + busy.Addr().String() + ": bind: address already in use"},
		{name: "admin address taken", set: func(c *Config, _ string) { c.AdminAddr = busy.Addr().String() },
			refuse: "admin listener: listen tcp " + busy.Addr().String() + ": bind: address already in use"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := defaults(t)
			tc.set(&cfg, dir)
			n, err := New(cfg)
			if err == nil {
				defer func() {
					if err := n.Close(); err != nil {
						t.Error(err)
					}
				}()
				err = n.Start()
			}
			if tc.refuse != "" {
				want := strings.ReplaceAll(tc.refuse, "DIR", dir)
				if err == nil || err.Error() != want {
					t.Fatalf("error %v, want %q", err, want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.probe.path == "" {
				ship(t, n, beacons)
				return
			}
			addr := n.addr
			if tc.probe.admin {
				addr = n.adminAddr
			}
			if code, body := get(t, "http://"+addr+tc.probe.path); code != tc.probe.want {
				t.Fatalf("GET %s: %d, want %d: %s", tc.probe.path, code, tc.probe.want, body)
			}
		})
	}
}

// batch is the batch estimator over the acked records of one slice
// inside [from, to) (to 0 is unbounded), in ack order.
func batch(t *testing.T, acked []telemetry.Record, key cell.Key, normalized bool, from, to timeutil.Millis) []byte {
	t.Helper()
	recs := telemetry.Filter(acked, func(r telemetry.Record) bool {
		c, ok := cell.Of(r)
		return ok && key.Matches(c) && r.Time >= from && (to == 0 || r.Time < to)
	})
	est, err := core.NewEstimator(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	estimate := est.Estimate
	if normalized {
		estimate = est.EstimateTimeNormalized
	}
	c, err := estimate(recs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRestartServesSameBytes ingests over HTTP while the compactor folds
// sealed segments into the cold tier, then closes and reopens the node
// over the same directories. Every curve must survive byte for byte and
// equal the batch estimator over the acked records. Close must wait out
// a compaction in flight and leave no goroutine running, and the
// reopened WAL must have lost nothing.
func TestRestartServesSameBytes(t *testing.T) {
	acked := records(t)
	dir := t.TempDir()
	cfg := defaults(t)
	cfg.Live, cfg.Watch, cfg.Watcher.Interval = true, true, 50*time.Millisecond
	cfg.WAL.Dir, cfg.WAL.Format, cfg.WAL.SegmentMaxBytes = dir+"/wal", telemetry.TBIN, 16<<10
	cfg.Cold.Dir, cfg.CompactInterval = dir+"/cold", 50*time.Millisecond
	g := &gate{held: make(chan struct{}), release: make(chan struct{})}
	cfg.Logger = slog.New(g)

	before := runtime.NumGoroutine()
	n := start(t, cfg)
	through := status(t, n).Storage.CompactedThrough
	ship(t, n, acked)
	select {
	case <-g.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the compactor folded nothing in 10s")
	}
	if status(t, n).Storage.CompactedThrough == through {
		t.Fatal("a compaction installed without moving compacted_through")
	}

	// The whole history is also asked through a window: unwindowed
	// queries serve the hot tier, and once the node reopens that holds
	// only the tail the compactor had not folded.
	last := acked[0].Time
	for _, r := range acked {
		last = max(last, r.Time)
	}
	end := time.UnixMilli(int64(last) + 1000).UTC()
	whole := fmt.Sprintf("window=%s&at=%s", end.Sub(time.UnixMilli(0)), end.Format(time.RFC3339))
	at := timeutil.Millis(36 * timeutil.MillisPerHour)
	want := map[string][]byte{
		"plain":      batch(t, acked, cell.All, false, 0, 0),
		"normalized": batch(t, acked, cell.All, true, 0, 0),
		"windowed":   batch(t, acked, cell.All, false, at-12*timeutil.MillisPerHour, at),
	}
	queries := map[string]string{
		"plain":      "slice=all",
		"normalized": "slice=all&mode=normalized",
		"windowed":   "slice=all&window=12h&at=" + time.UnixMilli(int64(at)).UTC().Format(time.RFC3339),
	}
	for name, q := range queries {
		if got := curve(t, n, q); !bytes.Equal(got, want[name]) {
			t.Fatalf("%s curve before the restart differs from the batch estimator", name)
		}
	}

	closed := make(chan error)
	go func() { closed <- n.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a compaction was in flight", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(g.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
	}

	n = start(t, cfg)
	defer n.Close()
	if rec := status(t, n).Recovery; rec == nil || rec.RecordsLost != 0 || rec.TornBytes != 0 {
		t.Fatalf("reopened WAL recovery %+v, want nothing lost or torn", rec)
	}
	queries["plain"] = "slice=all&" + whole
	queries["normalized"] = "slice=all&mode=normalized&" + whole
	for name, q := range queries {
		if got := curve(t, n, q); !bytes.Equal(got, want[name]) {
			t.Fatalf("%s curve after the restart differs from the one before", name)
		}
	}
}

// TestOneMemberCluster runs a node as the only member of its cluster:
// its coordinator must serve the single node's bytes, and a prewarm
// must build the partials the coordinator reads, not engine curves.
func TestOneMemberCluster(t *testing.T) {
	acked := records(t)
	single := defaults(t)
	single.Live, single.WAL.Dir = true, t.TempDir()
	member := single
	member.WAL.Dir, member.Peers, member.NodeID = t.TempDir(), "n1=http://127.0.0.1:1", "n1"

	sn, mn := start(t, single), start(t, member)
	defer sn.Close()
	ship(t, sn, acked)
	ship(t, mn, acked)
	for _, q := range []string{"slice=all", "slice=action:SelectMail", "slice=usertype:business&mode=normalized"} {
		if !bytes.Equal(curve(t, mn, q), curve(t, sn, q)) {
			t.Fatalf("%s: the cluster member's curve differs from the single node's", q)
		}
	}
	if err := mn.Close(); err != nil {
		t.Fatal(err)
	}

	member.Prewarm = true
	mn = start(t, member)
	defer mn.Close()
	if st := status(t, mn).Live; st == nil || st.CachedCurves != 0 || st.DirtyCombos != 0 {
		t.Fatalf("cluster prewarm left engine curves: %+v", st)
	}
	if !bytes.Equal(curve(t, mn, "slice=all"), curve(t, sn, "slice=all")) {
		t.Fatal("the prewarmed cluster member's curve differs from the single node's")
	}
}
