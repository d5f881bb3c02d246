package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/live"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// The cluster benchmarks run on whatever machine CI gives us — often a
// single core — so raw fsync parallelism cannot show up in wall-clock
// time there. Each node's WAL therefore syncs through a DelayFS modeling
// a network-attached block device (~8ms for a replicated durable write):
// N nodes block their writer goroutines on N *independent* modeled
// devices concurrently, which is exactly the resource a real N-node
// cluster multiplies. CPU work (decode, validate, append) stays real and
// shared; only the storage stall is modeled. See DESIGN.md "Cluster" for
// why this keeps the scaling claim honest.
const benchSyncDelay = 8 * time.Millisecond

// benchIngestRecords is the fixed workload one benchmark op ships: 64
// full 125-record batches. Spread across users 1..8192 so the ring splits it
// close to uniformly.
const (
	benchIngestRecords = 64 * benchBatchSize
	benchBatchSize     = 125
)

func benchStream(seed uint64, n int) []telemetry.Record {
	src := rng.New(seed)
	out := make([]telemetry.Record, n)
	for i := range out {
		out[i] = telemetry.Record{
			Time:      timeutil.Millis(src.Uint64n(uint64(2 * timeutil.MillisPerDay))),
			Action:    telemetry.ActionType(src.Intn(telemetry.NumActionTypes)),
			LatencyMS: 100 + 400*src.LogNormal(0, 0.4),
			UserID:    uint64(src.Intn(8192)) + 1,
			UserType:  telemetry.UserType(src.Intn(telemetry.NumUserTypes)),
		}
	}
	return out
}

// benchNode is one sensd stood up for real: a live collector server on a
// loopback port, WAL sink on a modeled block device, live engine fan-in.
// Beacons are acked only after the durable write, so the measured POST
// latency includes the device stall — the property that makes the
// throughput comparison meaningful.
type benchNode struct {
	srv *collector.Server
	url string // the node's /v1/beacons endpoint
}

func startBenchNode(b *testing.B, dir string) *benchNode {
	b.Helper()
	w, _, err := wal.Open(wal.Options{
		Dir:  dir,
		Sync: wal.SyncBatch,
		FS:   wal.NewDelayFS(nil, benchSyncDelay),
	})
	if err != nil {
		b.Fatal(err)
	}
	engine := newEngine(b, nil)
	srv, err := collector.NewServer(collector.ServerConfig{
		Sink:     w,
		SinkName: "wal",
		Live:     engine,
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return &benchNode{srv: srv, url: "http://" + addr + api.PathBeacons}
}

// ship encodes recs as benchBatchSize-record TBIN bodies and posts them
// in order, each acked (202) before the next is sent.
func (n *benchNode) ship(recs []telemetry.Record) error {
	var buf bytes.Buffer
	for lo := 0; lo < len(recs); lo += benchBatchSize {
		hi := min(lo+benchBatchSize, len(recs))
		buf.Reset()
		w := telemetry.NewWriter(&buf, telemetry.TBIN)
		if err := w.WriteAll(recs[lo:hi]); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		resp, err := http.Post(n.url, collector.ContentTypeTBIN, &buf)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST %s: status %d", n.url, resp.StatusCode)
		}
	}
	return nil
}

// BenchmarkClusterIngest measures aggregate durable ingest throughput of
// the full HTTP stack at 1 and 4 nodes. One op ships the same fixed
// 8000-record workload; with N nodes the ring splits it into N placement
// partitions shipped concurrently by per-node senders. The acceptance
// ratio is nodes=1 ns/op over nodes=4 ns/op.
func BenchmarkClusterIngest(b *testing.B) {
	for _, nodes := range []int{1, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			ids := make([]Node, nodes)
			for i := range ids {
				ids[i] = Node{ID: fmt.Sprintf("n%d", i+1)}
			}
			ring, err := NewRing(ids, 256)
			if err != nil {
				b.Fatal(err)
			}
			stream := benchStream(31, benchIngestRecords)
			parts := make([][]telemetry.Record, nodes)
			for _, r := range stream {
				n := ring.NodeFor(r.UserID)
				parts[n] = append(parts[n], r)
			}
			bn := make([]*benchNode, nodes)
			for i := range bn {
				bn[i] = startBenchNode(b, b.TempDir())
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for n := range bn {
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						if err := bn[n].ship(parts[n]); err != nil {
							b.Error(err)
						}
					}(n)
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(benchIngestRecords)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
		})
	}
}

// reportP99 attaches the p99 of individually timed ops as a custom
// metric, which benchjson records alongside ns/op.
func reportP99(b *testing.B, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p99 := samples[(len(samples)-1)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns/op")
}

// BenchmarkClusterQueryCached is the scatter-gather serving hot path: a
// coordinator over three nodes answering /v1/curves-backing queries from
// its version-vector cache. No partial is fetched per op — the point of
// the epoch cache surviving distribution — so this must stay within 10x
// of the single-node cached query (BenchmarkLiveQueryCached in
// BENCH_live.json).
func BenchmarkClusterQueryCached(b *testing.B) {
	stream := genStream(41, 30000, 2*timeutil.MillisPerDay)
	_, coord := newLocalCluster(b, 3, stream)
	if _, err := coord.Query(live.AllSlices, live.ModePlain, false); err != nil {
		b.Fatal(err)
	}
	samples := make([]time.Duration, 0, b.N/16+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			start := time.Now()
			if _, err := coord.Query(live.AllSlices, live.ModePlain, false); err != nil {
				b.Fatal(err)
			}
			samples = append(samples, time.Since(start))
			continue
		}
		if _, err := coord.Query(live.AllSlices, live.ModePlain, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportP99(b, samples)
}

// BenchmarkClusterQueryDirtyHTTP is the dirty path over real HTTP: each
// op appends fresh records to the three nodes, refreshes the known
// version vector, and the query fans out GET /v1/partials to all nodes,
// k-way-merges the columns and finishes the curve once. Column length
// grows slowly over the run (ops append), so compare runs at matching
// -benchtime.
func BenchmarkClusterQueryDirtyHTTP(b *testing.B) {
	stream := genStream(43, 30000, 2*timeutil.MillisPerDay)
	extra := genStream(44, 30000, 2*timeutil.MillisPerDay)
	engines := make([]*live.Engine, 3)
	srcs := make([]PartialSource, 3)
	for i := range engines {
		node := uint64(i)
		engines[i] = newEngine(b, func(u uint64) bool { return u%3 == node })
		appendStream(b, engines[i], stream)
		mux := http.NewServeMux()
		mux.Handle(api.PathPartials, engines[i].PartialsHandler())
		ts := httptest.NewServer(mux)
		b.Cleanup(ts.Close)
		srcs[i] = NewHTTPNode(ts.URL, nil)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Sources:      srcs,
		Options:      testOptions(),
		PollInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := coord.Query(live.AllSlices, live.ModePlain, false); err != nil {
		b.Fatal(err)
	}

	const chunk = 90
	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * chunk) % (len(extra) - chunk)
		for _, e := range engines {
			e.Append(extra[lo : lo+chunk])
		}
		start := time.Now()
		coord.Refresh(live.AllSlices)
		res, err := coord.Query(live.AllSlices, live.ModePlain, false)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("dirty query served from cache")
		}
		samples = append(samples, time.Since(start))
	}
	b.StopTimer()
	reportP99(b, samples)
}
