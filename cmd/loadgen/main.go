// Command loadgen drives a sensd collector the way a fleet of browsers
// would: it runs the OWA workload simulation and ships every generated
// beacon to the collector endpoint through the batching client, using a
// configurable number of concurrent senders. With -query N it also runs N
// workers hammering GET /v1/curves for the whole ingest run (the server
// must be started with -live), reporting query latency p50/p99 at the end
// — the read-side tax on a loaded collector.
//
// With -cluster it drives a sensd cluster instead: beacons are routed by
// consistent-hash placement so each record lands on its owning node, and
// curve queries go to the first peer (any node answers for the whole
// cluster).
//
// Examples:
//
//	loadgen -url http://127.0.0.1:8787/v1/beacons -days 2 -business 40 -consumer 40 -query 4
//	loadgen -cluster n1=http://127.0.0.1:8787,n2=http://127.0.0.1:8789 -days 2 -query 4
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/cluster"
	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/owasim"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	url := flag.String("url", "http://127.0.0.1:8787/v1/beacons", "collector endpoint")
	clusterPeers := flag.String("cluster", "",
		"cluster membership as id=url,id=url,...: route each beacon to its owning node by ring placement (replaces -url; the list must match the nodes' -cluster-peers)")
	days := flag.Int("days", 2, "simulated window length in days")
	business := flag.Int("business", 40, "business users")
	consumer := flag.Int("consumer", 40, "consumer users")
	seed := flag.Uint64("seed", 1, "simulation seed")
	batch := flag.Int("batch", 500, "beacon batch size")
	senders := flag.Int("senders", 4, "concurrent sender clients")
	format := telemetry.NewFormatFlag(telemetry.JSONL, telemetry.JSONL, telemetry.TBIN)
	flag.Var(format, "format", "wire format for beacon batches: json or tbin")
	overflow := flag.String("overflow", "",
		"spill batches that exhaust their retries to this JSONL file instead of dropping them")
	budget := flag.Duration("retry-budget", 0,
		"cap the total time one flush may spend retrying (0 = attempts bounded by retries only)")
	queryWorkers := flag.Int("query", 0,
		"concurrent workers hammering GET /v1/curves for the whole ingest run (0 disables; server needs -live)")
	incident := flag.Bool("incident", false,
		"replay a scheduled latency incident: a step regression over a user fraction for a window, for exercising the sensd watcher")
	incidentAt := flag.Duration("incident-at", 12*time.Hour, "incident start, as an offset into the simulated window")
	incidentFor := flag.Duration("incident-for", 3*time.Hour, "incident duration")
	incidentSeverity := flag.Float64("incident-severity", 3.0, "latency multiplier during the incident (> 1)")
	incidentFraction := flag.Float64("incident-fraction", 1.0, "fraction of users affected, in (0,1]")
	flag.Parse()

	if *senders <= 0 {
		return fmt.Errorf("senders must be positive")
	}

	// One batching sender per goroutine, fed round-robin from the
	// simulator's chronological record stream. In cluster mode each sender
	// is a placement router (one client per node) instead of a single
	// client, so every record still lands on exactly its owning node.
	var (
		clients []*collector.Client
		routers []*cluster.Router
		sinks   = make([]interface {
			Enqueue(telemetry.Record) error
		}, *senders)
		queryBase = *url
	)
	if *clusterPeers != "" {
		peers, err := cluster.ParsePeers(*clusterPeers)
		if err != nil {
			return err
		}
		ring, err := cluster.NewRing(peers, 0)
		if err != nil {
			return err
		}
		routers = make([]*cluster.Router, *senders)
		for i := range routers {
			r, err := cluster.NewRouter(cluster.RouterConfig{
				Ring: ring,
				Configure: func(n cluster.Node) collector.ClientConfig {
					cfg := collector.DefaultClientConfig(n.URL + api.PathBeacons)
					cfg.BatchSize = *batch
					cfg.Format = format.Format()
					cfg.OverflowPath = *overflow
					cfg.RetryBudget = *budget
					return cfg
				},
			})
			if err != nil {
				return err
			}
			routers[i] = r
			sinks[i] = r
		}
		queryBase = peers[0].URL + api.PathBeacons
	} else {
		clients = make([]*collector.Client, *senders)
		for i := range clients {
			cfg := collector.DefaultClientConfig(*url)
			cfg.BatchSize = *batch
			cfg.Format = format.Format()
			cfg.OverflowPath = *overflow
			cfg.RetryBudget = *budget
			c, err := collector.NewClient(cfg)
			if err != nil {
				return err
			}
			clients[i] = c
			sinks[i] = c
		}
	}
	feeds := make([]chan telemetry.Record, *senders)
	errs := make([]error, *senders)
	var wg sync.WaitGroup
	for i := range feeds {
		feeds[i] = make(chan telemetry.Record, 1024)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rec := range feeds[i] {
				if err := sinks[i].Enqueue(rec); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}(i)
	}

	queries := startQueryPool(queryBase, *queryWorkers)

	cfg := owasim.DefaultConfig(timeutil.Millis(*days)*timeutil.MillisPerDay, *business, *consumer)
	cfg.Seed = *seed
	if *incident {
		start := timeutil.Millis((*incidentAt).Milliseconds())
		cfg.Regimes = &owasim.RegimeSchedule{LatencyIncidents: []owasim.LatencyIncident{{
			Start:        start,
			End:          start + timeutil.Millis((*incidentFor).Milliseconds()),
			Severity:     *incidentSeverity,
			UserFraction: *incidentFraction,
		}}}
		fmt.Fprintf(os.Stderr, "loadgen: incident scheduled: %.1fx latency for %.0f%% of users, %v..%v into the run\n",
			*incidentSeverity, *incidentFraction*100, *incidentAt, *incidentAt+*incidentFor)
	}
	n := 0
	simErr := owasim.RunTo(cfg, func(rec telemetry.Record) error {
		feeds[n%*senders] <- rec
		n++
		return nil
	}, nil)
	for _, f := range feeds {
		close(f)
	}
	wg.Wait()
	queries.stop()
	if simErr != nil {
		return simErr
	}

	var sent, dropped, spilled, throttled, exhausted, flushes, retries uint64
	for i, c := range clients {
		if err := c.Close(); err != nil && errs[i] == nil {
			errs[i] = err
		}
		s, d := c.Stats()
		sent += s
		dropped += d
		spilled += c.Spilled()
		t, x := c.ShedStats()
		throttled += t
		exhausted += x
		f, r := c.RetryStats()
		flushes += f
		retries += r
	}
	for i, r := range routers {
		if err := r.Close(); err != nil && errs[i] == nil {
			errs[i] = err
		}
		s, d := r.Stats()
		sent += s
		dropped += d
	}
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: sender error: %v\n", err)
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: generated %d records, shipped %d, spilled %d, dropped %d\n",
		n, sent, spilled, dropped)
	if clients != nil {
		fmt.Fprintf(os.Stderr, "loadgen: shed: %d 429s over %d posts, %d flushes exhausted retries\n",
			throttled, flushes+retries, exhausted)
	}
	queries.report(os.Stderr)
	if dropped > 0 {
		return fmt.Errorf("%d records dropped", dropped)
	}
	return nil
}

// querySlices are the /v1/curves slice parameters the query workers cycle
// through — the overall curve plus one slice per dimension and a
// two-dimension combination, mirroring the paper's reported breakdowns.
var querySlices = []string{
	"",
	"action:SelectMail",
	"usertype:consumer",
	"period:8pm-2am",
	"action:Search,usertype:business",
}

// queryPool hammers GET /v1/curves from several workers while ingest runs,
// recording per-request latency for the final p50/p99 report.
type queryPool struct {
	workers int
	done    chan struct{}
	wg      sync.WaitGroup
	lats    [][]time.Duration // one slice per worker; merged by report, after stop
	ok      atomic.Uint64
	notYet  atomic.Uint64 // 404s: slice empty this early in the run
	failed  atomic.Uint64
}

// startQueryPool derives the curves endpoint from the beacons URL and
// launches the workers. A zero worker count returns an inert pool.
func startQueryPool(beaconsURL string, workers int) *queryPool {
	p := &queryPool{
		workers: workers,
		done:    make(chan struct{}),
		lats:    make([][]time.Duration, workers),
	}
	curvesURL := strings.TrimSuffix(beaconsURL, api.PathBeacons) + api.PathCurves
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker(i, curvesURL)
	}
	return p
}

func (p *queryPool) worker(i int, curvesURL string) {
	defer p.wg.Done()
	client := &http.Client{Timeout: 30 * time.Second}
	for j := 0; ; j++ {
		select {
		case <-p.done:
			return
		default:
		}
		u := curvesURL
		if s := querySlices[(i+j)%len(querySlices)]; s != "" {
			u += "?slice=" + neturl.QueryEscape(s)
		}
		start := time.Now()
		resp, err := client.Get(u)
		if err != nil {
			p.failed.Add(1)
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		elapsed := time.Since(start)
		switch resp.StatusCode {
		case http.StatusOK:
			p.ok.Add(1)
			p.lats[i] = append(p.lats[i], elapsed)
		case http.StatusNotFound:
			p.notYet.Add(1)
		default:
			p.failed.Add(1)
		}
	}
}

func (p *queryPool) stop() {
	if p.workers == 0 {
		return
	}
	close(p.done)
	p.wg.Wait()
}

// report prints query counts and latency percentiles; a no-op when -query
// was 0 or no query ever succeeded.
func (p *queryPool) report(w io.Writer) {
	if p.workers == 0 {
		return
	}
	var all []time.Duration
	for _, l := range p.lats {
		all = append(all, l...)
	}
	fmt.Fprintf(w, "loadgen: queries: %d ok, %d empty-slice 404s, %d failed\n",
		p.ok.Load(), p.notYet.Load(), p.failed.Load())
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) time.Duration {
		i := int(q * float64(len(all)-1))
		return all[i]
	}
	fmt.Fprintf(w, "loadgen: query latency: p50=%v p90=%v p99=%v max=%v (n=%d)\n",
		pct(0.50), pct(0.90), pct(0.99), all[len(all)-1], len(all))
}
