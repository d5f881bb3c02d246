package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("widgets_total", "widgets made")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("widgets_total", "ignored"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.GaugeFunc("live", "computed at scrape", func() float64 { return v })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 7 || snap[0].Kind != "gauge" {
		t.Fatalf("snapshot %+v", snap)
	}
	v = 9
	if got := r.Snapshot()[0].Value; got != 9 {
		t.Fatalf("gauge func stale: %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 107 {
		t.Fatalf("sum = %v", h.Sum())
	}
	snap := r.Snapshot()[0]
	wantCum := []uint64{2, 3, 4, 5} // le=1, le=2, le=5, le=+Inf
	if len(snap.Buckets) != len(wantCum) {
		t.Fatalf("%d buckets", len(snap.Buckets))
	}
	for i, b := range snap.Buckets {
		if b.CumulativeCount != wantCum[i] {
			t.Fatalf("bucket %d cum = %d, want %d", i, b.CumulativeCount, wantCum[i])
		}
	}
	if !math.IsInf(snap.Buckets[len(snap.Buckets)-1].UpperBound, +1) {
		t.Fatal("last bucket bound not +Inf")
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	r := NewRegistry()
	for _, bad := range [][]float64{nil, {}, {2, 1}, {1, 1}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("buckets %v accepted", bad)
				}
			}()
			r.Histogram("h"+strconv.Itoa(len(bad)), "", bad)
		}()
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter name accepted")
		}
	}()
	r.Gauge("x_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Gauge("aaa", "")
	r.Histogram("mmm", "", []float64{1})
	snap := r.Snapshot()
	names := []string{snap[0].Name, snap[1].Name, snap[2].Name}
	if names[0] != "aaa" || names[1] != "mmm" || names[2] != "zzz_total" {
		t.Fatalf("order %v", names)
	}
}

// TestWritePrometheusFormat is the exposition golden test: known traffic
// in, then every line is checked for parseability, counter _total naming,
// histogram bucket cumulativeness, and the mandatory le="+Inf" bucket.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ingest_records_total", "records ingested")
	c.Add(42)
	g := r.Gauge("uptime_seconds", "seconds up")
	g.Set(12.5)
	h := r.Histogram("ingest_duration_seconds", "handler latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	assertParses(t, text)

	if !strings.Contains(text, "# TYPE ingest_records_total counter") {
		t.Fatalf("counter TYPE line missing:\n%s", text)
	}
	if !strings.Contains(text, "ingest_records_total 42") {
		t.Fatalf("counter sample missing:\n%s", text)
	}
	if !strings.Contains(text, "uptime_seconds 12.5") {
		t.Fatalf("gauge sample missing:\n%s", text)
	}
	for _, want := range []string{
		`ingest_duration_seconds_bucket{le="0.01"} 1`,
		`ingest_duration_seconds_bucket{le="0.1"} 2`,
		`ingest_duration_seconds_bucket{le="1"} 3`,
		`ingest_duration_seconds_bucket{le="+Inf"} 4`,
		`ingest_duration_seconds_count 4`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

// assertParses applies the text-format grammar loosely: every non-comment
// line is "name[{labels}] value", histogram buckets are cumulative, and
// each histogram ends with an +Inf bucket equal to its _count.
func assertParses(t *testing.T, text string) {
	t.Helper()
	lastCum := map[string]uint64{}
	infSeen := map[string]uint64{}
	counts := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable sample line %q", line)
		}
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base, labels := name[:i], name[i:]
			if !strings.HasSuffix(base, "_bucket") {
				t.Fatalf("unexpected labeled sample %q", line)
			}
			series := strings.TrimSuffix(base, "_bucket")
			cum := uint64(val)
			if cum < lastCum[series] {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastCum[series] = cum
			if strings.Contains(labels, `le="+Inf"`) {
				infSeen[series] = cum
			}
		} else if strings.HasSuffix(name, "_count") {
			counts[strings.TrimSuffix(name, "_count")] = uint64(val)
		}
	}
	for series, n := range counts {
		inf, ok := infSeen[series]
		if !ok {
			t.Fatalf("histogram %s has no +Inf bucket", series)
		}
		if inf != n {
			t.Fatalf("histogram %s: +Inf bucket %d != count %d", series, inf, n)
		}
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}

// TestConcurrentRegistryAccess exercises creation, writes and scrapes from
// many goroutines; run under -race this is the registry's thread-safety
// proof.
func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_total", "")
			h := r.Histogram("shared_lat", "", DefLatencyBuckets())
			g := r.Gauge("shared_gauge", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%50) / 1000)
				g.Add(1)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Gauge("shared_gauge", "").Value(); got != 8000 {
		t.Fatalf("gauge = %v", got)
	}
	if got := r.Histogram("shared_lat", "", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	for _, bs := range [][]float64{DefLatencyBuckets(), DefSizeBuckets()} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("default buckets not increasing: %v", bs)
			}
		}
	}
}
