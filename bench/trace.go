package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/collector"
	"autosens/internal/collector/api"
	"autosens/internal/live"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req (the id of the request's outermost span); Parent is the span
// that caused this one. Times are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

func (s span) durMS() float64 { return float64(s.End-s.Start) / 1e6 }

// phaseMark stamps where a workload phase began.
type phaseMark struct {
	Name string `json:"name"`
	At   int64  `json:"at_ns"`
}

// tracer records spans around the seams the node already injects. The
// spans live in memory and are written out once, when the run ends, so
// recording costs an id, two clock reads and an append.
//
// Attribution relies on the benchmark's shape: one ingest connection and
// one query connection mean at most one beacon request and one curve
// request are in flight, so the writer goroutine's spans belong to the
// beacon request currently open (requests and writes pair in FIFO order)
// and a cold scan belongs to the live query currently open.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	marks []phaseMark

	ingestReq atomic.Uint64 // open POST /v1/beacons span
	queryReq  atomic.Uint64 // open GET /v1/curves span
	liveQuery atomic.Uint64 // open live query span (parent of a cold scan)

	appended atomic.Uint64 // records handed to the live sink

	walFS  *countingFS
	coldFS *countingFS
	// last is the most recently started traced node: the one whose
	// start-up figures (store open, WAL warm) the layers report.
	last *tracedNode
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span: it hands out the id (children need it before the
// span ends) and the start time.
func (t *tracer) begin() (id uint64, start int64) { return t.ids.Add(1), t.now() }

// finish closes a span and stores it.
func (t *tracer) finish(id, parent, req uint64, name string, start int64, note string) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Note: note})
	t.mu.Unlock()
}

// mark stamps the start of a workload phase.
func (t *tracer) mark(name string) {
	at := t.now()
	t.mu.Lock()
	t.marks = append(t.marks, phaseMark{Name: name, At: at})
	t.mu.Unlock()
}

// phaseWindow returns the [from, to) interval of a phase: from its mark
// to the next mark (or the end of time).
func (t *tracer) phaseWindow(phase string) (from, to int64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, m := range t.marks {
		if m.Name != phase {
			continue
		}
		to = int64(1<<63 - 1)
		if i+1 < len(t.marks) {
			to = t.marks[i+1].At
		}
		return m.At, to, true
	}
	return 0, 0, false
}

// in returns the spans with the given name that started inside a phase,
// in start order.
func (t *tracer) in(phase, name string) []span {
	from, to, ok := t.phaseWindow(phase)
	if !ok {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// all returns every span with the given name.
func (t *tracer) all(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes computes each span's self time in nanoseconds: its duration
// minus the part of that interval its child spans cover (overlapping
// children are not double-counted, and a child is only credited for the
// part that lies inside its parent).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfMS returns the self times, in ms, of the given spans.
func (t *tracer) selfMS(of []span) []float64 {
	t.mu.Lock()
	self := selfTimes(t.spans)
	t.mu.Unlock()
	out := make([]float64, len(of))
	for i, s := range of {
		out[i] = float64(self[s.ID]) / 1e6
	}
	return out
}

// selfShares reports, for the requests whose outermost span has the given
// name and started in the phase, how their total time splits into each
// span name's self time — the "where did the request spend its time"
// answer the workloads are meant to differ on.
func (t *tracer) selfShares(phase, root string) map[string]float64 {
	roots := t.in(phase, root)
	if len(roots) == 0 {
		return nil
	}
	isRoot := make(map[uint64]bool, len(roots))
	total := int64(0)
	for _, r := range roots {
		isRoot[r.ID] = true
		total += r.End - r.Start
	}
	t.mu.Lock()
	self := selfTimes(t.spans)
	byName := map[string]int64{}
	for _, s := range t.spans {
		if isRoot[s.Req] {
			byName[s.Name] += self[s.ID]
		}
	}
	t.mu.Unlock()
	out := make(map[string]float64, len(byName))
	for name, ns := range byName {
		out[name] = float64(ns) / float64(total)
	}
	return out
}

func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.durMS()
	}
	return out
}

// write dumps the spans and phase marks.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Phases []phaseMark `json:"phases"`
		Spans  []span      `json:"spans"`
	}{t.marks, t.spans}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// handler is the outermost decorator: one span per HTTP request, which is
// also the request id every span below it carries.
func (t *tracer) handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, start := t.begin()
		switch r.URL.Path {
		case api.PathBeacons:
			t.ingestReq.Store(id)
		case api.PathCurves:
			t.queryReq.Store(id)
		}
		inner.ServeHTTP(w, r)
		t.finish(id, 0, id, "http:"+r.URL.Path, start, "")
	})
}

// tracedSink wraps collector.Sink (the WAL).
type tracedSink struct {
	inner collector.Sink
	t     *tracer
}

func (s tracedSink) WriteBatch(recs []telemetry.Record) (int, error) {
	req := s.t.ingestReq.Load()
	id, start := s.t.begin()
	n, err := s.inner.WriteBatch(recs)
	s.t.finish(id, req, req, "wal.write", start, "")
	return n, err
}

func (s tracedSink) Sync() error {
	id, start := s.t.begin()
	err := s.inner.Sync()
	s.t.finish(id, 0, 0, "wal.sync", start, "")
	return err
}

func (s tracedSink) Close() error { return s.inner.Close() }

// tracedLive wraps collector.LiveSink (the live engine's fan-in). It
// forwards LiveStats so /v1/status keeps its live section.
type tracedLive struct {
	inner *live.Engine
	t     *tracer
}

func (l tracedLive) Append(recs []telemetry.Record) {
	req := l.t.ingestReq.Load()
	id, start := l.t.begin()
	l.inner.Append(recs)
	l.t.finish(id, req, req, "live.append", start, "")
	l.t.appended.Add(uint64(len(recs)))
}

func (l tracedLive) LiveStats() api.LiveStats { return l.inner.LiveStats() }

// tracedQuerier wraps the live.WindowQuerier handed to the curves handler.
type tracedQuerier struct {
	inner live.WindowQuerier
	t     *tracer
}

func hitNote(res *live.Result) string {
	if res != nil && res.Cached {
		return "hit"
	}
	return "miss"
}

func (q tracedQuerier) Query(key live.SliceKey, mode live.Mode, ci bool) (*live.Result, error) {
	req := q.t.queryReq.Load()
	id, start := q.t.begin()
	q.t.liveQuery.Store(id)
	res, err := q.inner.Query(key, mode, ci)
	q.t.finish(id, req, req, "live.query", start, hitNote(res))
	return res, err
}

func (q tracedQuerier) QueryWindow(key live.SliceKey, mode live.Mode, ci bool, win live.Window) (*live.Result, error) {
	req := q.t.queryReq.Load()
	id, start := q.t.begin()
	q.t.liveQuery.Store(id)
	res, err := q.inner.QueryWindow(key, mode, ci, win)
	q.t.finish(id, req, req, "live.query_window", start, hitNote(res))
	return res, err
}

// tracedCold wraps live.ColdTier (the store's read path).
type tracedCold struct {
	inner live.ColdTier
	t     *tracer
}

func (c tracedCold) ScanWindow(key live.SliceKey, win live.Window) ([]timeutil.Millis, []float64, []uint64, error) {
	parent := c.t.liveQuery.Load()
	id, start := c.t.begin()
	times, lats, seqs, err := c.inner.ScanWindow(key, win)
	c.t.finish(id, parent, c.t.queryReq.Load(), "store.scan", start, "")
	return times, lats, seqs, err
}

func (c tracedCold) OldestRetained() (timeutil.Millis, bool) { return c.inner.OldestRetained() }
func (c tracedCold) Generation() uint64                      { return c.inner.Generation() }

// countingFS wraps wal.FS: write calls, bytes and fsyncs (each fsync also
// becomes a span), plus the bytes read from under readRoot — for the
// store's FS that is the WAL directory, i.e. what compaction consumed.
type countingFS struct {
	inner    wal.FS
	t        *tracer
	syncName string // span name of an fsync through this FS
	readRoot string

	writes     atomic.Uint64
	writeBytes atomic.Uint64
	syncs      atomic.Uint64
	readBytes  atomic.Uint64
}

func (f *countingFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *countingFS) Create(name string) (wal.File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) Open(name string) (wal.File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	counted := f.readRoot != "" && strings.HasPrefix(name, f.readRoot)
	return &countingFile{File: file, fs: f, countReads: counted}, nil
}

func (f *countingFS) ReadDir(dir string) ([]string, error)   { return f.inner.ReadDir(dir) }
func (f *countingFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }
func (f *countingFS) Remove(name string) error               { return f.inner.Remove(name) }
func (f *countingFS) Rename(oldname, newname string) error   { return f.inner.Rename(oldname, newname) }

type countingFile struct {
	wal.File
	fs         *countingFS
	countReads bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(uint64(n))
	return n, err
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if f.countReads {
		f.fs.readBytes.Add(uint64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	id, start := f.fs.t.begin()
	err := f.File.Sync()
	f.fs.t.finish(id, 0, 0, f.fs.syncName, start, "")
	f.fs.syncs.Add(1)
	return err
}
