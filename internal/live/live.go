// Package live is sensd's in-memory analysis tier: a sharded columnar
// store of acked telemetry that keeps NLP curves warm as beacons arrive,
// so a curve query is a cache lookup instead of a batch re-run over the
// whole WAL.
//
// # Durability before visibility
//
// The engine is fed from the collector's sink-writer path strictly after
// the durable sink accepted a batch and strictly before the client's ack,
// so every record visible to a query is durable, and every acked record
// is visible to the next query (read-your-writes at the ingest edge). On
// startup the engine is warmed from the WAL via wal.Replay in append
// order, which reproduces the exact ack order of the previous incarnation.
//
// # Byte-identity with the batch estimator
//
// Queries return byte-for-byte the curve the batch `autosens` CLI would
// compute over the same acked records. The batch path stable-sorts the
// ack-ordered stream by time; the engine stores each record's global ack
// sequence number, so (time, seq) order reproduces the stable sort
// exactly. A query decodes each shard's store suffix since its last
// recompute, sorts it by (time, seq), merges the per-shard deltas into one
// delta and folds it into the combo's core.Incremental, which keeps the
// sorted columns, the biased histogram and the unbiased sweep up to date.
// The biased histogram is a pure append of weight-1 counts (exact integer
// arithmetic in float64, hence order-independent), so the folded one
// equals the batch-built histogram bit for bit. The per-shard views, each
// sorted by (time, seq) and carrying its own histogram, serve only curve
// partials and watcher snapshots.
//
// # Epochs and dirty tracking
//
// Every (combo, mode, ci, window) query result is cached in a ResultCache
// with the combo's version — a monotone counter of matching appends —
// stamped before the recompute gathers its inputs. A later query is served
// from cache iff the version still matches; otherwise the recompute folds
// only what arrived since the combo's last one (on the shared core worker
// pool) and finishes the curve once. A cluster coordinator serves its
// merged curves through the same ResultCache and the same stateless
// Finish.
package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"autosens/internal/cell"
	"autosens/internal/core"
	"autosens/internal/histogram"
	"autosens/internal/obs"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/wal"
)

// DefaultShards is the default shard count. Shards bound both append
// contention and the granularity of dirty-shard recompute.
const DefaultShards = 16

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of store shards (default DefaultShards).
	Shards int
	// Workers bounds recompute parallelism (dirty-shard view rebuilds and
	// the estimator's internal stages). 0 means GOMAXPROCS. Results are
	// bit-identical at any worker count.
	Workers int
	// Options configures the estimator. Zero value selects
	// core.DefaultOptions().
	Options core.Options
	// CI configures bootstrap confidence bounds for ci=1 queries. Zero
	// value selects core.DefaultCIOptions().
	CI core.CIOptions
	// Registry exports autosens_live_* metrics; nil skips instrumentation.
	Registry *obs.Registry
	// Owns is the cluster ownership predicate: Append and Warm store only
	// records of users it accepts, but every record still takes its global
	// ack seq slot, as a skipped failed record does, so nodes fed one
	// shared stream agree on every record's seq and a (time, seq) merge of
	// their partials is the full stream's stable by-time sort. Records
	// that reach the wrong node are dropped, not double-counted. Nil owns
	// everything.
	Owns func(userID uint64) bool
}

// Engine is the live query engine: Append feeds it acked records, Query
// serves epoch-cached NLP curves.
type Engine struct {
	cfg    Config
	est    *core.Estimator
	shards []*shard

	seq atomic.Uint64 // next global ack sequence number

	// counts[c] is the global count of stored records in cell c; a slice's
	// version is the sum over its cells (cheap for the rare version read,
	// one counter bump for the hot append).
	counts [cell.NumCells]atomic.Uint64

	epoch atomic.Uint64 // recomputes performed; stamps cache entries

	cache ResultCache

	// cold is the optional cold tier serving records compacted out of the
	// WAL before this incarnation's cutover; nil means hot-only.
	cold ColdTier

	smu    sync.Mutex
	states map[SliceKey]*comboState

	// wstates are the windowed delta-maintained estimation states, keyed
	// by (combo, window) and evicted least-recently-used once their
	// retained bytes pass wsBudget (see retainWindowState).
	wsmu     sync.Mutex
	wstates  map[winStateKey]*windowState
	wsBytes  int
	wsBudget int
	wsClock  uint64

	// pool holds idle recompute scratch (see scratch); poolBytes is what
	// the idle entries retain.
	pmu       sync.Mutex
	pool      []*scratch
	poolBytes int

	skipped atomic.Uint64 // failed/out-of-range records not stored

	// Query counters, kept on the engine (not only in optional metrics) so
	// /v1/status can report them without a registry.
	nQueries atomic.Uint64
	nHits    atomic.Uint64
	nMisses  atomic.Uint64
	// Dirty-recompute counters: recomputes run and store records
	// delta-folded into combo estimation state by them.
	nDirty        atomic.Uint64
	nDeltaRecords atomic.Uint64
	// Windowed recomputes by the path that answered (see recomputeWindow).
	nWinPath [numWinPaths]atomic.Uint64
	// Delta-maintained normalized recomputes, and their retained slots by
	// the path each took (see countNormalized).
	nNormalized atomic.Uint64
	nNormSlots  [core.NumSlotPaths]atomic.Uint64

	m *metrics
}

// New builds an engine. The zero Config is valid.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("live: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Workers < 0 {
		return nil, errors.New("live: negative workers")
	}
	if cfg.Options == (core.Options{}) {
		cfg.Options = core.DefaultOptions()
	}
	if cfg.CI == (core.CIOptions{}) {
		cfg.CI = core.DefaultCIOptions()
	}
	cfg.Options.Workers = cfg.Workers
	cfg.CI.Workers = cfg.Workers
	est, err := core.NewEstimator(cfg.Options)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		est:    est,
		shards: make([]*shard, cfg.Shards),
		states: make(map[SliceKey]*comboState),

		wsBudget: maxWindowStateBytes,
	}
	for i := range e.shards {
		e.shards[i] = &shard{}
	}
	if cfg.Registry != nil {
		e.m = newMetrics(cfg.Registry, e)
	}
	return e, nil
}

// newHist allocates a biased histogram under the engine's binning.
func (e *Engine) newHist() *histogram.Histogram {
	return histogram.MustNew(0, e.cfg.Options.MaxLatencyMS, e.cfg.Options.BinWidthMS)
}

// shardIndexOf maps a user to a shard. All of one user's records land in
// one shard, so per-user locality survives the split.
func (e *Engine) shardIndexOf(userID uint64) int {
	return int(rng.Mix64(userID) % uint64(len(e.shards)))
}

// Append ingests acked records in ack order. It is safe for concurrent
// use; the input slice is not retained (records are encoded into the
// columnar store), so callers may reuse it immediately.
//
// Failed records are not stored: the estimator analyzes successful
// actions only, and dropping them here keeps the stored stream exactly
// equal to the batch path's UsableColumns filter. Records with out-of-range
// enum values (impossible through the validating collector) are skipped
// defensively.
func (e *Engine) Append(recs []telemetry.Record) {
	e.AppendOwned(recs, e.cfg.Owns)
}

// AppendOwned is Append under owns in place of Config.Owns. Only the
// benchmark's cluster layer calls it; it goes once that sets the
// predicate at New.
func (e *Engine) AppendOwned(recs []telemetry.Record, owns func(userID uint64) bool) {
	for len(recs) > 0 {
		chunk := recs
		if len(chunk) > appendChunk {
			chunk = chunk[:appendChunk]
		}
		e.appendChunk(chunk, owns)
		recs = recs[len(chunk):]
	}
}

// appendChunk is the chunk size Append processes at a time: small enough
// for stack-allocated bucketing state, large enough that a realistic
// collector batch is one chunk and pays per-chunk costs (scratch, cell
// flush, shard locks) once.
const appendChunk = 1024

// appendScratch is the per-chunk bucketing state, pooled so sustained
// ingest allocates nothing per batch.
type appendScratch struct {
	head, tail []int16
	touched    []int
}

var scratchPool = sync.Pool{New: func() any { return &appendScratch{} }}

func (e *Engine) appendChunk(recs []telemetry.Record, owns func(uint64) bool) {
	// Reserve a sequence block for the whole chunk: one atomic add instead
	// of one per record. Skipped records leave gaps, which is fine — seq
	// only orders records, it never counts them.
	base := e.seq.Add(uint64(len(recs))) - uint64(len(recs))

	// Bucket records by shard through stack-allocated linked lists (values
	// are index+1 so the zero value means "none"), take each touched
	// shard's lock once, and append its run in chunk order — per-shard seq
	// order is preserved because the lists are built front to back.
	//
	// Cell-counter bumps are likewise accumulated locally and flushed once
	// per chunk (≤32 atomic adds instead of one per record). Bumps still
	// land strictly after their records' data writes, so a query can at
	// worst momentarily cache a curve stamped with a stale version — which
	// the flush immediately marks dirty again.
	var (
		next      [appendChunk]int16
		cells     [appendChunk]cell.Cell
		cellDelta [cell.NumCells]uint32
	)
	sc := scratchPool.Get().(*appendScratch)
	if cap(sc.head) < len(e.shards) {
		sc.head = make([]int16, len(e.shards))
		sc.tail = make([]int16, len(e.shards))
	}
	head := sc.head[:len(e.shards)]
	tail := sc.tail[:len(e.shards)]
	for i := range head {
		head[i] = 0
	}
	touched := sc.touched[:0]
	stored, skipped := 0, 0
	for i := range recs {
		r := &recs[i]
		c, ok := cell.Of(*r)
		if !ok {
			skipped++
			continue
		}
		if owns != nil && !owns(r.UserID) {
			// Not this node's record: its seq slot (base+i) stays reserved
			// so positions match every other node's view of the stream.
			continue
		}
		cells[i] = c
		cellDelta[c]++
		si := e.shardIndexOf(r.UserID)
		if head[si] == 0 {
			head[si] = int16(i + 1)
			touched = append(touched, si)
		} else {
			next[tail[si]-1] = int16(i + 1)
		}
		tail[si] = int16(i + 1)
		stored++
	}
	for _, si := range touched {
		e.shards[si].appendRun(recs, base, head[si], &next, &cells)
	}
	sc.touched = touched[:0]
	scratchPool.Put(sc)
	for c, d := range cellDelta {
		if d != 0 {
			e.counts[c].Add(uint64(d))
		}
	}
	if skipped != 0 {
		e.skipped.Add(uint64(skipped))
	}
	if e.m != nil {
		e.m.appended.Add(uint64(stored))
	}
}

// Warm replays a WAL directory into the engine in append order —
// reproducing the original ack order, and hence byte-identical curves to
// an engine that saw the records arrive live. Config.Owns applies as it
// does to Append, so a cluster node recovering from a shared WAL stores
// only its owned range, each record at the seq of its WAL position.
// Returns the number of records replayed (including skipped ones).
//
// Records are appended appendChunk at a time, as a live batch would be:
// each still reserves one seq, so seqs, ownership and skip counts are
// those of appending them one by one.
func (e *Engine) Warm(dir string) (int, error) {
	n := 0
	buf := make([]telemetry.Record, 0, appendChunk)
	err := wal.Replay(nil, dir, func(r telemetry.Record) error {
		if buf = append(buf, r); len(buf) == appendChunk {
			e.Append(buf)
			buf = buf[:0]
		}
		n++
		return nil
	})
	e.Append(buf)
	if err != nil {
		return n, fmt.Errorf("live: warm from %s: %w", dir, err)
	}
	return n, nil
}

// SliceVersion returns the slice's current ingest version: a monotone
// counter of matching appends, the sum of its cells' counters. It is a
// handful of atomic loads, so pollers (the watcher's per-tick staleness
// check) can call it at any rate. A concurrent append bumps its counter
// only after the record's data write, so a sum read here never claims a
// record the store doesn't yet hold — it can only understate, which makes
// a cache entry stamped with it recompute on the next query.
func (e *Engine) SliceVersion(key SliceKey) uint64 {
	var sum uint64
	for _, c := range key.Cells() {
		sum += e.counts[c].Load()
	}
	return sum
}

// Records returns how many records the store holds.
func (e *Engine) Records() int {
	total := 0
	for _, s := range e.shards {
		s.mu.Lock()
		total += s.n
		s.mu.Unlock()
	}
	return total
}

// StoreBytes returns the approximate footprint of the record store
// (excluding views and cached curves).
func (e *Engine) StoreBytes() int {
	total := 0
	for _, s := range e.shards {
		total += s.bytes()
	}
	return total
}

// Epoch returns the number of curve recomputes performed so far.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// cachedCurves returns the number of unwindowed curves cached.
func (e *Engine) cachedCurves() int {
	n, _ := e.cache.Len()
	return n
}
