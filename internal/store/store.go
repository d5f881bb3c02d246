// Package store is sensd's cold tier: a background compactor that seals
// the WAL's finished segments into sorted, zone-mapped columnar block
// files behind an atomically installed manifest, plus the streaming read
// path that serves windowed queries over them.
//
// # Tiering model
//
// The WAL stays the durability log and the live engine the hot store;
// the cold tier exists so history can outlive both the WAL's disk
// footprint and the hot store's RAM. CompactOnce folds sealed segments
// (strictly older than the WAL's append target, the same definition
// cluster handoff uses) into block files sorted by (time, seq), then
// publishes the enlarged block set plus the new compaction frontier in
// one atomic manifest install. Folded segments are deleted — their
// records now live in blocks — and time-based retention GC drops whole
// blocks whose newest record has aged out.
//
// # The cutover invariant
//
// Sequence numbers partition the tiers. The manifest's NextSeq counts
// every record of every folded segment — stored or skipped — exactly as
// the live engine's Warm consumes one sequence slot per WAL record. At
// startup sensd reads Cutover (NextSeq at Open), seeds the engine with
// SetBaseSeq(cutover), and warms it from the surviving segments: every
// hot record's seq is ≥ cutover. ScanWindow serves only blocks entirely
// below that same cutover. Blocks compacted later in the process hold
// records the warmed engine still has in RAM (their seqs are ≥ cutover),
// so they stay invisible until the next restart — no record is ever
// double-counted or lost across the tier boundary, and the (time, seq)
// merge of the two tiers reproduces the batch estimator's stable by-time
// sort bit for bit.
package store

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/obs"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the cold directory (block files + manifest).
	Dir string
	// WALDir is the segmented WAL directory compaction consumes.
	WALDir string
	// FS is the filesystem (nil = the real one). Tests inject
	// wal.FaultFS here to crash compactions at chosen points.
	FS wal.FS
	// Retention bounds cold history by time: blocks whose newest record
	// is older than (newest record in any block − Retention) are dropped
	// at the next compaction. Zero keeps everything forever.
	Retention time.Duration
	// Active returns the WAL's current append target (WAL.ActiveSegment);
	// segments at or past it are never compacted. Nil (or a func
	// returning "") treats every segment as sealed — only correct when
	// the WAL is closed.
	Active func() string
	// Owns is the cluster ownership filter: records of users this node
	// does not own are skipped (they still advance NextSeq, preserving
	// cross-node sequence agreement). Nil owns everything.
	Owns func(userID uint64) bool
	// BlockRecords caps rows per block file (0 = DefaultBlockRecords).
	BlockRecords int
	// CacheBytes bounds the decoded-block cache (sensd -cold-cache-bytes);
	// 0 or negative disables it.
	CacheBytes int64
	// ScanWorkers bounds the worker pools that decode blocks during scans
	// and replay/sort/write during compaction (0 = GOMAXPROCS).
	ScanWorkers int
	// Registry exports autosens_store_* metrics; nil skips instrumentation.
	Registry *obs.Registry
	// Logger receives compaction progress lines; nil is silent.
	Logger *log.Logger
}

// Store is the cold tier. All methods are safe for concurrent use; the
// compactor (CompactOnce/CompactLoop) is internally single-flight.
type Store struct {
	cfg Config
	fs  wal.FS

	// cutover is the hot/cold watermark: man.NextSeq at Open, fixed for
	// the life of the process (see the package comment).
	cutover uint64

	// cmu single-flights the compactor end to end; mu guards only the
	// installed manifest, so scans never wait behind a fold.
	cmu sync.Mutex
	mu  sync.Mutex
	man manifest

	// rowBufs are segment replay buffers kept from one compaction to the
	// next, and rowBytes the WAL bytes one stored row took in the last one
	// — the presizing hint for a buffer that has to grow. Both are guarded
	// by cmu.
	rowBufs  [][]row
	rowBytes float64

	// cache holds decoded blocks (nil when disabled); gen is the cache /
	// cold-state generation, bumped only when retention GC shrinks the
	// visible block set (the sole mid-process visibility change — see the
	// cutover invariant).
	cache *blockCache
	gen   atomic.Uint64

	scanned     atomic.Uint64 // candidate blocks considered by scans
	pruned      atomic.Uint64 // subset skipped via zone maps
	corrupt     atomic.Uint64 // corrupt-block reads skipped by scans
	compactions atomic.Uint64 // manifest installs this incarnation

	qmu        sync.Mutex
	quarantine []string // corrupt block files awaiting operator action
}

// Open loads (or initializes) dir's manifest and repairs the directory:
// block files a crashed compaction left unreferenced are deleted, and
// WAL segments already folded into blocks are removed so the hot store
// cannot warm records the cold tier serves. The returned store's Cutover
// is the sequence watermark the caller must seed the live engine with
// (live.Engine.SetBaseSeq) before warming it.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if cfg.BlockRecords <= 0 {
		cfg.BlockRecords = DefaultBlockRecords
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = wal.OSFS()
	}
	if err := fsys.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", cfg.Dir, err)
	}
	man, _, err := loadManifest(fsys, cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, fs: fsys, man: man, cutover: man.NextSeq,
		cache: newBlockCache(cfg.CacheBytes)}
	s.gen.Store(1)
	if cfg.Registry != nil {
		newStoreMetrics(cfg.Registry, s)
	}

	// Repair 1: delete orphan block files (written by a compaction that
	// crashed before its manifest install — their rows still live in the
	// WAL segments the uninstalled manifest would have folded).
	referenced := make(map[string]bool, len(man.Blocks))
	for _, b := range man.Blocks {
		referenced[b.File] = true
	}
	names, err := fsys.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", cfg.Dir, err)
	}
	for _, name := range names {
		if name == manifestTmp || (isBlockFile(name) && !referenced[name]) {
			if err := fsys.Remove(filepath.Join(cfg.Dir, name)); err != nil {
				return nil, fmt.Errorf("store: remove orphan %s: %w", name, err)
			}
			s.logf("store: removed orphan %s", name)
		}
	}

	// Repair 2: delete WAL segments the installed manifest has folded
	// (a crash can land between install and segment deletion).
	if cfg.WALDir != "" && man.CompactedThrough >= 0 {
		if err := s.removeFoldedSegments(man.CompactedThrough); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// removeFoldedSegments deletes WAL segments with index ≤ through. The
// current append target (and anything past it) is never touched: if the
// WAL ever restarted numbering in an emptied directory, a fresh active
// segment could collide with a folded index, and deleting it would eat
// acked records.
func (s *Store) removeFoldedSegments(through int) error {
	segs, err := wal.Segments(s.fs, s.cfg.WALDir)
	if err != nil {
		return fmt.Errorf("store: scan WAL %s: %w", s.cfg.WALDir, err)
	}
	bound := through
	if s.cfg.Active != nil {
		if ai, ok := wal.SegmentIndex(s.cfg.Active()); ok && ai <= bound {
			bound = ai - 1
		}
	}
	for _, name := range segs {
		if i, ok := wal.SegmentIndex(name); ok && i <= bound {
			if err := s.fs.Remove(filepath.Join(s.cfg.WALDir, name)); err != nil {
				return fmt.Errorf("store: remove folded segment %s: %w", name, err)
			}
			s.logf("store: removed folded segment %s", name)
		}
	}
	return nil
}

func (s *Store) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// Cutover returns the hot/cold sequence watermark: the value to seed the
// live engine's sequence counter with before warming it.
func (s *Store) Cutover() uint64 { return s.cutover }

// Generation implements live.ColdTier: an epoch for the visible cold
// data. Two ScanWindow calls bracketing an unchanged Generation saw the
// same block set, so derived state (the decoded-block cache, a windowed
// query's folded cold columns) keyed by it stays valid. It advances only
// when retention GC drops blocks this incarnation serves.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// quarantineBlock records a corrupt block file (deduplicated) for the
// /v1/status quarantine listing.
func (s *Store) quarantineBlock(file string) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for _, f := range s.quarantine {
		if f == file {
			return
		}
	}
	s.quarantine = append(s.quarantine, file)
}

// Quarantined lists the corrupt block files scans have skipped.
func (s *Store) Quarantined() []string {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return append([]string(nil), s.quarantine...)
}

// snapshotManifest copies the manifest's block list under the lock.
func (s *Store) snapshotManifest() manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.man
	m.Blocks = append([]BlockMeta(nil), s.man.Blocks...)
	return m
}

// OldestRetained implements live.ColdTier: the oldest record time among
// blocks this incarnation actually serves (those below the cutover), and
// false when there are none — then the hot store alone covers history.
func (s *Store) OldestRetained() (timeutil.Millis, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var oldest timeutil.Millis
	found := false
	for i := range s.man.Blocks {
		b := &s.man.Blocks[i]
		if b.MaxSeq >= s.cutover {
			continue
		}
		if !found || b.MinTime < oldest {
			oldest = b.MinTime
			found = true
		}
	}
	return oldest, found
}

// Blocks returns the installed manifest's listing as the /v1/blocks
// response body.
func (s *Store) Blocks() api.BlocksResponse {
	m := s.snapshotManifest()
	cs := s.cache.stats()
	resp := api.BlocksResponse{
		NextSeq:          m.NextSeq,
		CompactedThrough: m.CompactedThrough,
		CutoverSeq:       s.cutover,
		ScannedBlocks:    s.scanned.Load(),
		PrunedBlocks:     s.pruned.Load(),
		CacheHits:        cs.Hits,
		CacheMisses:      cs.Misses,
		Blocks:           make([]api.BlockInfo, len(m.Blocks)),
	}
	for i, b := range m.Blocks {
		resp.Blocks[i] = api.BlockInfo{
			ID: b.ID, File: b.File, Records: b.Records, Bytes: b.Bytes,
			MinTimeMS: int64(b.MinTime), MaxTimeMS: int64(b.MaxTime),
			MinUser: b.MinUser, MaxUser: b.MaxUser,
			MinSeq: b.MinSeq, MaxSeq: b.MaxSeq,
			Actions: b.Actions, UserTypes: b.UserTypes,
		}
	}
	return resp
}

// Stats snapshots the tier's operational counters for /v1/status.
// HotBytes is left zero — the server fills it from the live engine.
func (s *Store) Stats() api.StorageStats {
	m := s.snapshotManifest()
	st := api.StorageStats{
		Blocks:           len(m.Blocks),
		LastCompactionMS: m.LastCompactionMS,
		Compactions:      s.compactions.Load(),
		NextSeq:          m.NextSeq,
		CompactedThrough: m.CompactedThrough,
		ScannedBlocks:    s.scanned.Load(),
		PrunedBlocks:     s.pruned.Load(),
		CorruptBlocks:    s.corrupt.Load(),
		Quarantined:      s.Quarantined(),
	}
	if s.cache != nil {
		cs := s.cache.stats()
		st.Cache = &cs
	}
	for _, b := range m.Blocks {
		st.ColdBytes += b.Bytes
		st.ColdRecords += b.Records
	}
	if oldest, ok := s.OldestRetained(); ok {
		st.OldestRetainedMS = int64(oldest)
	}
	return st
}
