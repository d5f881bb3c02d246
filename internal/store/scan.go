package store

import (
	"errors"
	"io/fs"
	"sync"

	"autosens/internal/cell"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/parallel"
	"autosens/internal/timeutil"
)

// scanScratch is the pooled per-worker decode state: the raw block file
// buffer and a column scratch whose contents never escape the worker
// (kept rows are copied out exactly sized).
type scanScratch struct {
	buf  []byte
	cols blockCols
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// ScanWindow implements live.ColdTier: the cold tier's records matching
// key inside win, as (time, seq)-sorted parallel columns.
//
// Only blocks entirely below the cutover are served (the tier boundary —
// see the package comment); within those, zone maps prune blocks whose
// time range misses the window or whose action/user-type presence masks
// rule out the slice, without touching the file. Surviving blocks are
// decoded and row-filtered concurrently on a bounded worker pool
// (Config.ScanWorkers), each worker drawing pooled decode scratch;
// results are merged in manifest index order, so the output is
// byte-identical to a sequential scan. Fully-covered blocks come from
// (or land in) the decoded-block cache; partially-covered ones decode
// only the chunks their framed min/max says the window can touch.
//
// A block that fails validation (ErrBlockCorrupt under a *BlockReadError
// naming the file) is skipped, counted, and quarantined rather than
// failing the scan — operators lose one block, not the whole window.
// Transient I/O errors still abort, typed with the file name, so the
// caller can retry.
//
// One I/O error is expected in normal operation: a scan races retention
// GC, which deletes dropped block files after committing the shrunk
// manifest. A not-exist read on a block from a pre-GC snapshot therefore
// retries against a fresh snapshot instead of failing — the generation
// counter (bumped before the files go) tells the two cases apart from a
// genuinely missing file, which still aborts.
func (s *Store) ScanWindow(key live.SliceKey, win live.Window) ([]timeutil.Millis, []float64, []uint64, error) {
	for attempt := 0; ; attempt++ {
		gen := s.gen.Load()
		times, lats, seqs, err := s.scanWindowOnce(key, win)
		if err == nil {
			return times, lats, seqs, nil
		}
		var bre *BlockReadError
		if attempt < 3 && errors.As(err, &bre) &&
			errors.Is(bre.Err, fs.ErrNotExist) && s.gen.Load() != gen {
			continue
		}
		return nil, nil, nil, err
	}
}

func (s *Store) scanWindowOnce(key live.SliceKey, win live.Window) ([]timeutil.Millis, []float64, []uint64, error) {
	m := s.snapshotManifest()

	survivors := make([]*BlockMeta, 0, len(m.Blocks))
	candidates, pruned := 0, 0
	for i := range m.Blocks {
		b := &m.Blocks[i]
		if b.MaxSeq >= s.cutover {
			// Compacted this incarnation: the hot store still holds these
			// records (their seqs are past the warm base), so serving them
			// here would double-count. They surface after the next restart.
			continue
		}
		candidates++
		if !blockMayMatch(b, key, win) {
			pruned++
			continue
		}
		survivors = append(survivors, b)
	}
	// Account every candidate up front: a scan that later aborts on an
	// I/O error has still considered (and pruned) exactly these blocks.
	s.scanned.Add(uint64(candidates))
	s.pruned.Add(uint64(pruned))

	// Each part is one block's (time, seq)-sorted rows, possibly aliasing
	// cached (immutable) storage.
	parts := make([]core.Columns, len(survivors))
	errs := make([]error, len(survivors))
	parallel.ForEach(s.cfg.ScanWorkers, len(survivors), func(i int) {
		parts[i], errs[i] = s.scanBlock(survivors[i], key, win)
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		var bre *BlockReadError
		if errors.As(err, &bre) && bre.Corrupt() {
			s.corrupt.Add(1)
			s.quarantineBlock(bre.File)
			s.logf("store: scan skipped corrupt block %s: %v", bre.File, bre.Err)
			parts[i] = core.Columns{}
			continue
		}
		return nil, nil, nil, err
	}
	// A scan that one block answers — the watcher's trailing window over a
	// cached block — hands that block's rows through without a copy.
	var out core.Columns
	nonEmpty := 0
	for _, p := range parts {
		if p.Len() > 0 {
			out = p
			nonEmpty++
		}
	}
	if nonEmpty > 1 {
		out = core.Columns{}
		core.MergeColumns(&out, parts...)
	}
	return out.Times, out.Lats, out.Seqs, nil
}

// scanBlock produces one surviving block's windowed, slice-filtered
// columns, going through the decoded-block cache when the window covers
// the whole block (the only shape worth caching: the watcher's trailing
// window re-reads the same interior blocks every tick).
func (s *Store) scanBlock(b *BlockMeta, key live.SliceKey, win live.Window) (core.Columns, error) {
	matchAll := key == live.AllSlices
	covered := win.From <= b.MinTime && (win.To == 0 || b.MaxTime < win.To)

	if cols := s.cache.get(b.File); cols != nil {
		return clipFilter(cols, key, win, matchAll, false), nil
	}

	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	data, err := readBlockBytes(s.fs, s.cfg.Dir, b.File, sc.buf)
	sc.buf = data[:0]
	if err != nil {
		return core.Columns{}, err
	}

	if covered && s.cache != nil {
		// Decode everything (tags included, so any future slice can filter
		// against the cached copy) into storage the cache will own.
		cols := new(blockCols)
		if err := decodeBlockCols(data, allTime, tagCols, cols); err != nil {
			return core.Columns{}, &BlockReadError{File: b.File, Err: err}
		}
		s.cache.put(b.File, cols)
		return clipFilter(cols, key, win, matchAll, false), nil
	}

	// Uncached path: chunk-skipping decode into pooled scratch, kept rows
	// copied out exactly sized. Tags are only decoded when the slice needs
	// them; user IDs never are.
	cs := scanCols
	if !matchAll {
		cs = tagCols
	}
	sc.cols.reset()
	if err := decodeBlockCols(data, win, cs, &sc.cols); err != nil {
		return core.Columns{}, &BlockReadError{File: b.File, Err: err}
	}
	return clipFilter(&sc.cols, key, win, matchAll, true), nil
}

// clipFilter narrows decoded columns to win ∩ key. The times are sorted,
// so the window clip is a binary search; matchAll slices then alias the
// clipped range without copying (unless copyOut, for scratch-backed
// columns that must not escape the worker).
func clipFilter(cols *blockCols, key live.SliceKey, win live.Window, matchAll, copyOut bool) core.Columns {
	lo, hi := cols.Range(win.From, win.To)
	if lo == hi {
		return core.Columns{}
	}
	var p core.Columns
	if matchAll {
		if !copyOut {
			return cols.Slice(lo, hi)
		}
		core.MergeColumns(&p, cols.Slice(lo, hi)) // one run: an exactly sized copy
		return p
	}
	n := 0
	for _, tag := range cols.tags[lo:hi] {
		if key.Matches(cell.Cell(tag)) {
			n++
		}
	}
	if n == 0 {
		return p
	}
	p = core.Columns{
		Times: make([]timeutil.Millis, 0, n),
		Lats:  make([]float64, 0, n),
		Seqs:  make([]uint64, 0, n),
	}
	for i := lo; i < hi; i++ {
		if key.Matches(cell.Cell(cols.tags[i])) {
			p.Times = append(p.Times, cols.Times[i])
			p.Lats = append(p.Lats, cols.Lats[i])
			p.Seqs = append(p.Seqs, cols.Seqs[i])
		}
	}
	return p
}

// blockMayMatch is the zone-map test: false proves the block holds no
// matching record, so the scan may skip the file entirely. Period cannot
// prune (any calendar day spans every period), so only the time range
// and the action/user-type presence masks participate: one of the
// slice's cells must have an action and a user type the block holds.
func blockMayMatch(b *BlockMeta, key live.SliceKey, win live.Window) bool {
	if b.MaxTime < win.From || win.To != 0 && b.MinTime >= win.To {
		return false
	}
	for _, c := range key.Cells() {
		if b.Actions&(1<<c.Action()) != 0 && b.UserTypes&(1<<c.UserType()) != 0 {
			return true
		}
	}
	return false
}
