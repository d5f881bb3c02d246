package store

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"autosens/internal/cell"
	"autosens/internal/parallel"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// encodeBufPool recycles block encode buffers across compaction runs and
// parallel block writers.
var encodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// segRows is one WAL segment's replay: its storable rows carrying
// segment-LOCAL sequence numbers (rebased once every segment's total is
// known) and the count of ALL its records, stored or skipped.
type segRows struct {
	rows  []row
	total uint64
}

// CompactOnce folds every not-yet-compacted sealed WAL segment into
// sorted block files, applies retention GC, and installs the result as
// the new manifest. It returns how many records were stored into new
// blocks (0 with a nil error when there was nothing to do).
//
// The work is pipelined across Config.ScanWorkers: segments replay,
// rebase, and sort concurrently (each holds an independent slice of the
// sequence space, so per-segment work is order-free), their sorted runs
// k-way merge, and the resulting blocks encode and fsync concurrently —
// on small machines the overlapped fsyncs are the win, since the disk
// flush is wait, not compute. The output is byte-identical to the
// sequential fold: (time, seq) pairs are unique, so the merged order is
// a unique total order, and block boundaries and IDs depend only on it.
//
// Crash safety: block files are written and synced first, the manifest
// rename is the single commit point, and folded segments are deleted
// only after it. A failure anywhere leaves the installed manifest — and
// therefore the store's visible state — exactly as before; the next
// attempt re-reads the same segments with the same NextSeq and
// NextBlockID, so it regenerates byte-identical blocks over its own
// orphans and can never double-count a record.
//
// Locking: cmu makes compactions single-flight end to end; the manifest
// mutex is held only to snapshot and to install, so scans never stall
// behind a multi-millisecond fold.
func (s *Store) CompactOnce() (int, error) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	man := s.snapshotManifest()

	active := ""
	if s.cfg.Active != nil {
		active = s.cfg.Active()
	}
	sealed, err := wal.SealedSegments(s.fs, s.cfg.WALDir, active)
	if err != nil {
		return 0, fmt.Errorf("store: list sealed segments: %w", err)
	}
	var pending []string
	through := man.CompactedThrough
	for _, name := range sealed {
		if i, ok := wal.SegmentIndex(name); ok && i > man.CompactedThrough {
			pending = append(pending, name)
			if i > through {
				through = i
			}
		}
	}
	if len(pending) == 0 && s.cfg.Retention <= 0 {
		return 0, nil
	}

	// Replay the pending segments concurrently, each assigning LOCAL
	// sequence numbers from zero and counting every record — stored,
	// failed, out-of-range, or unowned — exactly as the live engine's
	// Warm consumes one sequence slot per record.
	segs := make([]segRows, len(pending))
	errs := make([]error, len(pending))
	walBytes := s.takeRowBufs(pending, segs)
	defer s.keepRowBufs(segs)
	parallel.ForEach(s.cfg.ScanWorkers, len(pending), func(i int) {
		sg := &segs[i]
		errs[i] = wal.ReplaySegment(s.fs, s.cfg.WALDir, pending[i], func(r telemetry.Record) error {
			thisSeq := sg.total
			sg.total++
			c, ok := cell.Of(r)
			if !ok || s.cfg.Owns != nil && !s.cfg.Owns(r.UserID) {
				return nil
			}
			sg.rows = append(sg.rows, row{
				time: r.Time, lat: r.LatencyMS, seq: thisSeq,
				user: r.UserID, tag: uint8(c),
			})
			return nil
		})
	})
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("store: fold segment %s: %w", pending[i], err)
		}
	}

	if replayed := rowsIn(segs); replayed > 0 && walBytes > 0 {
		s.rowBytes = float64(walBytes) / float64(replayed)
	}

	// Rebase each segment onto the global sequence space (segments are
	// consumed in name order, so bases are a prefix sum of totals), then
	// sort each into a (time, seq) run, again concurrently.
	seq := man.NextSeq
	bases := make([]uint64, len(segs))
	for i := range segs {
		bases[i] = seq
		seq += segs[i].total
	}
	parallel.ForEach(s.cfg.ScanWorkers, len(segs), func(i int) {
		rows, base := segs[i].rows, bases[i]
		for j := range rows {
			rows[j].seq += base
		}
		// (time, seq) pairs are unique, so the order has no equal rows.
		slices.SortFunc(rows, func(a, b row) int {
			if a.before(&b) {
				return -1
			}
			return 1
		})
	})
	rows := mergeSegRows(segs)

	next := man
	next.Blocks = append([]BlockMeta(nil), man.Blocks...)
	next.NextSeq = seq
	next.CompactedThrough = through

	// Cut the merged rows into block extents, then encode + write + fsync
	// them concurrently: each block's id, contents, and therefore bytes
	// are already fixed, so parallel writers can't perturb the output —
	// they only overlap the disk flushes.
	var extents [][]row
	for len(rows) > 0 {
		chunk := rows
		if len(chunk) > s.cfg.BlockRecords {
			chunk = chunk[:s.cfg.BlockRecords]
		}
		rows = rows[len(chunk):]
		extents = append(extents, chunk)
	}
	metas := make([]BlockMeta, len(extents))
	werrs := make([]error, len(extents))
	parallel.ForEach(s.cfg.ScanWorkers, len(extents), func(i int) {
		buf := encodeBufPool.Get().(*[]byte)
		var meta BlockMeta
		meta, *buf, werrs[i] = writeBlock(s.fs, s.cfg.Dir, next.NextBlockID+uint64(i), extents[i], *buf)
		encodeBufPool.Put(buf)
		metas[i] = meta
	})
	for _, err := range werrs {
		if err != nil {
			return 0, err
		}
	}
	next.Blocks = append(next.Blocks, metas...)
	next.NextBlockID += uint64(len(extents))
	stored := 0
	for _, m := range metas {
		stored += m.Records
	}

	// Retention GC: drop whole blocks whose newest record has aged past
	// the retention horizon, measured from the newest record in any
	// block (not the wall clock, so an idle stream never loses its tail).
	var dropped []BlockMeta
	if s.cfg.Retention > 0 && len(next.Blocks) > 0 {
		newest := next.Blocks[0].MaxTime
		for _, b := range next.Blocks {
			if b.MaxTime > newest {
				newest = b.MaxTime
			}
		}
		cutoff := newest - timeutil.Millis(s.cfg.Retention.Milliseconds())
		kept := next.Blocks[:0]
		for _, b := range next.Blocks {
			if b.MaxTime < cutoff {
				dropped = append(dropped, b)
			} else {
				kept = append(kept, b)
			}
		}
		next.Blocks = kept
	}
	next.LastCompactionMS = time.Now().UnixMilli()

	// The commit point. Failure leaves s.man (and every reader) on the
	// old manifest; the new block files become orphans the next Open or
	// the next successful attempt overwrites.
	if err := installManifest(s.fs, s.cfg.Dir, &next); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.man = next
	s.mu.Unlock()
	s.compactions.Add(1)

	// If retention GC removed blocks this incarnation was serving, the
	// visible set shrank: purge the decoded-block cache and advance the
	// generation so windowed live state reseeds its cold columns. Blocks
	// added above don't need this — they stay invisible until restart.
	droppedVisible := false
	for _, b := range dropped {
		if b.MaxSeq < s.cutover {
			droppedVisible = true
			break
		}
	}
	if droppedVisible {
		s.gen.Add(1)
		s.cache.purge()
	}

	// Post-commit cleanup: dropped blocks and folded segments. Failures
	// here leave stray files the next Open removes — never state errors.
	for _, b := range dropped {
		if err := s.fs.Remove(filepath.Join(s.cfg.Dir, b.File)); err != nil {
			s.logf("store: remove retired block %s: %v", b.File, err)
		}
	}
	for _, name := range pending {
		if err := s.fs.Remove(filepath.Join(s.cfg.WALDir, name)); err != nil {
			s.logf("store: remove folded segment %s: %v", name, err)
		}
	}
	if len(pending) > 0 || len(dropped) > 0 {
		s.logf("store: compacted %d segment(s) → %d record(s), dropped %d block(s), next_seq=%d",
			len(pending), stored, len(dropped), next.NextSeq)
	}
	return stored, nil
}

// maxKeptRows caps the replay buffers kept between compactions (40 MB of
// rows each): a node with default 64 MiB TBIN segments replays millions of
// rows per segment and should not pin that between ticks.
const maxKeptRows = 1 << 20

// takeRowBufs hands every pending segment a replay buffer: one kept from
// the previous compaction when there is one, presized — when the
// filesystem can report sizes and a previous replay measured the WAL
// bytes a stored row takes — from the segment's byte size, so the replay
// appends into place instead of growing from zero. It returns the
// segments' total size (0 when unknown). Caller holds cmu.
func (s *Store) takeRowBufs(pending []string, segs []segRows) (walBytes int64) {
	sizer, _ := s.fs.(interface{ Size(string) (int64, error) })
	for i, name := range pending {
		if n := len(s.rowBufs); n > 0 {
			segs[i].rows, s.rowBufs = s.rowBufs[n-1], s.rowBufs[:n-1]
		}
		if sizer == nil {
			continue
		}
		size, err := sizer.Size(filepath.Join(s.cfg.WALDir, name))
		if err != nil {
			continue // the replay will report it
		}
		walBytes += size
		if s.rowBytes > 0 {
			if want := int(float64(size)/s.rowBytes) + 64; cap(segs[i].rows) < want {
				segs[i].rows = make([]row, 0, want)
			}
		}
	}
	return walBytes
}

// keepRowBufs returns the replay buffers for the next compaction. Nothing
// refers to their rows by then: blocks are encoded before CompactOnce
// returns.
func (s *Store) keepRowBufs(segs []segRows) {
	s.rowBufs = s.rowBufs[:0]
	for i := range segs {
		if c := cap(segs[i].rows); c > 0 && c <= maxKeptRows {
			s.rowBufs = append(s.rowBufs, segs[i].rows[:0])
		}
	}
}

// rowsIn counts the rows the segments replayed.
func rowsIn(segs []segRows) (n int) {
	for i := range segs {
		n += len(segs[i].rows)
	}
	return n
}

// mergeSegRows k-way merges the per-segment sorted runs into one flat
// (time, seq)-sorted slice — the one sorted merge outside
// core.MergeColumns: rows are structs carrying the user ID and tag bytes a
// block stores, and it runs once per compaction, off the query path. Runs
// from distinct segments interleave in time (segments are consecutive
// slices of the stream), so there is no concatenation fast path to chase
// beyond the trivial single-run case — but two-run merges (the common
// compaction cadence) still take the two-cursor path.
func mergeSegRows(segs []segRows) []row {
	runs := make([][]row, 0, len(segs))
	n := rowsIn(segs)
	for i := range segs {
		if len(segs[i].rows) > 0 {
			runs = append(runs, segs[i].rows)
		}
	}
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	out := make([]row, 0, n)
	if len(runs) == 2 {
		a, b := runs[0], runs[1]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if b[j].before(&a[i]) {
				out = append(out, b[j])
				j++
			} else {
				out = append(out, a[i])
				i++
			}
		}
		return append(append(out, a[i:]...), b[j:]...)
	}
	cur := make([]int, len(runs))
	for {
		best := -1
		for i := range runs {
			if cur[i] >= len(runs[i]) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			if runs[i][cur[i]].before(&runs[best][cur[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best][cur[best]])
		cur[best]++
	}
}

// CompactLoop runs CompactOnce every interval until ctx is done. Errors
// are logged and retried on the next tick — a transient filesystem
// failure must not kill the tier.
func (s *Store) CompactLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := s.CompactOnce(); err != nil {
				s.logf("store: compaction failed (will retry): %v", err)
			}
		}
	}
}
