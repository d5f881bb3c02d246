package live

import (
	"encoding/binary"
	"sort"
	"sync"

	"autosens/internal/cell"
	"autosens/internal/core"
	"autosens/internal/histogram"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// blockRecs is the record capacity of one store block. Blocks keep append
// cost flat: a full block is sealed and a fresh one started, so the hot
// path never pays the O(n) copy of growing one contiguous buffer.
const blockRecs = 4096

// block is one fixed-capacity chunk of a shard's columnar store. Delta
// chains (time, seq) run across block boundaries — a block is purely a
// storage unit, not a decode restart point.
type block struct {
	n     int
	tbuf  []byte // zigzag-varint time deltas, ack order
	sbuf  []byte // uvarint seq deltas (seqs strictly increase per shard)
	lats  []float64
	cells []cell.Cell
}

func newBlock() *block {
	return &block{
		// Typical deltas are small (ack order is near time order): ~3
		// bytes of time delta and ~2 of seq delta per record. Outliers
		// just grow the byte slices past the hint.
		tbuf:  make([]byte, 0, 3*blockRecs),
		sbuf:  make([]byte, 0, 2*blockRecs),
		lats:  make([]float64, 0, blockRecs),
		cells: make([]cell.Cell, 0, blockRecs),
	}
}

// shard is one slice of the engine's columnar record store, owning the
// records whose user hashes to it. Storage is TBIN-style compact columns
// in ack order: times and ack sequence numbers as varint deltas (ack order
// is near time order, so time deltas are small), the slice-dimension cell
// as one byte, and latencies as raw float64.
type shard struct {
	mu sync.Mutex

	n      int
	blocks []*block
	lastT  timeutil.Millis
	lastS  uint64

	// counts[c] counts stored records in cell c; a slice's version is the
	// sum over its cells. A view built at version v is exact iff the sum
	// still equals v (cell counters are monotone, so equality ⟺ nothing
	// matching arrived since).
	counts [cell.NumCells]uint64

	// views caches, per queried slice, the shard's matching records as
	// (time, seq)-sorted flat columns plus their biased histogram — the
	// per-shard half of a curve recompute. A clean shard answers the next
	// recompute from here without touching the record store.
	views map[SliceKey]*shardView
}

// shardView is one slice's materialized sorted columns within one shard.
// Views are immutable once installed: an incremental update builds a fresh
// view, so concurrent readers of the old one are never disturbed.
type shardView struct {
	core.Columns
	ver uint64
	b   *histogram.Histogram

	// cp is the store position this view's decode ended at; the next
	// rebuild resumes there and touches only records appended since.
	cp checkpoint
}

// checkpoint is a resumable position in a shard's block chain: the next
// record to decode lives in blocks[blk] at record index rec (byte offsets
// toff/soff), with t and seq the running delta-decode accumulators.
type checkpoint struct {
	blk  int
	rec  int
	toff int
	soff int
	t    int64
	seq  uint64
}

// blockSnap is an immutable prefix of one block, captured under the shard
// lock. The slice headers are bounded by the record count at capture time;
// concurrent appends only write past those bounds (or into a fresh backing
// array after growth), so decoding a snapshot outside the lock is safe.
type blockSnap struct {
	n     int
	tbuf  []byte
	sbuf  []byte
	lats  []float64
	cells []cell.Cell
}

// appendRun stores one chunk's run of records for this shard under a
// single lock acquisition. The run is a linked list over chunk indices
// (values are index+1, zero terminates), built front to back, so records
// land in chunk order; the caller guarantees base+index is strictly
// greater than every seq already in this shard.
func (s *shard) appendRun(recs []telemetry.Record, base uint64, first int16, next *[appendChunk]int16, cells *[appendChunk]cell.Cell) {
	s.mu.Lock()
	var blk *block
	if k := len(s.blocks); k > 0 && s.blocks[k-1].n < blockRecs {
		blk = s.blocks[k-1]
	} else {
		blk = newBlock()
		s.blocks = append(s.blocks, blk)
	}
	for i := first; i != 0; i = next[i-1] {
		r := &recs[i-1]
		if blk.n == blockRecs {
			blk = newBlock()
			s.blocks = append(s.blocks, blk)
		}
		seq := base + uint64(i-1)
		blk.tbuf = binary.AppendVarint(blk.tbuf, int64(r.Time-s.lastT))
		blk.sbuf = binary.AppendUvarint(blk.sbuf, seq-s.lastS)
		s.lastT = r.Time
		s.lastS = seq
		blk.lats = append(blk.lats, r.LatencyMS)
		blk.cells = append(blk.cells, cells[i-1])
		blk.n++
		s.n++
		s.counts[cells[i-1]]++
	}
	s.mu.Unlock()
}

// versionLocked sums the cell counters of one slice. Caller holds s.mu.
func (s *shard) versionLocked(key SliceKey) uint64 {
	var sum uint64
	for _, c := range key.Cells() {
		sum += s.counts[c]
	}
	return sum
}

// viewFor returns the shard's sorted column view for a slice, rebuilding
// it only when appends dirtied the slice since the last build. newHist
// allocates a biased histogram with the engine's binning. The returned
// view is immutable (a rebuild installs a fresh one). rebuilt reports
// whether this call had to rebuild.
//
// A rebuild is incremental and runs outside the shard lock: the lock is
// held only to snapshot the block chain (slice headers + record counts)
// and to install the result. The decode resumes from the previous view's
// checkpoint, so its cost is proportional to the records appended since
// the last build — not the store size — and appends never stall behind it.
func (s *shard) viewFor(key SliceKey, newHist func() *histogram.Histogram) (v *shardView, rebuilt bool) {
	s.mu.Lock()
	cur := s.versionLocked(key)
	old := s.views[key]
	if old != nil && old.ver == cur {
		s.mu.Unlock()
		return old, false
	}
	cp := checkpoint{}
	if old != nil {
		cp = old.cp
	}
	snap := s.snapLocked(cp.blk, nil)
	s.mu.Unlock()

	v = buildView(old, cp, snap, cur, key, newHist)

	s.mu.Lock()
	if s.views == nil {
		s.views = make(map[SliceKey]*shardView)
	}
	// A concurrent rebuild may have installed a newer view; keep the
	// newest. Ours is still an exact snapshot at cur, which is what this
	// recompute stamped, so it is returned either way.
	if exist := s.views[key]; exist == nil || exist.ver < v.ver {
		s.views[key] = v
	}
	s.mu.Unlock()
	return v, true
}

// snapLocked captures blocks[from:] as immutable prefixes, appending to
// sn[:0]. Only the suffix a resumed decode will read is captured, so the
// time under the shard lock — which ingest contends on — is proportional to
// the blocks appended since the checkpoint, not to the store. Caller holds
// s.mu.
func (s *shard) snapLocked(from int, sn []blockSnap) []blockSnap {
	sn = sn[:0]
	for _, blk := range s.blocks[from:] {
		sn = append(sn, blockSnap{n: blk.n, tbuf: blk.tbuf, sbuf: blk.sbuf, lats: blk.lats, cells: blk.cells})
	}
	return sn
}

// decodeSuffix decodes every record past *cp that matches key into dst and
// advances the checkpoint. sn is a snapLocked capture starting at block
// cp.blk; the varint decode runs on it outside the shard lock.
func decodeSuffix(cp *checkpoint, sn []blockSnap, key SliceKey, dst *core.Columns) {
	base := cp.blk
	for i := range sn {
		blk := &sn[i]
		rec, toff, soff := 0, 0, 0
		if i == 0 {
			rec, toff, soff = cp.rec, cp.toff, cp.soff
		}
		for ; rec < blk.n; rec++ {
			dt, nt := binary.Varint(blk.tbuf[toff:])
			ds, ns := binary.Uvarint(blk.sbuf[soff:])
			toff += nt
			soff += ns
			cp.t += dt
			cp.seq += ds
			if !key.Matches(blk.cells[rec]) {
				continue
			}
			dst.Times = append(dst.Times, timeutil.Millis(cp.t))
			dst.Lats = append(dst.Lats, blk.lats[rec])
			dst.Seqs = append(dst.Seqs, cp.seq)
		}
		cp.blk, cp.rec, cp.toff, cp.soff = base+i, blk.n, toff, soff
	}
}

// buildView extends old (which may be nil) with every record of snap (a
// capture starting at cp, old's checkpoint), returning a fresh sorted view
// at version cur.
func buildView(old *shardView, cp checkpoint, snap []blockSnap, cur uint64, key SliceKey, newHist func() *histogram.Histogram) *shardView {
	// Decode only the suffix since the checkpoint, gathering matches. The
	// suffix arrives in ack (seq) order; new records interleave with old
	// ones by time, so the delta is sorted and merged below.
	var dc core.Columns
	decodeSuffix(&cp, snap, key, &dc)
	// Ack order already breaks time ties by seq (seqs increase in ack
	// order), so sorting by (time, seq) reproduces exactly the stable
	// by-time sort the batch estimator applies to the ack-ordered stream.
	sort.Sort(&dc)

	v := &shardView{Columns: dc, ver: cur, b: newHist(), cp: cp}
	if old != nil && old.Len() > 0 {
		v.Columns = core.Columns{}
		core.MergeColumns(&v.Columns, old.Columns, dc)
	}
	// The biased histogram is pure weight-1 adds (exact integer arithmetic
	// in float64), so summing the old view's histogram with the delta's
	// records is bit-identical to rebuilding from scratch in any order.
	if old != nil {
		if err := v.b.AddHistogram(old.b); err != nil {
			// Histograms share the engine's binning by construction.
			panic("live: view histogram binning mismatch: " + err.Error())
		}
	}
	for _, lat := range dc.Lats {
		v.b.Add(lat)
	}
	return v
}

// deltaSince decodes every record appended past *cp that matches key,
// appending it to dst and advancing the checkpoint. Like viewFor, the
// shard lock is held only to snapshot the block chain (into *snap, a
// pooled scratch slice); the varint decode runs on the immutable snapshot,
// so appends never stall behind a recompute. Returns the number of
// matching records decoded — zero on the clean fast path, which takes the
// lock once and touches no block bytes.
func (s *shard) deltaSince(cp *checkpoint, key SliceKey, dst *core.Columns, snap *[]blockSnap) int {
	s.mu.Lock()
	if len(s.blocks) == 0 ||
		(cp.blk == len(s.blocks)-1 && cp.rec == s.blocks[cp.blk].n) {
		s.mu.Unlock()
		return 0
	}
	*snap = s.snapLocked(cp.blk, *snap)
	s.mu.Unlock()

	before := len(dst.Times)
	decodeSuffix(cp, *snap, key, dst)
	return len(dst.Times) - before
}

// bytes reports the shard's approximate store footprint.
func (s *shard) bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, blk := range s.blocks {
		total += len(blk.tbuf) + len(blk.sbuf) + 8*len(blk.lats) + len(blk.cells)
	}
	return total
}
