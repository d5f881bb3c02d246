package core

import (
	"math"
	"time"

	"autosens/internal/histogram"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// The delta-maintained time-normalized estimator.
//
// The paper's hourly slots are window-stable cells already: buildSlots gives
// retained slot i the key stream src.Split(i) over the slot's own [lo, hi),
// so the stream is a pure function of (seed, i, lo, hi) and a fold changes
// three things only — the records of the slots it lands in, the bounds of
// the first and last slot, and every slot's draw QUOTA (the slot's share of
// ceil(n·UnbiasedPerSample), which moves with n and with the total retained
// duration). normState keeps, per retained slot, a draw table: the key
// stream generated once to a little past the quota and sorted once, each key
// remembering its position in the stream (its generation) and what it
// adopts. Then
//
//   - the quota q is a prefix filter: the batch path's sorted keys are the
//     table's entries with generation < q, in table order (equal keys are
//     interchangeable — plan.go fact 3), and a draw's sorted rank, which
//     seeds its tie-break word, is the count of such entries before it;
//   - the tie-break seed for quota q is the raw word after the q-th key: with
//     no rejected word in the stream that is word 2q from the stream's
//     origin, one LCG jump-ahead away;
//   - records only ever arrive (folds are append-only), so a slot whose
//     record count is unchanged has unchanged content and its keys adopt
//     what they adopted before.
//
// So a slot is regenerated (RNG + sort) only when its stream identity
// (retained index, lo, hi) moved or the quota outgrew the table, re-swept
// (keys re-adopted against the slot's records, no RNG, no sort) only when it
// received records, and otherwise just re-filtered for the new quota — one
// sequential pass of integer compares that adds or retracts the few draws
// the quota change moved. poolNormalized then runs over the same slotData
// the batch path would have built, which is the whole byte-identity
// argument: identical histograms in, identical curve (and refusals) out.
type normState struct {
	parent rng.Source   // rng.New(seed), advanced by one Split per entry of splits
	splits []rng.Source // splits[i]: origin of retained slot i's key stream
	slots  map[int]*normSlot
	cuts   []slotCut   // partition scratch
	cur    []slotWork  // retained slots of the running estimate, in time order
	out    []*slotData // the same, as poolNormalized takes them
	last   NormalizedStats
	fresh  bool // last is unreported (see NormalizedStats)
}

// SlotPath is what bringing one retained slot current took in a
// delta-maintained time-normalized estimation.
type SlotPath uint8

const (
	// SlotReused slots kept their keys and adoptions: untouched, or
	// re-filtered for a changed quota.
	SlotReused SlotPath = iota
	// SlotReswept slots received records: keys kept, adoptions recomputed.
	SlotReswept
	// SlotRegenerated slots drew and sorted a fresh key table: their retained
	// index or bounds moved, or the quota outgrew the table's headroom.
	SlotRegenerated
	// SlotFallback slots cannot hold a table (a span or quota past 32 bits, a
	// rejected raw word in the key stream) and were filled by the batch
	// kernel.
	SlotFallback
	NumSlotPaths
)

func (p SlotPath) String() string {
	return [NumSlotPaths]string{"reused", "reswept", "regenerated", "fallback"}[p]
}

// NormalizedStats counts the retained slots of one delta-maintained
// time-normalized estimation by the path each took.
type NormalizedStats [NumSlotPaths]int

// drawEntryBytes is what a slot retains per draw: its tagged key
// (drawTable) and what it adopts.
const drawEntryBytes = 12

// normSlot is one retained slot's state across estimations. The embedded
// slotData is what poolNormalized reads; its times/lats are set only while
// the slot is being brought current.
type normSlot struct {
	slotData
	ridx  int      // rank among retained slots: selects the key stream
	quota int      // the draw count fineU/coarseU reflect
	table []uint64 // the key stream's draws, tagged and sorted (drawTable)
	// adopt[i] ≥ 0 is the slot-local index of the one record table[i]
	// adopts for certain. A draw that consumes tie-break randomness (exact
	// midpoint, equal-timestamp run) stores ^j, j being the record it stays
	// on (nearestFrom), and is resolved per quota (pickAt).
	adopt []int32
	// stFine/stCoarse hold the certain draws of the quota; fineU/coarseU are
	// these plus the tie-broken draws, which move with the quota's seed.
	stFine, stCoarse *histogram.Histogram
}

// slotWork is one retained slot's share of the running estimate.
type slotWork struct {
	slotCut
	ns   *normSlot
	path SlotPath
}

// estimateTimeNormalized computes the full time-normalized NLP curve
// (Section 2.4.1) over the folded records, bit-identical — curve or refusal
// — to the stateless estimate over the same columns, redoing only the
// per-slot work the folds since the last call invalidated.
func (inc *Incremental) estimateTimeNormalized() (*Curve, error) {
	defer observeEstimate(time.Now())
	e := inc.e
	sp := e.trace.StartChild("estimate_time_normalized_incremental")
	defer sp.End()
	n := inc.sum.Len()
	if n == 0 {
		return nil, errEmptyRecords
	}
	sp.SetAttr("records", n)
	if inc.norm == nil {
		inc.norm = &normState{parent: *rng.New(e.opts.Seed), slots: make(map[int]*normSlot)}
	}
	nz := inc.norm
	slotSp := sp.StartChild("refresh_slots")
	slots := nz.refresh(e, inc.sum.Times, inc.sum.Lats)
	slotSp.SetAttr("slots", len(slots))
	for path, count := range nz.last {
		slotSp.SetAttr(SlotPath(path).String(), count)
	}
	slotSp.End()
	return e.poolNormalized(sp, slots, n)
}

// NormalizedStats reports how the latest delta-maintained time-normalized
// estimate brought its slots current, and the bytes the draw tables retain.
// fresh says whether such an estimate ran since the previous call.
func (inc *Incremental) NormalizedStats() (last NormalizedStats, tableBytes int, fresh bool) {
	if inc.norm == nil {
		return NormalizedStats{}, 0, false
	}
	for _, ns := range inc.norm.slots {
		tableBytes += drawEntryBytes * cap(ns.table)
	}
	fresh, inc.norm.fresh = inc.norm.fresh, false
	return inc.norm.last, tableBytes, fresh
}

// retainedBytes approximates the heap the slot states hold between
// estimates: the draw tables plus six histograms a slot.
func (nz *normState) retainedBytes() int {
	n := 16*cap(nz.splits) + 40*cap(nz.cuts) + 56*cap(nz.cur) + 8*cap(nz.out)
	for _, ns := range nz.slots {
		n += drawEntryBytes*cap(ns.table) + 256
		if ns.fine != nil {
			n += 8 * 3 * (ns.fine.Bins() + ns.coarse.Bins())
		}
	}
	return n
}

// refresh partitions the columns into slots exactly as buildSlots does
// (cutSlots, drawQuota) and brings every retained slot's state current.
func (nz *normState) refresh(e *Estimator, times []timeutil.Millis, lats []float64) []*slotData {
	n := len(times)
	cuts, totalDur := e.cutSlots(nz.cuts, times)
	nz.cuts = cuts
	nz.cur = nz.cur[:0]
	for _, c := range cuts {
		ns := nz.slots[c.slot]
		if ns == nil {
			ns = &normSlot{slotData: slotData{slot: c.slot}}
			nz.slots[c.slot] = ns
		}
		nz.cur = append(nz.cur, slotWork{slotCut: c, ns: ns})
	}
	// Split advances the parent stream, so origins are derived serially, in
	// retained order, once each.
	for len(nz.splits) < len(nz.cur) {
		nz.splits = append(nz.splits, *nz.parent.Split(uint64(len(nz.splits))))
	}
	e.forEachIndex(len(nz.cur), func(r int) {
		w := &nz.cur[r]
		quota := e.drawQuota(n, w.hi-w.lo, totalDur)
		w.path = w.ns.update(e, r, times[w.i:w.j], lats[w.i:w.j], w.lo, w.hi, quota, &nz.splits[r])
	})
	nz.last, nz.fresh = NormalizedStats{}, true
	nz.out = nz.out[:0]
	for _, w := range nz.cur {
		nz.last[w.path]++
		nz.out = append(nz.out, &w.ns.slotData)
	}
	return nz.out
}

// update brings the slot current for an estimate in which it is retained
// slot ridx, holds the records (times, lats), spans [lo, hi) and is owed
// quota draws from the stream starting at origin.
func (ns *normSlot) update(e *Estimator, ridx int, times []timeutil.Millis, lats []float64, lo, hi timeutil.Millis, quota int, origin *rng.Source) SlotPath {
	grew := len(times) != ns.count
	moved := ridx != ns.ridx || lo != ns.lo || hi != ns.hi
	if !grew && !moved && quota == ns.quota {
		return SlotReused
	}
	ns.times, ns.lats = times, lats
	path := ns.refill(e, grew, moved, ridx, lo, hi, quota, origin)
	ns.times, ns.lats = nil, nil // never pin columns a later fold retires
	return path
}

// refill is update past the nothing-changed exit, with the slot's records
// in ns.times/ns.lats.
func (ns *normSlot) refill(e *Estimator, grew, moved bool, ridx int, lo, hi timeutil.Millis, quota int, origin *rng.Source) SlotPath {
	if grew {
		ns.count = len(ns.times)
		e.fillSlotBiased(&ns.slotData)
	}
	path := SlotReused
	if moved || quota > len(ns.table) {
		ns.ridx, ns.lo, ns.hi = ridx, lo, hi
		path = SlotRegenerated
		if !ns.generate(origin, uint64(hi-lo), quota) {
			ns.quota = quota
			src := *origin
			e.fillSlotUnbiased(&ns.slotData, quota, &src)
			return SlotFallback
		}
	} else if grew {
		path = SlotReswept
	}
	ns.sweep(e, origin, quota, path != SlotReused)
	return path
}

// generate draws and sorts the slot's key table for quota draws plus
// headroom — quotas drift with every fold, and a drift inside the headroom
// costs no RNG and no sort. It reports false, leaving no table, when the
// table cannot be drawn (drawTable) or the slot's record indices overflow
// the table's adopt field.
func (ns *normSlot) generate(origin *rng.Source, span uint64, quota int) bool {
	table, adopt := ns.table[:0], ns.adopt[:0]
	ns.table, ns.adopt = nil, nil
	if ns.count > math.MaxInt32 {
		return false
	}
	table, ok := drawTable(table, origin, span, quota+quota/8+16)
	if ok {
		if cap(adopt) < len(table) {
			adopt = make([]int32, len(table))
		}
		ns.table, ns.adopt = table, adopt[:len(table)]
	}
	return ok
}

// drawTable fills table (reusing its storage) with the first g keys of the
// stream at origin over span, tagged with their generation and sorted
// (drawKeys). It reports false when the tags' 32-bit fields cannot hold
// span or g, or a raw word of the stream was rejected: only an intact
// stream puts the tie-break seed of every quota q ≤ g at word 2q from origin
// (streamIntact).
func drawTable(table []uint64, origin *rng.Source, span uint64, g int) ([]uint64, bool) {
	if span > math.MaxUint32 || g > math.MaxInt32 {
		return table[:0], false
	}
	sc := slotSweepPool.Get().(*sweepScratch)
	defer slotSweepPool.Put(sc)
	if cap(table) < g {
		table = make([]uint64, g)
	}
	table = table[:g]
	src := *origin
	drawKeys(&src, span, table, &sc.tmp, true)
	if !streamIntact(origin, &src, g) {
		return table[:0], false
	}
	return table, true
}

// streamIntact reports whether drawing g keys took the stream from origin to
// end without a rejected raw word: every accepted key consumes exactly two
// generator steps, so only then is end the 2g-step jump from origin and the
// tie-break seed of any quota q ≤ g the word at 2q.
func streamIntact(origin, end *rng.Source, g int) bool {
	probe := *origin
	probe.Advance(2 * uint64(g))
	return probe == *end
}

// sweep makes the slot's unbiased histograms reflect the first quota draws
// of its stream in one pass over the table. With readopt set every key is
// first re-adopted against the slot's records (sweepNearest) and the
// certain draws are recounted from nothing; otherwise only the
// generations between the old quota and the new join or leave them. Either
// way the tie-broken draws of the quota are resolved afresh: their words
// derive from the quota's own seed and each draw's rank within the quota.
func (ns *normSlot) sweep(e *Estimator, origin *rng.Source, quota int, readopt bool) {
	times, lats := ns.times, ns.lats
	from, to, leave := uint32(ns.quota), uint32(quota), false
	switch {
	case readopt:
		from = 0
		e.resetHist(&ns.stFine, e.opts.BinWidthMS)
		e.resetHist(&ns.stCoarse, e.opts.AlphaBinWidthMS)
	case quota < ns.quota:
		from, to, leave = to, from, true
	}
	ns.quota = quota
	seed := *origin
	seed.Advance(2 * uint64(quota))
	auxSeed := seed.Uint64()
	e.resetHist(&ns.fineU, e.opts.BinWidthMS)
	e.resetHist(&ns.coarseU, e.opts.AlphaBinWidthMS)

	// move adds (or retracts) m certain draws adopting record j; sorted keys
	// adopt records in non-decreasing order, so draws are counted per record
	// and moved once. Weight-m moves are exact integer arithmetic in float64.
	move := func(j int32, m int) {
		if leave {
			ns.stFine.SubWeighted(lats[j], float64(m))
			ns.stCoarse.SubWeighted(lats[j], float64(m))
		} else {
			ns.stFine.AddWeighted(lats[j], float64(m))
			ns.stCoarse.AddWeighted(lats[j], float64(m))
		}
	}
	if readopt {
		sweepNearest(times, ns.lo, ns.table, 32, allDraws, 0,
			func(j0, k0 int, counts []uint64) {
				for i, c := range counts {
					for ; c > 0; c-- {
						ns.adopt[k0] = int32(j0 + i)
						k0++
					}
				}
			},
			func(_, k, j int, _ timeutil.Millis) { ns.adopt[k] = ^int32(j) })
	}
	q := uint32(quota)
	rank := 0
	run, m := int32(0), 0
	for i, key := range ns.table {
		gen, adopt := uint32(key), ns.adopt[i]
		if gen < q {
			if adopt < 0 {
				j, t := int(^adopt), ns.lo+timeutil.Millis(key>>32)
				v := lats[pickAt(times, j, t, rng.Mix64(auxSeed+uint64(rank)))]
				ns.fineU.Add(v)
				ns.coarseU.Add(v)
			}
			rank++
		}
		if adopt >= 0 && gen-from < to-from {
			if adopt != run && m > 0 {
				move(run, m)
				m = 0
			}
			run = adopt
			m++
		}
	}
	if m > 0 {
		move(run, m)
	}
	// Counts are integers, so aux-then-certain sums to the same bits as the
	// batch sweep's interleaved order.
	_ = ns.fineU.AddHistogram(ns.stFine) // same binning by construction
	_ = ns.coarseU.AddHistogram(ns.stCoarse)
}

// sweepTable adds to fineU and coarseU the first quota draws of a full-slot
// table — the draws fillSlotUnbiased makes from the table's origin over
// [lo, lo+span) — adopting among the slot's records times, binned once into
// fine and coarse. The table is read only: the draws of the quota are its
// entries with generation below it, in table order (the prefix filter), and
// auxSeed must be the quota's tie-break seed, the word 2·quota from the
// origin.
func sweepTable(table []uint64, quota int, auxSeed uint64, times []timeutil.Millis, fine, coarse []uint16, lo timeutil.Millis, fineU, coarseU *histogram.Histogram) {
	sweepNearest(times, lo, table, 32, uint32(quota), 0,
		func(j0, _ int, counts []uint64) {
			for i, c := range counts {
				if c != 0 {
					fineU.AddIndex(int(fine[j0+i]), float64(c))
					coarseU.AddIndex(int(coarse[j0+i]), float64(c))
				}
			}
		},
		func(rank, _, j int, t timeutil.Millis) {
			k := pickAt(times, j, t, rng.Mix64(auxSeed+uint64(rank)))
			fineU.AddIndex(int(fine[k]), 1)
			coarseU.AddIndex(int(coarse[k]), 1)
		})
}
