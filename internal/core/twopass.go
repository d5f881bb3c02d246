package core

import (
	"errors"
	"math"
	"sort"
	"time"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// passCounts is what one pass over an input saw of its usable records: how
// many fell in each slot, how many in all, the first and last instant, and
// a digest of the (time, latency) sequence.
type passCounts struct {
	slots  map[int]int
	n      int
	lo, hi timeutil.Millis
	digest uint64
}

func (c *passCounts) add(slot int, t timeutil.Millis, lat float64) {
	if c.n == 0 || t < c.lo {
		c.lo = t
	}
	if c.n == 0 || t > c.hi {
		c.hi = t
	}
	c.n++
	c.slots[slot]++
	c.digest = rng.Mix64(rng.Mix64(c.digest+uint64(t)) + math.Float64bits(lat))
}

// same reports whether two passes saw the same records in the same order.
func (c *passCounts) same(o *passCounts) bool {
	return c.n == o.n && c.lo == o.lo && c.hi == o.hi && c.digest == o.digest
}

// errPassesDiffer refuses an input whose second pass did not yield the
// records its first pass counted.
var errPassesDiffer = errors.New("core: the input's second pass differs from its first")

// EstimateTimeNormalizedTwoPass is EstimateTimeNormalized over an input read
// twice instead of held in memory. pass must call fn with the time and
// latency of every usable (non-failed) row of the input, in the same order
// each time it is called, and return the first error fn returns.
//
// The first pass counts the usable records of each slot and finds the
// window bounds: slot retention, draw quotas and RNG streams depend on
// nothing else (slotDraws). The second buffers each retained slot's records
// until it holds its count, fills the slot's histograms and drops the
// buffer; records of thin slots are never buffered. Memory is the retained
// slots' histograms plus the buffers of the slots still open — one slot on
// time-ordered input.
//
// The curve, or the refusal, is byte-identical to EstimateTimeNormalized
// over the same records: a slot's buffer sorted by (time, position in the
// input) is the stable by-time sort restricted to that slot, and the slots
// reach poolNormalized in slot order. An input whose second pass differs
// from its first — in any slot's count, the window or the digest of its
// records — is an error.
func (e *Estimator) EstimateTimeNormalizedTwoPass(pass func(fn func(t timeutil.Millis, lat float64) error) error) (*Curve, error) {
	defer observeEstimate(time.Now())
	sp := e.trace.StartChild("estimate_time_normalized_two_pass")
	defer sp.End()

	firstSp := sp.StartChild("count_slots")
	first := passCounts{slots: make(map[int]int)}
	err := pass(func(t timeutil.Millis, lat float64) error {
		first.add(e.slotOf(t), t, lat)
		return nil
	})
	firstSp.End()
	if err != nil {
		return nil, err
	}
	if first.n == 0 {
		return nil, errEmptyRecords
	}
	sp.SetAttr("records", first.n)
	ids := make([]int, 0, len(first.slots))
	for slot := range first.slots {
		ids = append(ids, slot)
	}
	sort.Ints(ids)
	var slots []*slotData
	index := make(map[int]int) // slot → its position in slots
	for _, slot := range ids {
		if sd := e.retainSlot(slot, first.slots[slot], first.lo, first.hi+1); sd != nil {
			index[slot] = len(slots)
			slots = append(slots, sd)
		}
	}
	sp.SetAttr("slots", len(slots))
	if len(slots) == 0 {
		// Every slot is thin: the in-memory refusal, with nothing to fill.
		return e.poolNormalized(sp, nil, first.n)
	}
	quotas, srcs, _ := e.slotDraws(slots, first.n, rng.New(e.opts.Seed))

	fillSp := sp.StartChild("fill_slots")
	second := passCounts{slots: make(map[int]int, len(first.slots))}
	open := make(map[int]*Columns) // by position in slots
	var spare *Columns
	buffered, maxBuffered := 0, 0
	err = pass(func(t timeutil.Millis, lat float64) error {
		slot := e.slotOf(t)
		second.add(slot, t, lat)
		if second.slots[slot] > first.slots[slot] {
			return errPassesDiffer
		}
		i, ok := index[slot]
		if !ok {
			return nil
		}
		buf := open[i]
		if buf == nil {
			buf, spare = spare, nil
			if buf == nil {
				buf = new(Columns)
			}
			open[i] = buf
		}
		buf.Times = append(buf.Times, t)
		buf.Lats = append(buf.Lats, lat)
		buf.Seqs = append(buf.Seqs, uint64(second.n))
		buffered++
		maxBuffered = max(maxBuffered, buffered)
		sd := slots[i]
		if buf.Len() < sd.count {
			return nil
		}
		sort.Sort(buf)
		sd.times, sd.lats = buf.Times, buf.Lats
		e.fillSlotBiased(sd)
		e.fillSlotUnbiased(sd, quotas[i], srcs[i])
		sd.times, sd.lats = nil, nil
		delete(open, i)
		buffered -= sd.count
		buf.Reset()
		spare = buf
		return nil
	})
	fillSp.End()
	sp.SetAttr("max_buffered", maxBuffered)
	if err != nil {
		return nil, err
	}
	// No slot's count exceeded its first-pass count, so equal totals mean
	// equal counts everywhere and every retained slot was filled.
	if !second.same(&first) {
		return nil, errPassesDiffer
	}
	return e.poolNormalized(sp, slots, first.n)
}
