package core

import (
	"math"
	"math/bits"
	"slices"

	"autosens/internal/parallel"
	"autosens/internal/rng"
)

// drawCount is the unbiased draw schedule: ceil(n · UnbiasedPerSample).
func drawCount(n int, perSample float64) int {
	return int(math.Ceil(float64(n) * perSample))
}

// UnbiasedPlan retains the unbiased draw-key schedule across estimations so
// a re-estimation after a small data fold regenerates only the keys the
// grown draw count requires — usually a handful — instead of re-drawing and
// re-sorting the full O(draws) schedule every epoch.
//
// Byte-identity with the batch path rests on three facts about
// fillUnbiasedSweep:
//
//  1. The key stream is a pure function of (seed, span): keys[i] is the
//     i-th rejection-sampled Uint64n(span) from rng.New(seed), so when the
//     observation span is unchanged and the draw count grows from n to
//     n+k, the batch path's first n keys equal the previous run's keys
//     verbatim. The plan snapshots the generator state after the n-th key
//     (rng.Source is a value type) and continues the very same stream for
//     the k new keys.
//  2. auxSeed is the stream value immediately after the last key, so it
//     moves every time the draw count does. The plan re-derives it from a
//     copy of the post-keys state, never advancing the retained state.
//  3. The sweep (sweepNearest) counts draws per record and adds each
//     record's count once; only draws on an equal-timestamp run or an
//     exact midpoint take tie-break randomness, Mix64(auxSeed + rank) with
//     rank taken in sorted-key order. Equal keys are indistinguishable
//     (same instant, same record, same candidate run), so ANY correct sort
//     of the key multiset — including merging k newly sorted keys into the
//     retained sorted prefix — yields an identical histogram.
//
// If the seed, the span, or (shrinking) the draw count invalidates the
// retained schedule, the plan regenerates from scratch into its retained
// buffers through drawKeys, like every other key schedule in the package.
//
// The zero value is ready to use. A plan is single-goroutine state; callers
// pin it behind the same lock as the Scratch it accompanies.
type UnbiasedPlan struct {
	seed  uint64
	span  uint64
	draws int
	valid bool

	// src is the generator state after drawing the first `draws` keys and
	// before the auxSeed draw — the resume point for stream extension.
	src     rng.Source
	sorted  []uint64
	auxSeed uint64
	// reused reports how many keys the last update retained and fallback
	// whether its regeneration redrew a chunked stream serially (span attrs).
	reused   int
	fallback bool

	tail    []uint64 // newly drawn keys awaiting merge
	staged  int      // target draw count of a staged, uncommitted extension
	scratch []uint64 // radix-sort ping-pong buffer
}

// update makes the plan current for (seed, span, draws): afterwards
// p.sorted holds the sorted key multiset fillUnbiasedSweep would have
// produced and p.auxSeed its tie-break seed. A regenerated schedule is drawn
// in chunks pieces (drawKeysChunked); extensions stay serial.
func (p *UnbiasedPlan) update(seed uint64, span uint64, draws, chunks int) {
	p.fallback = false
	switch {
	case p.valid && seed == p.seed && span == p.span && draws == p.draws:
		p.reused = draws
		return
	case p.valid && seed == p.seed && span == p.span && draws > p.draws:
		p.extend(draws)
		return
	}
	p.regenerate(seed, span, draws, chunks)
}

// RetainedBytes is the heap the plan's key buffers hold between updates.
func (p *UnbiasedPlan) RetainedBytes() int {
	return 8 * (cap(p.sorted) + cap(p.tail) + cap(p.scratch))
}

// regenerate rebuilds the full schedule from a fresh stream. Under an
// advancing clock that is every estimate, each a few draws longer than the
// last, so the key buffer (like the sort's scratch) grows the amortized way.
func (p *UnbiasedPlan) regenerate(seed, span uint64, draws, chunks int) {
	p.seed, p.span, p.draws = seed, span, draws
	p.reused = 0
	p.valid = true
	p.sorted = extend(p.sorted[:0], draws)
	p.src = *rng.New(seed)
	p.auxSeed, p.fallback = drawKeysChunked(chunks, &p.src, span, p.sorted, &p.scratch, false)
}

// extend continues the retained key stream for draws-p.draws new keys and
// merges them into the sorted schedule in place.
func (p *UnbiasedPlan) extend(draws int) {
	p.stageExtend(draws)
	p.commitExtend()
}

// stageExtend generates and sorts the new keys that grow the schedule to
// draws, returning them WITHOUT merging into p.sorted: between stage and
// commit, callers can compute how retained sorted ranks will shift (a
// retained key's rank grows by the number of staged keys strictly below it
// — staged duplicates of a retained value land after it). The generator
// state and auxSeed advance here; commitExtend performs the merge. The
// returned slice aliases plan scratch and is valid until the next stage.
func (p *UnbiasedPlan) stageExtend(draws int) []uint64 {
	k := draws - p.draws
	p.reused = p.draws
	p.staged = draws
	if cap(p.tail) < k {
		p.tail = make([]uint64, k)
	}
	tail := p.tail[:k]
	p.auxSeed = drawKeys(&p.src, p.span, tail, &p.scratch, false)
	return tail
}

// commitExtend merges the staged tail into the sorted schedule in place.
func (p *UnbiasedPlan) commitExtend() {
	draws := p.staged
	n := p.draws
	k := draws - n
	tail := p.tail[:k]
	if cap(p.sorted) < draws {
		grown := make([]uint64, draws, draws+draws/2)
		copy(grown, p.sorted[:n])
		p.sorted = grown
	} else {
		p.sorted = p.sorted[:draws]
	}
	// Backward two-way merge: safe in place because writes trail reads.
	// Retained keys move only when strictly greater, so equal staged keys
	// land after every retained duplicate — the tie order rank shifts are
	// computed against.
	i, j, w := n-1, k-1, draws-1
	for j >= 0 {
		if i >= 0 && p.sorted[i] > tail[j] {
			p.sorted[w] = p.sorted[i]
			i--
		} else {
			p.sorted[w] = tail[j]
			j--
		}
		w--
	}
	p.draws = draws
}

// keyChunkMin is the fewest keys one chunk of a split schedule or sweep
// holds: below it the fork-join costs more than another core saves. Tests
// lower it to split small inputs.
var keyChunkMin = 1 << 15

// keyChunks is how many chunks a schedule of n keys is drawn and swept in:
// one per estimator worker, each at least keyChunkMin keys.
func (e *Estimator) keyChunks(n int) int {
	return parallel.Workers(e.opts.Workers, n/keyChunkMin)
}

// drawKeys is drawKeysChunked in one chunk: the schedule of callers that
// already run inside a pool (slot tables and fills, stageExtend tails).
func drawKeys(src *rng.Source, span uint64, keys []uint64, scratch *[]uint64, tag bool) (auxSeed uint64) {
	auxSeed, _ = drawKeysChunked(1, src, span, keys, scratch, tag)
	return auxSeed
}

// drawKeysChunked is the package's one unbiased key schedule: it fills keys
// with len(keys) draw offsets uniform in [0, span) — the stream that many
// src.Uint64n(span) calls yield — takes the tie-break seed, and sorts the
// keys ascending. The seed is the raw word following the last key; src is
// left BEFORE it, so a retained src resumes the key stream where this call
// stopped.
//
// With tag set each element becomes offset<<32 | generation index before the
// sort, which then orders by offset alone: every sorted key remembers when
// it was drawn, so the first q draws of the stream are the elements whose
// low word is below q, still in sorted order. The caller guarantees that
// span and len(keys) fit 32 bits.
//
// scratch is the radix sort's retained ping-pong buffer (see
// radixSortUint64). With chunks > 1 the work is split over that many workers
// (drawPartitioned) and the output is the same; fellBack reports that a
// rejected raw word sent the split draw back to the serial one.
func drawKeysChunked(chunks int, src *rng.Source, span uint64, keys []uint64, scratch *[]uint64, tag bool) (auxSeed uint64, fellBack bool) {
	payload := uint(0)
	if tag {
		payload = 32
	}
	if chunks > 1 && span > 0 && len(keys) >= chunks {
		if drawPartitioned(chunks, src, span, keys, scratch, payload) {
			peek := *src
			return peek.Uint64(), false
		}
		fellBack = true
		if m := getMetrics(); m != nil {
			m.keyFallbacks.Inc()
		}
	}
	if span > 0 {
		src.FillUint64n(keys, span)
	} else {
		clear(keys)
	}
	peek := *src
	auxSeed = peek.Uint64()
	if tag {
		for g := range keys {
			keys[g] = keys[g]<<32 | uint64(g)
		}
	}
	radixSortUint64(keys, scratch, payload)
	return auxSeed, fellBack
}

// drawPartitioned draws and sorts keys in chunks contiguous pieces. An
// accepted key is exactly two generator steps, so chunk w draws keys
// [lo, hi) from a copy of src jumped 2·lo steps ahead, tags and counts them
// per top-bit bucket of span as it goes, and must end 2·hi steps from src —
// streamIntact; otherwise a raw word was rejected somewhere (probability
// below span/2⁶⁴ per word), the chunks hold a different stream, and it
// returns false with src untouched. Intact chunks scatter into the buckets
// at offsets fixed by chunk order, so a bucket holds its keys in generation
// order, and each bucket is radix sorted on its own: the concatenation is
// the one sorted schedule, tags included.
func drawPartitioned(chunks int, src *rng.Source, span uint64, keys []uint64, scratch *[]uint64, payload uint) bool {
	const run = 4096
	n := len(keys)
	// Buckets are the span's top bits above the 22 the radix sort covers in
	// two passes, 3 to 8 of them: enough buckets to spread over the workers,
	// at most 256.
	top := bits.Len64(span - 1)
	shift := uint(max(min(top-3, 22), top-8, 0))
	buckets := int((span-1)>>shift) + 1
	shift += payload
	bounds := func(w int) (lo, hi int) { return w * n / chunks, (w + 1) * n / chunks }
	if scratch == nil {
		scratch = new([]uint64)
	}
	// Keys are drawn into tmp and scattered into keys, so each bucket's
	// sort ends where the schedule belongs, without a copy back.
	tmp := extend((*scratch)[:0], n)
	*scratch = tmp
	at := make([][]int, chunks) // chunk w's count per bucket, then its next slot
	ends := make([]rng.Source, chunks)
	parallel.ForEach(chunks, chunks, func(w int) {
		lo, hi := bounds(w)
		s := *src
		s.Advance(2 * uint64(lo))
		count := make([]int, buckets)
		for i := lo; i < hi; i += run { // fill and count while the run is in cache
			part := tmp[i:min(i+run, hi)]
			s.FillUint64n(part, span)
			for g, k := range part {
				if payload != 0 {
					k = k<<payload | uint64(i+g)
					part[g] = k
				}
				count[k>>shift]++
			}
		}
		at[w], ends[w] = count, s
	})
	for w := range ends {
		if _, hi := bounds(w); !streamIntact(src, &ends[w], hi) {
			return false
		}
	}
	edges := make([]int, buckets+1)
	for b, pos := 0, 0; b < buckets; b++ {
		edges[b] = pos
		for _, count := range at {
			count[b], pos = pos, pos+count[b]
		}
	}
	edges[buckets] = n
	parallel.ForEach(chunks, chunks, func(w int) {
		lo, hi := bounds(w)
		next := at[w]
		for _, k := range tmp[lo:hi] {
			keys[next[k>>shift]] = k
			next[k>>shift]++
		}
	})
	parallel.ForEach(chunks, buckets, func(b int) {
		lo, hi := edges[b], edges[b+1]
		ping := tmp[lo:hi:hi]
		radixSortUint64(keys[lo:hi], &ping, payload)
	})
	*src = ends[chunks-1]
	return true
}

// radixSortUint64 sorts a ascending by a>>payload: the low payload bits ride
// along, and elements equal above them end up ordered by payload if their
// payloads ascended with input position (as drawKeys' tags do). From
// 128 keys up it is an LSD radix counting sort — draw keys are uniform
// offsets, the distribution sort is O(passes·n) against pdqsort's
// O(n·log n) — ping-ponging through *scratchp, which grows the amortized way
// when short (nil allocates privately). One read pass ORs the keys to find how
// many bits are in use — keys bounded by a small span (the common case:
// spans are observation windows in milliseconds) need only the low digits —
// and a second counts every digit's histogram at once, so each remaining
// pass is a single scatter; passes whose digit is constant across the slice
// are skipped. Digits are 11 bits: a week in milliseconds is three passes.
func radixSortUint64(a []uint64, scratchp *[]uint64, payload uint) {
	if len(a) < 128 || len(a) > math.MaxUint32 {
		slices.Sort(a)
		return
	}
	var private []uint64
	if scratchp == nil {
		scratchp = &private
	}
	scratch := extend((*scratchp)[:0], len(a))
	*scratchp = scratch
	const (
		digit = 11
		mask  = 1<<digit - 1
	)
	or, and := uint64(0), ^uint64(0)
	for _, v := range a {
		or, and = or|v, and&v
	}
	passes := (bits.Len64((or^and)>>payload) + digit - 1) / digit
	var counts [(64 + digit - 1) / digit][1 << digit]uint32
	for _, v := range a {
		v >>= payload
		for p := 0; p < passes; p++ {
			counts[p][v&mask]++
			v >>= digit
		}
	}
	src, dst := a, scratch
	for p := 0; p < passes; p++ {
		c, shift := &counts[p], payload+uint(p*digit)
		if int(c[src[0]>>shift&mask]) == len(src) {
			continue // all keys share this digit
		}
		pos := uint32(0)
		for b, n := range c {
			c[b] = pos
			pos += n
		}
		for _, v := range src {
			b := v >> shift & mask
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
