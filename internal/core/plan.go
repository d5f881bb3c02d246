package core

import (
	"math"
	"math/bits"
	"slices"

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
//  3. The sweep's per-draw tie-break randomness is Mix64(auxSeed + rank)
//     with rank taken in sorted-key order, and equal keys are
//     indistinguishable (same instant, same candidate run), so ANY correct
//     sort of the key multiset — including merging k newly sorted keys
//     into the retained sorted prefix — yields an identical histogram.
//
// If the seed, the span, or (shrinking) the draw count invalidates the
// retained schedule, the plan regenerates from scratch into its retained
// buffers, replacing the comparison sort with an LSD radix sort: draw keys
// are uniform uint64 offsets, the distribution counting sort is O(8·n), and
// passes whose byte is constant across the slice are skipped (spans well
// under 2^40 leave the top bytes all zero).
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
	// reused reports how many keys the last update retained (span attr).
	reused int

	tail    []uint64 // newly drawn keys awaiting merge
	staged  int      // target draw count of a staged, uncommitted extension
	scratch []uint64 // radix-sort ping-pong buffer
}

// update makes the plan current for (seed, span, draws): afterwards
// p.sorted holds the sorted key multiset fillUnbiasedSweep would have
// produced and p.auxSeed its tie-break seed.
func (p *UnbiasedPlan) update(seed uint64, span uint64, draws int) {
	switch {
	case p.valid && seed == p.seed && span == p.span && draws == p.draws:
		p.reused = draws
		return
	case p.valid && seed == p.seed && span == p.span && draws > p.draws:
		p.extend(draws)
		return
	}
	p.regenerate(seed, span, draws)
}

// RetainedBytes is the heap the plan's key buffers hold between updates.
func (p *UnbiasedPlan) RetainedBytes() int {
	return 8 * (cap(p.sorted) + cap(p.tail) + cap(p.scratch))
}

// regenerate rebuilds the full schedule from a fresh stream.
func (p *UnbiasedPlan) regenerate(seed, span uint64, draws int) {
	p.seed, p.span, p.draws = seed, span, draws
	p.reused = 0
	p.valid = true
	if cap(p.sorted) < draws {
		p.sorted = make([]uint64, draws)
	}
	p.sorted = p.sorted[:draws]
	src := rng.New(seed)
	if draws > 0 && span > 0 {
		for i := range p.sorted {
			p.sorted[i] = src.Uint64n(span)
		}
	}
	p.src = *src
	aux := *src
	p.auxSeed = aux.Uint64()
	if cap(p.scratch) < draws {
		p.scratch = make([]uint64, draws)
	}
	radixSortUint64(p.sorted, p.scratch[:draws])
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
	src := p.src
	for i := range tail {
		tail[i] = src.Uint64n(p.span)
	}
	p.src = src
	aux := src
	p.auxSeed = aux.Uint64()
	slices.Sort(tail)
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

// radixSortUint64 sorts a ascending with an LSD radix counting sort,
// ping-ponging through scratch (len(scratch) must equal len(a)). One read
// pass ORs the keys to find how many bits are in use — keys bounded by a
// small span (the common case: spans are observation windows in
// milliseconds) need only the low digits — and a second counts every
// digit's histogram at once, so each remaining pass is a single scatter.
// Digits are 11 bits: a week in milliseconds is three passes.
func radixSortUint64(a, scratch []uint64) {
	if len(a) < 128 || len(a) > math.MaxUint32 {
		slices.Sort(a)
		return
	}
	const (
		digit = 11
		mask  = 1<<digit - 1
	)
	var or uint64
	for _, v := range a {
		or |= v
	}
	passes := (bits.Len64(or) + digit - 1) / digit
	var counts [(64 + digit - 1) / digit][1 << digit]uint32
	for _, v := range a {
		for p := 0; p < passes; p++ {
			counts[p][v&mask]++
			v >>= digit
		}
	}
	src, dst := a, scratch
	for p := 0; p < passes; p++ {
		c, shift := &counts[p], uint(p*digit)
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
