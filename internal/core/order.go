package core

import (
	"errors"
	"slices"

	"autosens/internal/timeutil"
)

// Less is the one total order of samples: time, then ack sequence. The
// unbiased distribution adopts the sample nearest in time (Section 2.2),
// so every curve is a function of this order; seqs strictly increase in
// ack order, which makes sorting by it exactly the stable by-time sort the
// batch estimator applies to the ack-ordered stream. Every sort, merge and
// sortedness check in the system compares through here.
func Less(t1 timeutil.Millis, s1 uint64, t2 timeutil.Millis, s2 uint64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return s1 < s2
}

// Columns is a run of samples as parallel (time, latency, ack seq)
// columns. Wherever one is called sorted it is ascending by Less. A
// Columns is a view like the slices it holds: Slice and the values handed
// to MergeColumns alias their storage, and only Reset and MergeColumns'
// dst write through it.
type Columns struct {
	Times []timeutil.Millis
	Lats  []float64
	Seqs  []uint64
}

var errColumnsRagged = errors.New("core: summary columns differ in length")

// check validates the parallel-column invariant.
func (c Columns) check() error {
	if len(c.Times) != len(c.Lats) || len(c.Times) != len(c.Seqs) {
		return errColumnsRagged
	}
	return nil
}

// Len returns the number of rows.
func (c Columns) Len() int { return len(c.Times) }

// Reset empties the columns, keeping their storage.
func (c *Columns) Reset() {
	c.Times, c.Lats, c.Seqs = c.Times[:0], c.Lats[:0], c.Seqs[:0]
}

// Slice returns rows [lo, hi) without copying.
func (c Columns) Slice(lo, hi int) Columns {
	return Columns{Times: c.Times[lo:hi], Lats: c.Lats[lo:hi], Seqs: c.Seqs[lo:hi]}
}

// Range locates the rows of sorted columns whose time falls in the
// half-open [from, to) by binary search; to == 0 means unbounded above.
func (c Columns) Range(from, to timeutil.Millis) (lo, hi int) {
	lo, _ = slices.BinarySearch(c.Times, from)
	hi = len(c.Times)
	if to != 0 {
		hi, _ = slices.BinarySearch(c.Times[lo:], to)
		hi += lo
	}
	return lo, hi
}

// Less and Swap, with Len, implement sort.Interface over rows.
func (c *Columns) Less(i, j int) bool {
	return Less(c.Times[i], c.Seqs[i], c.Times[j], c.Seqs[j])
}

func (c *Columns) Swap(i, j int) {
	c.Times[i], c.Times[j] = c.Times[j], c.Times[i]
	c.Lats[i], c.Lats[j] = c.Lats[j], c.Lats[i]
	c.Seqs[i], c.Seqs[j] = c.Seqs[j], c.Seqs[i]
}

// MergeColumns appends the merge of sorted runs to dst. The merge is
// stable: rows with equal (time, seq) — possible only across cluster
// nodes, whose ack sequences are independent — come out in run order. dst
// owns its rows afterwards; it never aliases a run, and must not be one.
//
// Most calls are degenerate and skip the element-wise loop: empty runs
// cost nothing, a single run or runs that each begin at or after the end
// of the one before (cold rows in front of hot ones, the time-partitioned
// blocks of one compaction) are bulk copies, and two interleaved runs take
// a two-cursor loop. Only the general case scans the runs' head keys for
// every row — run counts are shard and block counts, small enough that the
// scan beats a heap.
func MergeColumns(dst *Columns, runs ...Columns) {
	n, live, first, prev := 0, 0, 0, -1 // prev: the last non-empty run so far
	ordered := true
	for i := range runs {
		r := &runs[i]
		if len(r.Times) == 0 {
			continue
		}
		if prev < 0 {
			first = i
		} else {
			p := &runs[prev]
			if last := len(p.Times) - 1; Less(r.Times[0], r.Seqs[0], p.Times[last], p.Seqs[last]) {
				ordered = false
			}
		}
		live++
		n += len(r.Times)
		prev = i
	}
	if n == 0 {
		return
	}
	base := dst.Len()
	dst.Times, dst.Lats, dst.Seqs = extend(dst.Times, n), extend(dst.Lats, n), extend(dst.Seqs, n)
	out := dst.Slice(base, base+n)
	switch {
	case ordered:
		k := 0
		for i := range runs {
			k += out.Slice(k, n).fill(runs[i])
		}
	case live == 2:
		merge2(out, runs[first], runs[prev])
	default:
		mergeK(out, runs)
	}
}

// extend lengthens s by n elements for the caller to overwrite. A column
// with no storage yet gets exactly n, from make — which may hand back an
// unzeroed fresh span where append must clear what it adds; one that is
// being reused grows the amortized way.
func extend[T any](s []T, n int) []T {
	if cap(s) == 0 {
		return make([]T, n)
	}
	return slices.Grow(s, n)[:len(s)+n]
}

// fill copies src over the head of c's rows and returns how many it wrote.
func (c Columns) fill(src Columns) int {
	copy(c.Lats, src.Lats)
	copy(c.Seqs, src.Seqs)
	return copy(c.Times, src.Times)
}

// merge2 writes the stable merge of a and b over out's len(a)+len(b) rows.
func merge2(out, a, b Columns) {
	i, j, k := 0, 0, 0
	for i < len(a.Times) && j < len(b.Times) {
		if Less(b.Times[j], b.Seqs[j], a.Times[i], a.Seqs[i]) {
			out.Times[k], out.Lats[k], out.Seqs[k] = b.Times[j], b.Lats[j], b.Seqs[j]
			j++
		} else {
			out.Times[k], out.Lats[k], out.Seqs[k] = a.Times[i], a.Lats[i], a.Seqs[i]
			i++
		}
		k++
	}
	k += out.Slice(k, out.Len()).fill(a.Slice(i, a.Len()))
	out.Slice(k, out.Len()).fill(b.Slice(j, b.Len()))
}

// mergeK writes the stable merge of runs over out's rows. It keeps the head
// key of every unexhausted run, in run order, and picks each row by a
// linear scan of the heads: strict Less leaves ties with the lowest run.
func mergeK(out Columns, runs []Columns) {
	type head struct {
		t       timeutil.Millis
		s       uint64
		run, at int
	}
	var stack [32]head
	heads := stack[:0]
	if len(runs) > len(stack) {
		heads = make([]head, 0, len(runs))
	}
	for i := range runs {
		if r := &runs[i]; len(r.Times) > 0 {
			heads = append(heads, head{t: r.Times[0], s: r.Seqs[0], run: i})
		}
	}
	for k := range out.Times {
		b := 0
		for i := 1; i < len(heads); i++ {
			if Less(heads[i].t, heads[i].s, heads[b].t, heads[b].s) {
				b = i
			}
		}
		h := &heads[b]
		r := &runs[h.run]
		out.Times[k], out.Lats[k], out.Seqs[k] = h.t, r.Lats[h.at], h.s
		if h.at++; h.at < len(r.Times) {
			h.t, h.s = r.Times[h.at], r.Seqs[h.at]
		} else {
			heads = append(heads[:b], heads[b+1:]...)
		}
	}
}
