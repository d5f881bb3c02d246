package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// genSeqColumns synthesizes n usable records in ack order: times are random
// within [0, horizon) (so ack order is NOT time order), seqs strictly
// ascend, and ~tieRate of the records reuse the previous record's timestamp
// to exercise (time, seq) tie-breaking.
func genSeqColumns(seed uint64, n int, horizon timeutil.Millis, tieRate float64) ([]timeutil.Millis, []float64, []uint64) {
	src := rng.New(seed)
	times := make([]timeutil.Millis, n)
	lats := make([]float64, n)
	seqs := make([]uint64, n)
	for i := 0; i < n; i++ {
		if i > 0 && src.Bool(tieRate) {
			times[i] = times[i-1]
		} else {
			times[i] = timeutil.Millis(src.Uint64n(uint64(horizon)))
		}
		lats[i] = 50 + 2500*src.Float64()
		seqs[i] = uint64(i + 1)
	}
	return times, lats, seqs
}

// sortedSummary builds a fresh (time, seq)-sorted summary from ack-order
// columns the straightforward way: stable sort of index triples.
func sortedSummary(times []timeutil.Millis, lats []float64, seqs []uint64) *Summary {
	idx := make([]int, len(times))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return Less(times[idx[a]], seqs[idx[a]], times[idx[b]], seqs[idx[b]])
	})
	s := &Summary{}
	for _, i := range idx {
		s.Times = append(s.Times, times[i])
		s.Lats = append(s.Lats, lats[i])
		s.Seqs = append(s.Seqs, seqs[i])
	}
	return s
}

// foldChunks folds ack-order columns into dst in chunks of the given sizes
// (each chunk sorted by (time, seq) first, as the live engine does per
// delta).
func foldChunks(t *testing.T, dst *Summary, times []timeutil.Millis, lats []float64, seqs []uint64, chunks []int) {
	t.Helper()
	at := 0
	for _, sz := range chunks {
		end := at + sz
		if end > len(times) {
			end = len(times)
		}
		if end == at {
			continue
		}
		d := sortedSummary(times[at:end], lats[at:end], seqs[at:end])
		if err := dst.Fold(d.Columns); err != nil {
			t.Fatal(err)
		}
		at = end
	}
	if at < len(times) {
		d := sortedSummary(times[at:], lats[at:], seqs[at:])
		if err := dst.Fold(d.Columns); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: any chunking of the ack stream folded incrementally equals the
// from-scratch (time, seq) sort, columns and histogram alike.
func TestSummaryFoldEquivalentToRebuild(t *testing.T) {
	e := testEstimator(t, nil)
	src := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 1 + src.Intn(400)
		times, lats, seqs := genSeqColumns(uint64(1000+trial), n, 6*timeutil.MillisPerHour, 0.3)
		var chunks []int
		left := n
		for left > 0 {
			c := 1 + src.Intn(97)
			chunks = append(chunks, c)
			left -= c
		}

		want := sortedSummary(times, lats, seqs)
		got := &Summary{B: e.newHist()}
		foldChunks(t, got, times, lats, seqs, chunks)

		if !slices.Equal(want.Times, got.Times) || !slices.Equal(want.Lats, got.Lats) || !slices.Equal(want.Seqs, got.Seqs) {
			t.Fatalf("trial %d: folded summary differs from rebuild (n=%d chunks=%v)", trial, n, chunks)
		}
		wantB := e.newHist()
		for _, v := range lats {
			wantB.Add(v)
		}
		if !slices.Equal(wantB.Counts(), got.B.Counts()) || wantB.Total() != got.B.Total() {
			t.Fatalf("trial %d: folded histogram differs from rebuild", trial)
		}
	}
}

// Property: MergeSummaries over disjoint sorted partials equals the global
// sort.
func TestMergeSummaries(t *testing.T) {
	e := testEstimator(t, nil)
	times, lats, seqs := genSeqColumns(7, 500, timeutil.MillisPerDay, 0.25)
	want := sortedSummary(times, lats, seqs)

	// Partition records round-robin into 4 partials, each sorted.
	parts := make([]*Summary, 4)
	for i := range parts {
		var pt []timeutil.Millis
		var pl []float64
		var ps []uint64
		for j := i; j < len(times); j += len(parts) {
			pt = append(pt, times[j])
			pl = append(pl, lats[j])
			ps = append(ps, seqs[j])
		}
		parts[i] = sortedSummary(pt, pl, ps)
	}
	parts[1].B = e.newHist()
	for _, v := range parts[1].Lats {
		parts[1].B.Add(v)
	}

	dst := &Summary{B: e.newHist()}
	if err := MergeSummaries(dst, parts...); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want.Times, dst.Times) || !slices.Equal(want.Lats, dst.Lats) || !slices.Equal(want.Seqs, dst.Seqs) {
		t.Fatal("merged summary differs from global sort")
	}
	wantB := e.newHist()
	for _, v := range lats {
		wantB.Add(v)
	}
	if !slices.Equal(wantB.Counts(), dst.B.Counts()) {
		t.Fatal("merged histogram differs from rebuild")
	}

	// Merging again into the same dst must reset, not accumulate.
	if err := MergeSummaries(dst, parts...); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != want.Len() || dst.B.Total() != wantB.Total() {
		t.Fatal("repeated MergeSummaries accumulated state")
	}

	// Two nodes' ack sequences are independent, so parts can hold the same
	// (time, seq): equal keys keep the lowest part index first.
	tie := func(lat float64) *Summary {
		return &Summary{Columns: Columns{Times: []timeutil.Millis{5, 9}, Lats: []float64{lat, lat}, Seqs: []uint64{1, 1}}}
	}
	if err := MergeSummaries(dst, tie(10), tie(20), tie(30)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst.Lats, []float64{10, 20, 30, 10, 20, 30}) {
		t.Fatalf("equal keys merged out of part order: %v", dst.Lats)
	}
}

// The load-bearing byte-identity property: a summary grown fold by fold,
// re-estimated after every fold with a retained scratch (and its plan) and a
// maintained histogram, must match a from-scratch Finish at every step.
func TestEstimateSummaryIncrementalMatchesBatch(t *testing.T) {
	e := testEstimator(t, nil)
	times, lats, seqs := genSeqColumns(11, 1200, 2*timeutil.MillisPerDay, 0.2)

	s := &Summary{B: e.newHist()}
	sc := &Scratch{}
	at := 0
	src := rng.New(5)
	step := 0
	for at < len(times) {
		end := at + 1 + src.Intn(199)
		if end > len(times) {
			end = len(times)
		}
		d := sortedSummary(times[at:end], lats[at:end], seqs[at:end])
		if err := s.Fold(d.Columns); err != nil {
			t.Fatal(err)
		}
		at = end
		step++

		got, err := pointOf(e.Finish(Request{}, s, sc))
		if err != nil {
			t.Fatal(err)
		}
		want, err := pointOf(e.Finish(Request{}, summaryOf(s.Times, s.Lats), nil))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
			t.Fatalf("step %d (n=%d): incremental estimate differs from batch", step, s.Len())
		}
	}
	if sc.plan.reused == 0 {
		t.Fatal("final step never reused retained keys — extension path untested")
	}

	// A nil scratch must also work (a private one).
	got, err := pointOf(e.Finish(Request{}, s, nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pointOf(e.Finish(Request{}, summaryOf(s.Times, s.Lats), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
		t.Fatal("nil-scratch Finish differs from batch")
	}
}

// Plan invalidation: a span change (out-of-window record) or a seed change
// must regenerate and still match batch.
func TestUnbiasedPlanInvalidation(t *testing.T) {
	e := testEstimator(t, nil)
	times, lats, seqs := genSeqColumns(13, 300, 12*timeutil.MillisPerHour, 0.1)
	s := &Summary{B: e.newHist()}
	if err := s.Fold(sortedSummary(times, lats, seqs).Columns); err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	if _, err := e.Finish(Request{}, s, sc); err != nil {
		t.Fatal(err)
	}
	if sc.plan.reused != 0 {
		t.Fatal("first estimation cannot reuse keys")
	}

	// Extend the window: span changes, full regeneration.
	d := sortedSummary(
		[]timeutil.Millis{14 * timeutil.MillisPerHour}, []float64{123}, []uint64{9999})
	if err := s.Fold(d.Columns); err != nil {
		t.Fatal(err)
	}
	got, err := pointOf(e.Finish(Request{}, s, sc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.plan.reused != 0 {
		t.Fatal("span change must invalidate the retained keys")
	}
	want, err := pointOf(e.Finish(Request{}, summaryOf(s.Times, s.Lats), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, want), curveBytes(t, got)) {
		t.Fatal("post-invalidation estimate differs from batch")
	}
}

func TestRadixSortUint64(t *testing.T) {
	src := rng.New(3)
	for _, n := range []int{0, 1, 2, 127, 128, 1000, 5000} {
		for _, span := range []uint64{1, 255, 1 << 16, 1 << 40, 0} {
			a := make([]uint64, n)
			for i := range a {
				if span == 0 {
					a[i] = src.Uint64()
				} else {
					a[i] = src.Uint64n(span)
				}
			}
			tagged := slices.Clone(a)
			want := slices.Clone(a)
			slices.Sort(want)
			var scratch []uint64
			radixSortUint64(a, &scratch, 0)
			if !slices.Equal(want, a) {
				t.Fatalf("radix sort differs (n=%d span=%d)", n, span)
			}
			// Tagged: order by the high word only, the low word rides along.
			// Tags ascend with input position, so the stable high-word order
			// is the full order.
			for i := range tagged {
				tagged[i] = tagged[i]%(1<<32)<<32 | uint64(i)
			}
			want = slices.Clone(tagged)
			slices.Sort(want)
			radixSortUint64(tagged, nil, 32)
			if !slices.Equal(want, tagged) {
				t.Fatalf("tagged radix sort differs (n=%d span=%d)", n, span)
			}
		}
	}
}

func TestSummaryFoldErrors(t *testing.T) {
	s := &Summary{}
	if err := s.Fold(Columns{Times: []timeutil.Millis{1}}); err != errColumnsRagged {
		t.Fatalf("ragged delta: %v", err)
	}
	if _, err := testEstimator(t, nil).Finish(Request{}, &Summary{}, nil); err == nil {
		t.Fatal("empty summary must error")
	}
}

// Fold steady state: out-of-order folds into a warm summary must not
// allocate (spare-buffer swap), and appends must amortize.
func TestSummaryFoldAllocs(t *testing.T) {
	times, lats, seqs := genSeqColumns(17, 4096, timeutil.MillisPerDay, 0.2)
	s := &Summary{}
	if err := s.Fold(sortedSummary(times, lats, seqs).Columns); err != nil {
		t.Fatal(err)
	}
	// Warm the spare buffers with one out-of-order fold.
	delta := Columns{Times: []timeutil.Millis{0}, Lats: []float64{1}, Seqs: []uint64{1 << 40}}
	if err := s.Fold(delta); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		delta.Seqs[0]++
		if err := s.Fold(delta); err != nil {
			t.Fatal(err)
		}
	})
	// Columns grow by one per fold, so only capacity doublings may allocate.
	if avg > 1 {
		t.Fatalf("out-of-order fold allocates %.1f/op, want ≤1", avg)
	}
}

func BenchmarkSummaryFoldAppend(b *testing.B) {
	times, lats, seqs := genSeqColumns(19, 100000, 2*timeutil.MillisPerDay, 0.1)
	base := sortedSummary(times, lats, seqs)
	s := &Summary{}
	if err := s.Fold(base.Columns); err != nil {
		b.Fatal(err)
	}
	lastT := s.Times[s.Len()-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Columns{
			Times: []timeutil.Millis{lastT},
			Lats:  []float64{100},
			Seqs:  []uint64{uint64(200000 + i)},
		}
		if err := s.Fold(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateSummaryIncremental(b *testing.B) {
	e, err := NewEstimator(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	times, lats, seqs := genSeqColumns(23, 50000, 2*timeutil.MillisPerDay, 0.1)
	s := &Summary{B: e.newHist()}
	if err := s.Fold(sortedSummary(times, lats, seqs).Columns); err != nil {
		b.Fatal(err)
	}
	sc := &Scratch{}
	if _, err := e.Finish(Request{}, s, sc); err != nil {
		b.Fatal(err)
	}
	src := rng.New(29)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Columns{
			Times: []timeutil.Millis{timeutil.Millis(src.Uint64n(uint64(s.Times[s.Len()-1])))},
			Lats:  []float64{100 + float64(i%500)},
			Seqs:  []uint64{uint64(1000000 + i)},
		}
		if err := s.Fold(d); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Finish(Request{}, s, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleSummary() {
	s := &Summary{}
	_ = s.Fold(Columns{Times: []timeutil.Millis{10, 20}, Lats: []float64{100, 200}, Seqs: []uint64{1, 2}})
	_ = s.Fold(Columns{Times: []timeutil.Millis{15}, Lats: []float64{150}, Seqs: []uint64{3}})
	fmt.Println(s.Times)
	// Output: [10 15 20]
}
