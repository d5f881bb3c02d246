package core

import (
	"slices"
	"sort"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// genRuns synthesizes k sorted runs. Times fall in [0, horizon) — a small
// horizon makes timestamp ties heavy — and each run draws its seqs from its
// own counter, so seqs collide across runs the way two cluster nodes' do.
// Latencies encode (run, row) so a merged row names where it came from.
// Roughly one run in four is empty.
func genRuns(src *rng.Source, k, maxRows int, horizon uint64) []Columns {
	runs := make([]Columns, k)
	for r := range runs {
		n := 0
		if !src.Bool(0.25) {
			n = src.Intn(maxRows + 1)
		}
		c := Columns{
			Times: make([]timeutil.Millis, n), Lats: make([]float64, n), Seqs: make([]uint64, n),
		}
		for i := 0; i < n; i++ {
			c.Times[i] = timeutil.Millis(src.Uint64n(horizon))
			c.Seqs[i] = uint64(i)
		}
		sort.Sort(&c)
		for i := range c.Lats {
			c.Lats[i] = float64(r*1_000_000 + i)
		}
		runs[r] = c
	}
	return runs
}

// sortedConcat is the reference merge: concatenate, then stable-sort by
// (time, seq) — stability is what keeps equal keys in run order.
func sortedConcat(runs []Columns) Columns {
	var all Columns
	for _, r := range runs {
		all.Times = append(all.Times, r.Times...)
		all.Lats = append(all.Lats, r.Lats...)
		all.Seqs = append(all.Seqs, r.Seqs...)
	}
	sort.Stable(&all)
	return all
}

func cloneColumns(c Columns) Columns {
	return Columns{Times: slices.Clone(c.Times), Lats: slices.Clone(c.Lats), Seqs: slices.Clone(c.Seqs)}
}

func equalColumns(a, b Columns) bool {
	return slices.Equal(a.Times, b.Times) && slices.Equal(a.Lats, b.Lats) && slices.Equal(a.Seqs, b.Seqs)
}

// Property: MergeColumns equals the stable sort of the concatenation by
// (time, seq, run index), over random run counts, empty runs anywhere,
// heavy ties and cross-run seq collisions.
func TestMergeColumnsMatchesStableSort(t *testing.T) {
	src := rng.New(41)
	for trial := 0; trial < 600; trial++ {
		horizon := []uint64{1, 3, 50, 1 << 20}[trial%4]
		runs := genRuns(src, src.Intn(18), 40, horizon)
		want := sortedConcat(runs)
		var got Columns
		MergeColumns(&got, runs...)
		if !equalColumns(want, got) {
			t.Fatalf("trial %d (%d runs, horizon %d): merge differs from stable sort", trial, len(runs), horizon)
		}
	}
}

// col builds a run from (time, seq) pairs; lat names the run.
func col(lat float64, pairs ...uint64) Columns {
	var c Columns
	for i := 0; i < len(pairs); i += 2 {
		c.Times = append(c.Times, timeutil.Millis(pairs[i]))
		c.Seqs = append(c.Seqs, pairs[i+1])
		c.Lats = append(c.Lats, lat)
	}
	return c
}

// Each shortcut shape, checked through its output alone.
func TestMergeColumnsShapes(t *testing.T) {
	a := col(1, 10, 1, 20, 2, 30, 3)
	b := col(2, 30, 4, 40, 5)
	mid := col(3, 15, 9, 25, 9, 35, 9)
	cases := []struct {
		name string
		runs []Columns
		lats []float64 // which run each merged row came from
	}{
		{"no runs", nil, nil},
		{"all empty", []Columns{{}, {}, {}}, nil},
		{"one run", []Columns{a}, []float64{1, 1, 1}},
		{"one run among empties", []Columns{{}, a, {}}, []float64{1, 1, 1}},
		{"ordered pair", []Columns{a, b}, []float64{1, 1, 1, 2, 2}},
		{"ordered with a gap", []Columns{a, {}, b}, []float64{1, 1, 1, 2, 2}},
		{"ordered, equal key at the join", []Columns{col(1, 10, 1, 30, 4), b}, []float64{1, 1, 2, 2}},
		{"interleaved pair", []Columns{a, mid}, []float64{1, 3, 1, 3, 1, 3}},
		{"interleaved pair, reversed", []Columns{mid, a}, []float64{1, 3, 1, 3, 1, 3}},
		{"interleaved pair among empties", []Columns{{}, mid, {}, a}, []float64{1, 3, 1, 3, 1, 3}},
		{"equal keys keep run order", []Columns{col(1, 5, 7), col(2, 5, 7), col(3, 5, 7)}, []float64{1, 2, 3}},
		{"equal keys, two runs", []Columns{col(1, 5, 7, 6, 1), col(2, 5, 7)}, []float64{1, 2, 1}},
		{"three interleaved", []Columns{a, mid, b}, []float64{1, 3, 1, 3, 1, 2, 3, 2}},
	}
	for _, tc := range cases {
		var got Columns
		MergeColumns(&got, tc.runs...)
		if !equalColumns(sortedConcat(tc.runs), got) {
			t.Errorf("%s: merge differs from stable sort", tc.name)
		}
		if !slices.Equal(got.Lats, tc.lats) {
			t.Errorf("%s: rows came from runs %v, want %v", tc.name, got.Lats, tc.lats)
		}
	}
}

// dst owns its rows: whatever shape the merge took, scribbling over dst
// afterwards leaves every run intact, and rows already in dst stay in front.
func TestMergeColumnsOwnsItsRows(t *testing.T) {
	src := rng.New(43)
	prefix := col(-1, 999, 1, 0, 0) // deliberately not in order with what follows
	for trial := 0; trial < 200; trial++ {
		runs := genRuns(src, src.Intn(6), 20, 30)
		if trial%3 == 0 {
			// The ordered shape: two runs cut from one sorted backing array.
			all := sortedConcat(runs)
			runs = []Columns{all.Slice(0, all.Len()/2), all.Slice(all.Len()/2, all.Len())}
		}
		saved := make([]Columns, len(runs))
		for i, r := range runs {
			saved[i] = cloneColumns(r)
		}
		want := sortedConcat(runs)

		got := cloneColumns(prefix)
		MergeColumns(&got, runs...)
		if !equalColumns(got.Slice(0, prefix.Len()), prefix) {
			t.Fatalf("trial %d: appending disturbed dst's prefix", trial)
		}
		if !equalColumns(got.Slice(prefix.Len(), got.Len()), want) {
			t.Fatalf("trial %d: appended rows differ from stable sort", trial)
		}
		for i := range got.Times {
			got.Times[i], got.Lats[i], got.Seqs[i] = -7, -7, 7
		}
		for i, r := range runs {
			if !equalColumns(r, saved[i]) {
				t.Fatalf("trial %d: writing through dst changed run %d", trial, i)
			}
		}
	}
}

// With capacity in dst — the live engine's pooled merge buffer — no shape
// allocates.
func TestMergeColumnsAllocs(t *testing.T) {
	src := rng.New(47)
	interleaved := genRuns(src, 16, 64, 1<<20)
	single := make([]Columns, 16)
	single[9] = interleaved[0]
	if single[9].Len() == 0 {
		single[9] = col(1, 1, 1)
	}
	ordered := []Columns{col(1, 1, 1, 2, 2), col(2, 2, 3, 9, 4)}
	pair := []Columns{col(1, 1, 1, 9, 2), col(2, 5, 3)}
	dst := Columns{
		Times: make([]timeutil.Millis, 0, 2048), Lats: make([]float64, 0, 2048), Seqs: make([]uint64, 0, 2048),
	}
	for name, runs := range map[string][]Columns{
		"interleaved": interleaved, "single": single, "ordered": ordered, "pair": pair,
	} {
		if avg := testing.AllocsPerRun(20, func() {
			dst.Reset()
			MergeColumns(&dst, runs...)
		}); avg != 0 {
			t.Errorf("%s: %.1f allocs/op into a dst with capacity, want 0", name, avg)
		}
	}
}

// Range against a linear scan, including to == 0 (unbounded above), from
// past the end and an inverted range.
func TestColumnsRange(t *testing.T) {
	src := rng.New(53)
	for trial := 0; trial < 300; trial++ {
		c := genRuns(src, 1, 30, 40)[0]
		from := timeutil.Millis(src.Uint64n(60)) - 10
		to := timeutil.Millis(src.Uint64n(60)) - 10
		if trial%5 == 0 {
			to = 0
		}
		if trial%7 == 0 {
			from = 1000
		}
		wantLo, wantHi := 0, 0
		for wantLo < c.Len() && c.Times[wantLo] < from {
			wantLo++
		}
		for wantHi = wantLo; wantHi < c.Len() && (to == 0 || c.Times[wantHi] < to); wantHi++ {
		}
		if lo, hi := c.Range(from, to); lo != wantLo || hi != wantHi {
			t.Fatalf("trial %d: Range(%d, %d) over %v = [%d, %d), want [%d, %d)",
				trial, from, to, c.Times, lo, hi, wantLo, wantHi)
		}
	}
}

// FuzzMergeColumns derives runs from arbitrary bytes: any set of sorted
// runs must merge without panicking into the stable sort of their
// concatenation.
func FuzzMergeColumns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 2, 2, 2, 3, 3, 3})
	f.Add([]byte{17, 0, 0, 0, 0, 0, 0, 9, 9, 1, 1, 200, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runs := make([]Columns, int(data[0])%20)
		for i, b := range data[1:] {
			if len(runs) == 0 {
				break
			}
			// The high nibble picks the run, the low one a coarse time, so
			// both ties and empty runs are common.
			r := &runs[int(b>>4)%len(runs)]
			r.Times = append(r.Times, timeutil.Millis(b&0xf))
			r.Lats = append(r.Lats, float64(i))
			r.Seqs = append(r.Seqs, uint64(b&0x3))
		}
		for i := range runs {
			sort.Stable(&runs[i])
		}
		var got Columns
		MergeColumns(&got, runs...)
		if !equalColumns(sortedConcat(runs), got) {
			t.Fatalf("merge of %d runs differs from stable sort", len(runs))
		}
	})
}

// BenchmarkMergeColumns covers the shapes the callers produce: the cold
// scan's (one part — a bulk copy here; the store hands a lone part through
// uncopied before it ever calls the kernel — two interleaved, eight
// interleaved, eight time-partitioned 16 k-row parts), a window's cold rows
// in front of its hot ones, and the live fold's sixteen shards — every
// shard dirty with a small suffix, and one dirty shard among fifteen clean
// ones.
func BenchmarkMergeColumns(b *testing.B) {
	strided := func(nRuns, rows int) []Columns {
		runs := make([]Columns, nRuns)
		for p := range runs {
			c := Columns{
				Times: make([]timeutil.Millis, rows), Lats: make([]float64, rows), Seqs: make([]uint64, rows),
			}
			for i := 0; i < rows; i++ {
				// Strided times interleave every run with every other one.
				c.Times[i] = timeutil.Millis(i*nRuns + p)
				c.Lats[i] = float64(i)
				c.Seqs[i] = uint64(i*nRuns + p)
			}
			runs[p] = c
		}
		return runs
	}
	blocked := func(nRuns, rows int) []Columns {
		all := strided(1, nRuns*rows)[0]
		runs := make([]Columns, nRuns)
		for p := range runs {
			runs[p] = all.Slice(p*rows, (p+1)*rows)
		}
		return runs
	}
	oneDirty := make([]Columns, 16)
	oneDirty[11] = strided(1, 1024)[0]
	for _, bc := range []struct {
		name   string
		runs   []Columns
		pooled bool // merge into a retained dst, as the live engine does
	}{
		{"parts=1", strided(1, 16384), true},
		{"parts=2", strided(2, 16384), false},
		{"parts=8", strided(8, 16384), false},
		{"parts=8/ordered", blocked(8, 16384), false},
		{"cold+hot", blocked(2, 32768), true},
		{"shards=16/rows=64", strided(16, 64), true},
		{"shards=16/one-dirty=1024", oneDirty, true},
	} {
		n := 0
		for _, r := range bc.runs {
			n += r.Len()
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var dst Columns
			for i := 0; i < b.N; i++ {
				if !bc.pooled {
					dst = Columns{}
				}
				dst.Reset()
				MergeColumns(&dst, bc.runs...)
				if dst.Len() != n {
					b.Fatal("merge lost rows")
				}
			}
		})
	}
}
