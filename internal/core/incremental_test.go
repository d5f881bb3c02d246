package core

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// incStream synthesizes an initial batch plus a sequence of small deltas
// whose times stay inside the initial observation window (the live dirty
// case), with dupRate of delta times duplicating an already-used instant to
// exercise equal-timestamp runs.
type incStream struct {
	src     *rng.Source
	horizon timeutil.Millis
	used    []timeutil.Millis
	seq     uint64
	dupRate float64
}

func newIncStream(seed uint64, horizon timeutil.Millis, dupRate float64) *incStream {
	return &incStream{src: rng.New(seed), horizon: horizon, dupRate: dupRate}
}

// initial returns n sorted records pinning the window edges at 0 and
// horizon-1.
func (g *incStream) initial(n int) ([]timeutil.Millis, []float64, []uint64) {
	times := make([]timeutil.Millis, n)
	lats := make([]float64, n)
	seqs := make([]uint64, n)
	times[0] = 0
	times[1] = g.horizon - 1
	for i := 2; i < n; i++ {
		times[i] = timeutil.Millis(g.src.Uint64n(uint64(g.horizon)))
	}
	for i := range lats {
		lats[i] = 50 + 2500*g.src.Float64()
		g.seq++
		seqs[i] = g.seq
	}
	sort.Sort(&colSorter{times, lats, seqs})
	g.used = append(g.used, times...)
	return times, lats, seqs
}

// delta returns d sorted in-window records.
func (g *incStream) delta(d int) ([]timeutil.Millis, []float64, []uint64) {
	times := make([]timeutil.Millis, d)
	lats := make([]float64, d)
	seqs := make([]uint64, d)
	for i := 0; i < d; i++ {
		if g.src.Bool(g.dupRate) && len(g.used) > 0 {
			times[i] = g.used[g.src.Intn(len(g.used))]
		} else {
			times[i] = 1 + timeutil.Millis(g.src.Uint64n(uint64(g.horizon-2)))
		}
		lats[i] = 50 + 2500*g.src.Float64()
		g.seq++
		seqs[i] = g.seq
	}
	sort.Sort(&colSorter{times, lats, seqs})
	g.used = append(g.used, times...)
	return times, lats, seqs
}

type colSorter struct {
	times []timeutil.Millis
	lats  []float64
	seqs  []uint64
}

func (c *colSorter) Len() int { return len(c.times) }
func (c *colSorter) Less(i, j int) bool {
	return Less(c.times[i], c.seqs[i], c.times[j], c.seqs[j])
}
func (c *colSorter) Swap(i, j int) {
	c.times[i], c.times[j] = c.times[j], c.times[i]
	c.lats[i], c.lats[j] = c.lats[j], c.lats[i]
	c.seqs[i], c.seqs[j] = c.seqs[j], c.seqs[i]
}

// TestIncrementalMatchesBatch folds a stream of small in-window deltas and
// checks that every EstimatePlain is byte-identical to the stateless
// Finish over the same accumulated columns, while the incremental
// sweep state stays live (no silent degradation to full sweeps).
func TestIncrementalMatchesBatch(t *testing.T) {
	e := testEstimator(t, nil)
	g := newIncStream(41, 2*timeutil.MillisPerDay, 0.3)
	inc := e.NewIncremental()
	ref := &Summary{}

	ts, ls, qs := g.initial(4000)
	if err := inc.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Fold(Columns{Times: ts, Lats: ls, Seqs: qs}); err != nil {
		t.Fatal(err)
	}

	check := func(step int) {
		t.Helper()
		got, err := inc.EstimatePlain()
		if err != nil {
			t.Fatalf("step %d: incremental: %v", step, err)
		}
		want, err := pointOf(e.Finish(Request{}, summaryOf(ref.Times, ref.Lats), nil))
		if err != nil {
			t.Fatalf("step %d: batch: %v", step, err)
		}
		if !bytes.Equal(curveBytes(t, got), curveBytes(t, want)) {
			t.Fatalf("step %d: incremental curve diverged from batch (n=%d)", step, ref.Len())
		}
	}
	check(0)
	if !inc.stValid {
		t.Fatal("sweep state not built by first estimate")
	}

	for step := 1; step <= 120; step++ {
		d := 1 + g.src.Intn(4)
		ts, ls, qs := g.delta(d)
		if err := inc.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
		if err := ref.Fold(Columns{Times: ts, Lats: ls, Seqs: qs}); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
	if inc.fullSweep {
		t.Fatal("incremental state degraded to full sweeps on tie-light data")
	}
	if !inc.stValid {
		t.Fatal("sweep state invalid after in-window folds")
	}
	if len(inc.auxDep) == 0 {
		t.Log("note: no aux-dependent draws were exercised") // informational
	}
}

// TestIncrementalTieHeavy quantizes times onto a tiny grid so nearly every
// draw adopts from an equal-timestamp run. The state must degrade to the
// batch sweep — and remain byte-identical to it throughout.
func TestIncrementalTieHeavy(t *testing.T) {
	e := testEstimator(t, nil)
	src := rng.New(99)
	horizon := timeutil.Millis(4000)
	grid := timeutil.Millis(200)
	inc := e.NewIncremental()
	ref := &Summary{}
	var seq uint64

	mk := func(n int, pinEdges bool) ([]timeutil.Millis, []float64, []uint64) {
		ts := make([]timeutil.Millis, n)
		ls := make([]float64, n)
		qs := make([]uint64, n)
		for i := range ts {
			ts[i] = timeutil.Millis(src.Uint64n(uint64(horizon/grid))) * grid
			ls[i] = 50 + 2500*src.Float64()
			seq++
			qs[i] = seq
		}
		if pinEdges {
			ts[0] = 0
			ts[1] = horizon - 1
		}
		sort.Sort(&colSorter{ts, ls, qs})
		return ts, ls, qs
	}

	ts, ls, qs := mk(500, true)
	if err := inc.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Fold(Columns{Times: ts, Lats: ls, Seqs: qs}); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		got, err := inc.EstimatePlain()
		if err != nil {
			t.Fatal(err)
		}
		want, err := pointOf(e.Finish(Request{}, summaryOf(ref.Times, ref.Lats), nil))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(curveBytes(t, got), curveBytes(t, want)) {
			t.Fatalf("step %d: tie-heavy incremental diverged from batch", step)
		}
		dts, dls, dqs := mk(3, false)
		if err := inc.Fold(dts, dls, dqs); err != nil {
			t.Fatal(err)
		}
		if err := ref.Fold(Columns{Times: dts, Lats: dls, Seqs: dqs}); err != nil {
			t.Fatal(err)
		}
	}
	if !inc.fullSweep {
		t.Fatal("tie-heavy data did not trigger the full-sweep degradation")
	}
}

// TestIncrementalWindowMove folds a delta that extends the observation
// window; the sweep state must rebuild and still match batch.
func TestIncrementalWindowMove(t *testing.T) {
	e := testEstimator(t, nil)
	g := newIncStream(7, timeutil.MillisPerDay, 0)
	inc := e.NewIncremental()
	ref := &Summary{}

	ts, ls, qs := g.initial(2000)
	for i := range ts {
		ts[i] += timeutil.MillisPerHour // leave room below the window
	}
	if err := inc.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Fold(Columns{Times: ts, Lats: ls, Seqs: qs}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.EstimatePlain(); err != nil {
		t.Fatal(err)
	}
	if !inc.stValid {
		t.Fatal("state not valid after estimate")
	}

	// Window-moving delta: earlier than everything held.
	dts := []timeutil.Millis{5}
	dls := []float64{123}
	dqs := []uint64{1 << 40}
	if err := inc.Fold(dts, dls, dqs); err != nil {
		t.Fatal(err)
	}
	if err := ref.Fold(Columns{Times: dts, Lats: dls, Seqs: dqs}); err != nil {
		t.Fatal(err)
	}
	if inc.stValid {
		t.Fatal("window move must invalidate the sweep state")
	}
	got, err := inc.EstimatePlain()
	if err != nil {
		t.Fatal(err)
	}
	want, err := pointOf(e.Finish(Request{}, summaryOf(ref.Times, ref.Lats), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(curveBytes(t, got), curveBytes(t, want)) {
		t.Fatal("post-rebuild incremental curve diverged from batch")
	}
	if !inc.stValid {
		t.Fatal("state must rebuild lazily at the next estimate")
	}
}

// boundsEqual compares CI bounds bit for bit (NaN == NaN).
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEstimateCIIncrementalMatchesBatch checks that a plain band request to
// Incremental.Finish — EstimatePlain plus one split sweep of its retained
// schedule, nothing kept between calls —
// returns the point curve AND the bounds of the batch bootstrap bit for bit
// after every kind of fold: backfill inside the window, arrivals that
// advance its end, a record earlier than everything held, and on tie-heavy
// data that degrades the Incremental to full sweeps.
func TestEstimateCIIncrementalMatchesBatch(t *testing.T) {
	e := testEstimator(t, nil)
	opts := DefaultCIOptions()
	opts.Resamples = 12

	type fixture struct {
		inc *Incremental
		ref *Summary
	}
	fold := func(t *testing.T, f fixture, ts []timeutil.Millis, ls []float64, qs []uint64) {
		t.Helper()
		if err := f.inc.Fold(ts, ls, qs); err != nil {
			t.Fatal(err)
		}
		if err := f.ref.Fold(Columns{Times: ts, Lats: ls, Seqs: qs}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, f fixture, opts CIOptions, step string) {
		t.Helper()
		got, err := f.inc.Finish(bandRequest(opts))
		if err != nil {
			t.Fatalf("%s: incremental CI: %v", step, err)
		}
		want, err := e.Finish(bandRequest(opts), summaryOf(f.ref.Times, f.ref.Lats), nil)
		if err != nil {
			t.Fatalf("%s: batch CI: %v", step, err)
		}
		if !bytes.Equal(curveBytes(t, got.Curve), curveBytes(t, want.Curve)) {
			t.Fatalf("%s: point estimates diverged", step)
		}
		if !boundsEqual(got.Lower, want.Lower) || !boundsEqual(got.Upper, want.Upper) {
			t.Fatalf("%s: bootstrap bounds diverged", step)
		}
		if got.Replicates != want.Replicates {
			t.Fatalf("%s: replicate counts diverged: %d vs %d", step, got.Replicates, want.Replicates)
		}
	}

	t.Run("folds", func(t *testing.T) {
		g := newIncStream(17, 2*timeutil.MillisPerDay, 0.2)
		f := fixture{e.NewIncremental(), &Summary{}}
		ts, ls, qs := g.initial(3000)
		for i := range ts {
			ts[i] += timeutil.MillisPerHour // leave room below the window
		}
		fold(t, f, ts, ls, qs)
		check(t, f, opts, "initial")
		for step := 1; step <= 4; step++ {
			ts, ls, qs := g.delta(1 + g.src.Intn(5))
			for i := range ts {
				ts[i] += timeutil.MillisPerHour
			}
			fold(t, f, ts, ls, qs)
			check(t, f, opts, "backfill")
		}
		if !f.inc.stValid || f.inc.fullSweep {
			t.Fatal("backfill folds left the delta-maintained sweep state")
		}
		end := f.ref.Times[f.ref.Len()-1]
		for step := 1; step <= 3; step++ {
			// Each advance crosses into a new, mostly empty 6 h block.
			end += timeutil.Millis(step) * 5 * timeutil.MillisPerHour
			g.seq++
			fold(t, f, []timeutil.Millis{end}, []float64{300 + float64(step)}, []uint64{g.seq})
			check(t, f, opts, "advancing")
		}
		g.seq++
		fold(t, f, []timeutil.Millis{5}, []float64{123}, []uint64{g.seq})
		check(t, f, opts, "window start moved")
	})

	t.Run("full sweep degrade", func(t *testing.T) {
		// Second-resolution times over three hours: nearly every draw adopts
		// from an equal-timestamp run.
		src := rng.New(23)
		f := fixture{e.NewIncremental(), &Summary{}}
		var seq uint64
		mk := func(n int) ([]timeutil.Millis, []float64, []uint64) {
			ts := make([]timeutil.Millis, n)
			ls := make([]float64, n)
			qs := make([]uint64, n)
			for i := range ts {
				ts[i] = timeutil.Millis(src.Uint64n(3*3600)) * 1000
				ls[i] = 50 + 2500*src.Float64()
				seq++
				qs[i] = seq
			}
			sort.Sort(&colSorter{ts, ls, qs})
			return ts, ls, qs
		}
		opts := opts
		opts.BlockLen = timeutil.MillisPerHour / 2
		ts, ls, qs := mk(30000)
		fold(t, f, ts, ls, qs)
		check(t, f, opts, "tie-heavy initial")
		ts, ls, qs = mk(5)
		fold(t, f, ts, ls, qs)
		check(t, f, opts, "tie-heavy fold")
		if !f.inc.fullSweep {
			t.Fatal("tie-heavy data did not trigger the full-sweep degradation")
		}
	})
}

// BenchmarkIncrementalDirty is the dirty-epoch cost this PR exists for:
// fold one in-window record, re-estimate. The batch equivalent rescans and
// resweeps everything.
func BenchmarkIncrementalDirty(b *testing.B) {
	e, err := NewEstimator(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3)
	horizon := 2 * timeutil.MillisPerDay
	const n = 50000
	ts := make([]timeutil.Millis, n)
	ls := make([]float64, n)
	qs := make([]uint64, n)
	ts[0], ts[1] = 0, horizon-1
	for i := 2; i < n; i++ {
		ts[i] = timeutil.Millis(src.Uint64n(uint64(horizon)))
	}
	for i := range ls {
		ls[i] = 50 + 2500*src.Float64()
		qs[i] = uint64(i + 1)
	}
	sort.Sort(&colSorter{ts, ls, qs})
	inc := e.NewIncremental()
	if err := inc.Fold(ts, ls, qs); err != nil {
		b.Fatal(err)
	}
	if _, err := inc.EstimatePlain(); err != nil {
		b.Fatal(err)
	}
	seq := uint64(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		dts := []timeutil.Millis{1 + timeutil.Millis(src.Uint64n(uint64(horizon-2)))}
		dls := []float64{50 + 2500*src.Float64()}
		dqs := []uint64{seq}
		if err := inc.Fold(dts, dls, dqs); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.EstimatePlain(); err != nil {
			b.Fatal(err)
		}
	}
	if inc.fullSweep {
		b.Fatal("benchmark unexpectedly degraded to full sweeps")
	}
}
