package core

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"autosens/internal/obs"
	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// splitSmall lowers the chunk threshold for one test, so inputs of a few
// thousand records take the chunked schedule and the split sweeps.
func splitSmall(t *testing.T, min int) {
	t.Helper()
	old := keyChunkMin
	keyChunkMin = min
	t.Cleanup(func() { keyChunkMin = old })
}

// TestDrawKeysChunkedMatchesSerial pins the chunked key schedule to the
// serial stream: the same sorted keys (tags and their tie order included),
// the same tie-break seed and the same resume state of src, at 1, 2, 3 and 8
// chunks — over spans with many equal keys, a week in milliseconds, and a
// span that rejects about half of all raw words, which must take the serial
// fallback and still match.
func TestDrawKeysChunkedMatchesSerial(t *testing.T) {
	const rejecting = 1<<63 + 1
	week := uint64(7 * timeutil.MillisPerDay)
	// Chunk-count edges, the radix sort's 128-key cutover, and a week's 145
	// buckets holding on average just under and just over it.
	lengths := []int{0, 1, 2, 7, 8, 9, 127, 128, 129, 145 * 126, 145 * 130}
	var scratch []uint64 // reused throughout: stale contents must not leak
	for _, span := range []uint64{1, 5, week, rejecting} {
		ls := lengths
		if span == week {
			ls = append(slices.Clone(lengths), 600_000)
		}
		for _, n := range ls {
			for _, tag := range []bool{false, true} {
				if tag && span > math.MaxUint32 {
					continue
				}
				// The reference: per-call Uint64n, a comparison sort.
				ref := rng.New(31)
				want := make([]uint64, n)
				for g := range want {
					want[g] = ref.Uint64n(span)
					if tag {
						want[g] = want[g]<<32 | uint64(g)
					}
				}
				slices.Sort(want)
				peek := *ref
				wantAux := peek.Uint64()

				for _, chunks := range []int{1, 2, 3, 8} {
					src := rng.New(31)
					keys := make([]uint64, n)
					aux, fellBack := drawKeysChunked(chunks, src, span, keys, &scratch, tag)
					if !slices.Equal(keys, want) {
						t.Fatalf("span=%d n=%d tag=%v chunks=%d: keys differ from the serial schedule", span, n, tag, chunks)
					}
					if aux != wantAux {
						t.Fatalf("span=%d n=%d tag=%v chunks=%d: aux seed %x, want %x", span, n, tag, chunks, aux, wantAux)
					}
					if *src != *ref {
						t.Fatalf("span=%d n=%d tag=%v chunks=%d: src does not resume the key stream", span, n, tag, chunks)
					}
					// Below 64 keys the rejecting span may get through unrejected.
					if span == rejecting && chunks > 1 && n >= 64 && !fellBack {
						t.Fatalf("n=%d chunks=%d: rejected raw words did not take the serial fallback", n, chunks)
					}
					if span != rejecting && fellBack {
						t.Fatalf("span=%d n=%d chunks=%d: fell back without a rejection", span, n, chunks)
					}
				}
			}
		}
	}
}

// chunkFold is one fold of a scenario replayed under several worker counts.
type chunkFold struct {
	ts []timeutil.Millis
	ls []float64
	qs []uint64
}

// chunkScenarios are the fold sequences the split sweeps are pinned over:
// arrivals that advance the data clock (the schedule is redrawn every
// estimate), backfill inside the window (delta-maintained), a record earlier
// than everything held, and second-resolution data so tie-heavy that the
// Incremental degrades to full sweeps.
func chunkScenarios() map[string][]chunkFold {
	out := map[string][]chunkFold{}

	g := newIncStream(3, timeutil.MillisPerDay, 0.2)
	ts, ls, qs := g.initial(3000)
	adv := []chunkFold{{ts, ls, qs}}
	end := ts[len(ts)-1]
	for step := 0; step < 8; step++ {
		var f chunkFold
		for k := 0; k < 1+step%4; k++ {
			if k%2 == 0 { // odd records land on the instant before them: a tie
				end += timeutil.Millis(1 + g.src.Uint64n(20000))
			}
			g.seq++
			f.ts, f.ls, f.qs = append(f.ts, end), append(f.ls, 50+2500*g.src.Float64()), append(f.qs, g.seq)
		}
		adv = append(adv, f)
	}
	out["advancing"] = adv

	g = newIncStream(5, timeutil.MillisPerDay, 0.3)
	ts, ls, qs = g.initial(3000)
	back := []chunkFold{{ts, ls, qs}}
	for step := 0; step < 8; step++ {
		ts, ls, qs := g.delta(1 + step%5)
		back = append(back, chunkFold{ts, ls, qs})
	}
	out["backfill"] = back

	g = newIncStream(7, timeutil.MillisPerDay, 0.1)
	ts, ls, qs = g.initial(3000)
	for i := range ts {
		ts[i] += timeutil.MillisPerHour
	}
	moved := []chunkFold{{ts, ls, qs}}
	g.seq++
	moved = append(moved, chunkFold{[]timeutil.Millis{5}, []float64{123}, []uint64{g.seq}})
	for step := 0; step < 4; step++ {
		ts, ls, qs := g.delta(2)
		for i := range ts {
			ts[i] += timeutil.MillisPerHour
		}
		moved = append(moved, chunkFold{ts, ls, qs})
	}
	out["window start moved"] = moved

	src := rng.New(23)
	var seq uint64
	mk := func(n int) chunkFold {
		f := chunkFold{make([]timeutil.Millis, n), make([]float64, n), make([]uint64, n)}
		for i := range f.ts {
			f.ts[i] = timeutil.Millis(src.Uint64n(1800)) * 1000
			f.ls[i] = 50 + 2500*src.Float64()
			seq++
			f.qs[i] = seq
		}
		sort.Sort(&colSorter{f.ts, f.ls, f.qs})
		return f
	}
	out["tie-heavy"] = []chunkFold{mk(6000), mk(5), mk(3), mk(4)}
	return out
}

// TestIncrementalChunkedSweeps replays every scenario under Workers 1, 2 and
// 8 with chunks of a few hundred keys: each estimate's curve, its
// aux-dependent ranks and its bootstrap band must be the same bytes at every
// worker count, and equal to the stateless finisher's over the same columns
// (plain, plain with a retained scratch, and with a band).
func TestIncrementalChunkedSweeps(t *testing.T) {
	splitSmall(t, 256)
	opts := DefaultCIOptions()
	opts.Resamples = 6
	opts.BlockLen = 10 * timeutil.MillisPerMinute
	for name, folds := range chunkScenarios() {
		t.Run(name, func(t *testing.T) {
			type snapshot struct {
				curve, band []byte
				auxDep      []int32
				fullSweep   bool
			}
			var base []snapshot
			for _, workers := range []int{1, 2, 8} {
				e := testEstimator(t, func(o *Options) { o.Workers = workers })
				opts := opts
				opts.Workers = workers
				inc := e.NewIncremental()
				ref := &Summary{}
				sc := &Scratch{}
				var got []snapshot
				for step, f := range folds {
					if err := inc.Fold(f.ts, f.ls, f.qs); err != nil {
						t.Fatal(err)
					}
					if err := ref.Fold(Columns{Times: f.ts, Lats: f.ls, Seqs: f.qs}); err != nil {
						t.Fatal(err)
					}
					c, err := inc.EstimatePlain()
					if err != nil {
						t.Fatal(err)
					}
					band, err := inc.Finish(bandRequest(opts))
					if err != nil {
						t.Fatal(err)
					}
					s := snapshot{curve: curveBytes(t, c), auxDep: slices.Clone(inc.auxDep), fullSweep: inc.fullSweep}
					if s.band, err = band.MarshalBoundsJSON(); err != nil {
						t.Fatal(err)
					}
					got = append(got, s)

					batch, err := pointOf(e.Finish(Request{}, summaryOf(ref.Times, ref.Lats), nil))
					if err != nil {
						t.Fatal(err)
					}
					summary, err := pointOf(e.Finish(Request{}, ref, sc))
					if err != nil {
						t.Fatal(err)
					}
					batchBand, err := e.Finish(bandRequest(opts), summaryOf(ref.Times, ref.Lats), nil)
					if err != nil {
						t.Fatal(err)
					}
					batchBounds, err := batchBand.MarshalBoundsJSON()
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case !bytes.Equal(s.curve, curveBytes(t, batch)):
						t.Fatalf("workers=%d step %d: incremental curve differs from the stateless one", workers, step)
					case !bytes.Equal(s.curve, curveBytes(t, summary)):
						t.Fatalf("workers=%d step %d: stateless curve with a retained scratch differs", workers, step)
					case !bytes.Equal(s.curve, curveBytes(t, batchBand.Curve)):
						t.Fatalf("workers=%d step %d: stateless band's point differs", workers, step)
					case !bytes.Equal(s.band, batchBounds):
						t.Fatalf("workers=%d step %d: incremental band differs from the stateless one", workers, step)
					}
				}
				if base == nil {
					base = got
					continue
				}
				for step := range got {
					b, g := base[step], got[step]
					switch {
					case !bytes.Equal(b.curve, g.curve):
						t.Fatalf("workers=%d step %d: curve differs from workers=1", workers, step)
					case !bytes.Equal(b.band, g.band):
						t.Fatalf("workers=%d step %d: band differs from workers=1", workers, step)
					case !slices.Equal(b.auxDep, g.auxDep):
						t.Fatalf("workers=%d step %d: aux-dependent ranks differ from workers=1", workers, step)
					case b.fullSweep != g.fullSweep:
						t.Fatalf("workers=%d step %d: full-sweep degrade differs from workers=1", workers, step)
					}
				}
			}
			last := base[len(base)-1]
			if want := name == "tie-heavy"; last.fullSweep != want {
				t.Fatalf("full-sweep degrade = %v, want %v", last.fullSweep, want)
			}
			if name != "tie-heavy" && len(last.auxDep) == 0 {
				t.Fatal("no aux-dependent draws exercised")
			}
		})
	}
}

// TestKeyScheduleObservability pins what an operator sees of the chunked
// schedule: key_chunks and stream_fallback on the estimate_incremental and
// sample_unbiased spans, and the serial fallback counted once per redraw.
func TestKeyScheduleObservability(t *testing.T) {
	splitSmall(t, 256)
	isolateMetrics(t)
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	fallbacks := reg.Counter("autosens_core_key_stream_fallbacks_total", "")

	if _, fellBack := drawKeysChunked(2, rng.New(31), 1<<63+1, make([]uint64, 1000), nil, false); !fellBack || fallbacks.Value() != 1 {
		t.Fatalf("rejecting span: fellBack=%v, counter %d, want true and 1", fellBack, fallbacks.Value())
	}

	e := testEstimator(t, func(o *Options) { o.Workers = 2 })
	tr := obs.NewTracer("test")
	e.SetTrace(tr.Root())
	g := newIncStream(11, timeutil.MillisPerDay, 0)
	ts, ls, qs := g.initial(3000)
	inc := e.NewIncremental()
	if err := inc.Fold(ts, ls, qs); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.EstimatePlain(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Finish(Request{}, summaryOf(ts, ls), nil); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()
	for _, sp := range []*obs.Span{root.Find("estimate_incremental"), root.Find("estimate").Find("sample_unbiased")} {
		chunks, ok1 := sp.Attr("key_chunks")
		fellBack, ok2 := sp.Attr("stream_fallback")
		if !ok1 || !ok2 || chunks != 2 || fellBack != false {
			t.Fatalf("%s: key_chunks=%v stream_fallback=%v, want 2 and false", sp.Name(), chunks, fellBack)
		}
	}
	if fallbacks.Value() != 1 {
		t.Fatalf("intact streams counted as fallbacks: %d", fallbacks.Value())
	}
}
