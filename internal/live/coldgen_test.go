package live

import (
	"errors"
	"sync/atomic"
	"testing"

	"autosens/internal/cell"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// fakeCold is an in-memory ColdTier whose visible data and generation the
// test mutates directly, pinning the engine-side contract without a real
// store: windowed state seeded from a scan stays valid while the
// generation holds, and is rebuilt from a fresh scan when it advances.
type fakeCold struct {
	times []timeutil.Millis
	lats  []float64
	seqs  []uint64
	cells []cell.Cell // per-row cells; nil means every row matches every slice
	gen   atomic.Uint64
	scans atomic.Int64
	fail  atomic.Bool // scans error out
}

func (f *fakeCold) ScanWindow(key SliceKey, win Window) ([]timeutil.Millis, []float64, []uint64, error) {
	f.scans.Add(1)
	if f.fail.Load() {
		return nil, nil, nil, errors.New("fake tier down")
	}
	var ts []timeutil.Millis
	var ls []float64
	var sq []uint64
	for i, t := range f.times {
		if (win.IsZero() || win.Contains(t)) && (f.cells == nil || key.Matches(f.cells[i])) {
			ts = append(ts, t)
			ls = append(ls, f.lats[i])
			sq = append(sq, f.seqs[i])
		}
	}
	return ts, ls, sq, nil
}

func (f *fakeCold) OldestRetained() (timeutil.Millis, bool) {
	if len(f.times) == 0 {
		return 0, false
	}
	return f.times[0], true
}

func (f *fakeCold) Generation() uint64 { return f.gen.Load() }

// TestWindowStateReseedsOnGeneration drives the windowed query lifecycle
// through a fake tier: a first-seen window is answered statelessly (one
// scan, nothing retained), its second recompute seeds a state from a
// second scan, and from then on hot appends fold as deltas without
// touching the tier while the generation holds — until a generation bump
// forces the next recompute to discard the seeded columns and rescan.
func TestWindowStateReseedsOnGeneration(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	e := newTestEngine(t)

	// Cold half: 1200 records over [0, horizon/2), seqs 0..1199.
	nCold := 1200
	cold := &fakeCold{}
	cold.gen.Store(1)
	for i := 0; i < nCold; i++ {
		cold.times = append(cold.times, timeutil.Millis(i)*horizon/2/timeutil.Millis(nCold))
		cold.lats = append(cold.lats, 100+float64(i%700))
		cold.seqs = append(cold.seqs, uint64(i))
	}
	e.SetBaseSeq(uint64(nCold))
	e.AttachCold(cold)

	// Hot half: records over [horizon/2, horizon), seqs from nCold.
	hot := genStream(61, 800, horizon/2)
	for i := range hot {
		hot[i].Time += horizon / 2
	}
	e.Append(hot)
	hotUsable := 0
	for _, r := range hot {
		if !r.Failed {
			hotUsable++
		}
	}

	// Window spanning both tiers: cold rows in [horizon/4, horizon/2) plus
	// every hot row.
	win := Window{From: horizon / 4}
	coldInWin := 0
	for _, ct := range cold.times {
		if win.Contains(ct) {
			coldInWin++
		}
	}
	res, err := e.QueryWindow(AllSlices, ModePlain, false, win)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldInWin + hotUsable; res.Records != want {
		t.Fatalf("first query: %d records, want %d cold + %d hot = %d",
			res.Records, coldInWin, hotUsable, want)
	}
	if n := cold.scans.Load(); n != 1 {
		t.Fatalf("first query scanned the tier %d times, want 1", n)
	}

	// Repeat: engine result cache, no recompute, no scan.
	if res, err = e.QueryWindow(AllSlices, ModePlain, false, win); err != nil || !res.Cached {
		t.Fatalf("repeat query not served from cache (err=%v)", err)
	}

	// Hot appends dirty the combo. The second recompute promotes the window
	// to delta-maintained state, seeded from one more scan; the third folds
	// only the delta — the tier must not be rescanned while its generation
	// holds.
	r := hot[0]
	r.Failed = false
	for i, wantScans := range []int64{2, 2, 2} {
		r.Time = horizon - 10 + timeutil.Millis(i)
		e.Append([]telemetry.Record{r})
		res, err = e.QueryWindow(AllSlices, ModePlain, false, win)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("post-append query served stale cache")
		}
		if want := coldInWin + hotUsable + 1 + i; res.Records != want {
			t.Fatalf("dirty query %d: %d records, want %d", i, res.Records, want)
		}
		if n := cold.scans.Load(); n != wantScans {
			t.Fatalf("dirty query %d: %d tier scans, want %d (seed once, then delta-only)", i, n, wantScans)
		}
	}
	if st := e.LiveStats(); st.WindowStateless != 1 || st.WindowSeeded != 1 || st.WindowDelta != 2 || st.WindowStates != 1 {
		t.Fatalf("window paths stateless=%d seeded=%d delta=%d states=%d, want 1/1/2/1",
			st.WindowStateless, st.WindowSeeded, st.WindowDelta, st.WindowStates)
	}

	// Retention-style change: the tier drops its older half and advances
	// the generation. The next dirty recompute must reseed from a fresh
	// scan and report the shrunk cold count.
	keep := 0
	for i, ct := range cold.times {
		if ct >= horizon/3 {
			if keep == 0 {
				keep = len(cold.times) - i
				cold.times = cold.times[i:]
				cold.lats = cold.lats[i:]
				cold.seqs = cold.seqs[i:]
			}
			break
		}
	}
	if keep == 0 || keep == nCold {
		t.Fatalf("degenerate drop: kept %d of %d", keep, nCold)
	}
	cold.gen.Add(1)
	r.Time = horizon - 2
	e.Append([]telemetry.Record{r})
	res, err = e.QueryWindow(AllSlices, ModePlain, false, win)
	if err != nil {
		t.Fatal(err)
	}
	coldInWin2 := 0
	for _, ct := range cold.times {
		if win.Contains(ct) {
			coldInWin2++
		}
	}
	if coldInWin2 >= coldInWin {
		t.Fatalf("drop did not shrink the windowed cold set: %d -> %d", coldInWin, coldInWin2)
	}
	if want := coldInWin2 + hotUsable + 4; res.Records != want {
		t.Fatalf("post-GC query: %d records, want %d (reseed not applied)", res.Records, want)
	}
	if n := cold.scans.Load(); n != 3 {
		t.Fatalf("post-GC query scanned the tier %d times, want exactly 3 (one reseed)", n)
	}
	if st := e.LiveStats(); st.WindowSeeded != 2 {
		t.Fatalf("reseed counted %d seeded recomputes, want 2", st.WindowSeeded)
	}
}

// TestWindowStateDroppedOnFailedReseed pins the gauge to the state: a
// promoted window that answered normalized retains draw tables, and when
// its reseed after a generation bump fails the state is dropped together
// with the bytes it reported.
func TestWindowStateDroppedOnFailedReseed(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	e := newTestEngine(t)
	cold := &fakeCold{}
	cold.gen.Store(1)
	e.AttachCold(cold)
	hot := genStream(67, 3000, horizon)
	e.Append(hot)

	win := Window{From: horizon / 4}
	r := hot[0]
	r.Failed = false
	for i := 0; i < 2; i++ { // stateless, then seeded
		r.Time = horizon - 10 + timeutil.Millis(i)
		e.Append([]telemetry.Record{r})
		if _, err := e.QueryWindow(AllSlices, ModeNormalized, false, win); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.LiveStats(); st.WindowSeeded != 1 || st.NormalizedTableBytes == 0 {
		t.Fatalf("seeded=%d table bytes=%d, want a promoted window holding tables",
			st.WindowSeeded, st.NormalizedTableBytes)
	}

	cold.gen.Add(1)
	cold.fail.Store(true)
	r.Time = horizon - 2
	e.Append([]telemetry.Record{r})
	if _, err := e.QueryWindow(AllSlices, ModeNormalized, false, win); err == nil {
		t.Fatal("reseed over a failing tier answered")
	}
	if st := e.LiveStats(); st.NormalizedTableBytes != 0 {
		t.Fatalf("dropped state still reports %d table bytes", st.NormalizedTableBytes)
	}
}
