package store

import (
	"bytes"
	"testing"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// testOptions are the estimator options shared by the tiered engine and
// the batch reference in these tests.
func testOptions() core.Options {
	o := core.DefaultOptions()
	o.ReferenceMS = 250
	return o
}

func newTestEngine(t testing.TB) *live.Engine {
	t.Helper()
	e, err := live.New(live.Config{Options: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// batchCurve runs the batch estimator the way the autosens CLI does —
// over the stream's slice ∩ window in ack order, failed records left for
// the estimator's own UsableColumns filter — and returns the curve's
// canonical JSON.
func batchCurve(t *testing.T, stream []telemetry.Record, key live.SliceKey, mode live.Mode, win live.Window) []byte {
	t.Helper()
	est, err := core.NewEstimator(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var recs []telemetry.Record
	for _, r := range stream {
		if key.Action >= 0 && r.Action != key.Action {
			continue
		}
		if key.UserType >= 0 && r.UserType != key.UserType {
			continue
		}
		if key.Period >= 0 && timeutil.PeriodOf(r.Time, r.TZOffset) != key.Period {
			continue
		}
		if !win.IsZero() && !win.Contains(r.Time) {
			continue
		}
		recs = append(recs, r)
	}
	var c *core.Curve
	if mode == live.ModeNormalized {
		c, err = est.EstimateTimeNormalized(recs)
	} else {
		c, err = est.Estimate(recs)
	}
	if err != nil {
		t.Fatalf("batch estimate %s/%s: %v", key, mode, err)
	}
	b, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var goldenKeys = []live.SliceKey{
	live.AllSlices,
	{Action: telemetry.SelectMail, UserType: -1, Period: -1},
	{Action: -1, UserType: telemetry.Business, Period: -1},
	{Action: -1, UserType: -1, Period: timeutil.Period2pm8pm},
}

// TestGoldenWindowedHotColdMatchesBatch pins the acceptance guarantee:
// windowed curves served by a tiered engine — cold blocks below the
// cutover merged with the hot store warmed from the WAL tail — are
// byte-identical to the batch estimator run over the same windowed
// records, INCLUDING after the compactor was killed at its manifest
// install and recovered. It then keeps appending and re-queries the
// trailing window, covering the dirty hot+cold path. Both decoded-block
// cache configurations must produce the same bytes — the cache may only
// change where columns come from, never what they hold.
func TestGoldenWindowedHotColdMatchesBatch(t *testing.T) {
	t.Run("cache=off", func(t *testing.T) { runGoldenWindowed(t, 0) })
	t.Run("cache=on", func(t *testing.T) { runGoldenWindowed(t, 64<<20) })
}

func runGoldenWindowed(t *testing.T, cacheBytes int64) {
	horizon := 2 * timeutil.MillisPerDay
	stream := genStream(5, 12000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()
	ffs := wal.NewFaultFS(nil)

	// First incarnation: stream into a small-segment WAL, crash the
	// compactor once at the commit point, recover, compact for real. The
	// active segment is never folded, so a hot tail survives in the WAL.
	w, _, err := wal.Open(wal.Options{Dir: walDir, FS: ffs, Sync: wal.SyncOff, SegmentMaxBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(stream); {
		hi := lo + 1 + int(stream[lo].UserID%400)
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := w.Append(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	s1, err := Open(Config{Dir: coldDir, WALDir: walDir, FS: ffs, Active: w.ActiveSegment, BlockRecords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailRename(true)
	if _, err := s1.CompactOnce(); err == nil {
		t.Fatal("compaction survived the injected kill")
	}
	ffs.Heal()
	if _, err := s1.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: sensd's startup order. Open the store, seed the
	// engine at the cutover, warm it from the surviving segments, attach.
	s2, err := Open(Config{Dir: coldDir, WALDir: walDir, FS: ffs, BlockRecords: 1024, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	cut := s2.Cutover()
	if cut == 0 || cut >= uint64(len(stream)) {
		t.Fatalf("degenerate cutover %d of %d — the test needs both tiers populated", cut, len(stream))
	}
	e := newTestEngine(t)
	e.SetBaseSeq(cut)
	replayed, err := e.Warm(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(replayed) != uint64(len(stream))-cut {
		t.Fatalf("warm replayed %d records, want %d (the unfolded tail)", replayed, uint64(len(stream))-cut)
	}
	e.AttachCold(s2)

	wins := []live.Window{
		{From: 0, To: horizon + 1},               // full history through the windowed path
		{From: horizon / 4, To: 3 * horizon / 4}, // interior window spanning the cutover
		{From: horizon / 2},                      // trailing, unbounded above
	}
	for _, key := range goldenKeys {
		for _, mode := range []live.Mode{live.ModePlain, live.ModeNormalized} {
			for _, win := range wins {
				res, err := e.QueryWindow(key, mode, false, win)
				if err != nil {
					t.Fatalf("tiered query %s/%s win=%+v: %v", key, mode, win, err)
				}
				if want := len(refRows(stream, key, win)); res.Records != want {
					t.Fatalf("%s/%s win=%+v: %d records, want %d", key, mode, win, res.Records, want)
				}
				want := batchCurve(t, stream, key, mode, win)
				if !bytes.Equal(res.Curve, want) {
					t.Fatalf("%s/%s win=%+v: tiered curve differs from batch", key, mode, win)
				}
				// Second ask: served from the windowed cache, same bytes.
				res2, err := e.QueryWindow(key, mode, false, win)
				if err != nil {
					t.Fatal(err)
				}
				if !res2.Cached || !bytes.Equal(res2.Curve, want) {
					t.Fatalf("%s/%s win=%+v: cache hit diverged (cached=%v)", key, mode, win, res2.Cached)
				}
			}
		}
	}

	// A windowed query covering everything must agree byte for byte with
	// the unwindowed path for the hot+cold tier union... but Query serves
	// the HOT store only. Assert the windowed full-history answer matches
	// batch over the whole stream instead, which subsumes it.
	full := live.Window{From: 0, To: horizon + 1}
	res, err := e.QueryWindow(live.AllSlices, live.ModePlain, false, full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Curve, batchCurve(t, stream, live.AllSlices, live.ModePlain, live.Window{})) {
		t.Fatal("full-coverage window differs from unwindowed batch")
	}

	// Keep ingesting: the trailing window must fold the new hot records
	// in (dirty recompute) and still match batch over the extended stream.
	extra := genStream(77, 800, horizon)
	e.Append(extra)
	combined := append(append([]telemetry.Record(nil), stream...), extra...)
	for _, key := range goldenKeys[:2] {
		win := live.Window{From: horizon / 2}
		res, err := e.QueryWindow(key, live.ModePlain, false, win)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("%s: query after append served stale cache", key)
		}
		if want := batchCurve(t, combined, key, live.ModePlain, win); !bytes.Equal(res.Curve, want) {
			t.Fatalf("%s: post-append trailing window differs from batch", key)
		}
	}

	// With a cache configured, the repeated windows above must have come
	// back from memory at least once.
	if st := s2.Stats(); cacheBytes > 0 {
		if st.Cache == nil || st.Cache.Hits == 0 {
			t.Fatal("cache configured but the windowed queries never hit it")
		}
	} else if st.Cache != nil {
		t.Fatal("cache disabled but stats report one")
	}
}

// TestWindowedPartialsMatchTieredColumns pins the cluster-facing side:
// PartialWindow's columns are exactly the tier-merged oracle rows, its
// wire round trip (version 2) preserves the window bounds, and a zero
// window still emits the version-1 bytes unwindowed builds produced.
func TestWindowedPartialsMatchTieredColumns(t *testing.T) {
	horizon := timeutil.MillisPerDay
	stream := genStream(41, 4000, horizon)
	walDir, coldDir := t.TempDir(), t.TempDir()

	w, _, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncOff, SegmentMaxBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(stream); lo += 500 {
		hi := lo + 500
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := w.Append(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := Open(Config{Dir: coldDir, WALDir: walDir, Active: w.ActiveSegment})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: coldDir, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t)
	e.SetBaseSeq(s2.Cutover())
	if _, err := e.Warm(walDir); err != nil {
		t.Fatal(err)
	}
	e.AttachCold(s2)

	win := live.Window{From: horizon / 4, To: 3 * horizon / 4}
	key := live.AllSlices
	p, err := e.PartialWindow(key, win)
	if err != nil {
		t.Fatal(err)
	}
	want := refRows(stream, key, win)
	if len(p.Times) != len(want) {
		t.Fatalf("partial has %d rows, want %d", len(p.Times), len(want))
	}
	for i, r := range want {
		if p.Times[i] != r.time || p.Lats[i] != r.lat || p.Seqs[i] != r.seq {
			t.Fatalf("partial row %d = (%d, %g, %d), want (%d, %g, %d)",
				i, p.Times[i], p.Lats[i], p.Seqs[i], r.time, r.lat, r.seq)
		}
	}
	if !p.Windowed || p.WindowFrom != win.From || p.WindowTo != win.To {
		t.Fatalf("window bounds not carried: %+v", p)
	}

	// Wire round trip: the windowed encoding (version 2) must preserve
	// the bounds and every column.
	q, err := api.DecodePartial(api.AppendPartial(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if !q.Windowed || q.WindowFrom != win.From || q.WindowTo != win.To {
		t.Fatalf("wire round trip lost window bounds: %+v", q)
	}
	if len(q.Times) != len(p.Times) {
		t.Fatalf("wire round trip: %d rows, want %d", len(q.Times), len(p.Times))
	}
	for i := range p.Times {
		if q.Times[i] != p.Times[i] || q.Lats[i] != p.Lats[i] || q.Seqs[i] != p.Seqs[i] {
			t.Fatalf("wire round trip mutated row %d", i)
		}
	}

	// A zero window is the unwindowed partial: wire version 1, the bytes an
	// unwindowed build would have sent.
	pz, err := e.PartialWindow(key, live.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if wire := api.AppendPartial(nil, pz); pz.Windowed || wire[4] != 1 {
		t.Fatalf("zero-window partial is wire version %d (windowed=%v), want 1", wire[4], pz.Windowed)
	}
}
