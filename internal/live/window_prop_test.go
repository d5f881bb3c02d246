package live

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autosens/internal/cell"
	"autosens/internal/core"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// windowOracle is the batch side of the windowed property tests: every
// acked usable record with the global ack sequence number the node gave
// it — cold rows below the cutover, hot rows in append order — from which
// any (slice, window)'s columns are the stable by-time sort the batch
// estimator would build.
type windowOracle struct {
	est  *core.Estimator
	ci   core.CIOptions
	rows []oracleRow
}

type oracleRow struct {
	t   timeutil.Millis
	lat float64
	seq uint64
	c   cell.Cell
}

// add records stream[i] at sequence base+i, skipping what the engine skips.
func (o *windowOracle) add(stream []telemetry.Record, base uint64) {
	for i, r := range stream {
		if c, ok := cell.Of(r); ok {
			o.rows = append(o.rows, oracleRow{r.Time, r.LatencyMS, base + uint64(i), c})
		}
	}
}

// columns returns the (time, seq)-sorted columns of the slice inside win.
func (o *windowOracle) columns(key SliceKey, win Window) (times []timeutil.Millis, lats []float64) {
	var in []oracleRow
	for _, r := range o.rows {
		if win.Contains(r.t) && key.Matches(r.c) {
			in = append(in, r)
		}
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].t != in[j].t {
			return in[i].t < in[j].t
		}
		return in[i].seq < in[j].seq
	})
	for _, r := range in {
		times, lats = append(times, r.t), append(lats, r.lat)
	}
	return times, lats
}

// check answers the query on the engine and on the batch estimator over the
// oracle's rows and requires the same bytes — or an error from both.
func (o *windowOracle) check(t *testing.T, e *Engine, key SliceKey, mode Mode, ci bool, win Window) {
	t.Helper()
	times, lats := o.columns(key, win)
	var band *core.CurveCI
	err := ErrNoRecords
	if len(times) > 0 {
		req := core.Request{Mode: mode, CI: ci, CIOptions: o.ci}
		band, err = o.est.Finish(req, &core.Summary{Columns: core.Columns{Times: times, Lats: lats}}, nil)
	}
	res, gotErr := e.QueryWindow(key, mode, ci, win)
	if err != nil {
		if gotErr == nil {
			t.Fatalf("%s/%s ci=%v %+v: engine answered %d records, oracle refuses: %v", key, mode, ci, win, res.Records, err)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("%s/%s ci=%v %+v: %v (oracle has %d records)", key, mode, ci, win, gotErr, len(times))
	}
	want, _ := band.Curve.MarshalJSON()
	if res.Records != len(times) || !bytes.Equal(want, res.Curve) {
		t.Fatalf("%s/%s ci=%v %+v: curve differs from batch (%d records, oracle %d, cached=%v)",
			key, mode, ci, win, res.Records, len(times), res.Cached)
	}
	if ci {
		if wantCI, _ := band.MarshalBoundsJSON(); !bytes.Equal(wantCI, res.CI) {
			t.Fatalf("%s/%s %+v: CI bounds differ from batch", key, mode, win)
		}
	}
}

// advancingStream is genStream with times that advance with the stream
// position plus a jitter of a few dozen positions — arrivals out of order
// the way many clients produce them, a cutover that hot and cold rows
// interleave across — and an exact timestamp tie every 50th record.
func advancingStream(seed uint64, n int, horizon timeutil.Millis) []telemetry.Record {
	stream := genStream(seed, n, horizon)
	src := rng.New(seed ^ 0x9e3779b9)
	step := horizon / timeutil.Millis(n)
	for i := range stream {
		stream[i].Time = timeutil.Millis(i)*step + timeutil.Millis(src.Uint64n(uint64(40*step)))
		if i%50 == 49 {
			stream[i].Time = stream[i-1].Time
		}
	}
	return stream
}

// tieredFixture builds an engine whose first nCold stream positions are
// served by a fake cold tier, and the oracle that knows them.
func tieredFixture(t *testing.T, stream []telemetry.Record, nCold int) (*Engine, *fakeCold, *windowOracle) {
	t.Helper()
	cfg := Config{Options: testOptions(), CI: core.DefaultCIOptions()}
	cfg.CI.Resamples = 6
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewEstimator(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := &windowOracle{est: est, ci: e.cfg.CI}
	o.add(stream[:nCold], 0)
	cold := &fakeCold{}
	cold.gen.Store(1)
	setCold(cold, o.rows)
	e.SetBaseSeq(uint64(nCold))
	e.AttachCold(cold)
	return e, cold, o
}

// setCold makes the fake tier serve exactly rows (which must be cold ones).
func setCold(cold *fakeCold, rows []oracleRow) {
	rows = append([]oracleRow(nil), rows...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].t != rows[j].t {
			return rows[i].t < rows[j].t
		}
		return rows[i].seq < rows[j].seq
	})
	cold.times, cold.lats, cold.seqs, cold.cells = nil, nil, nil, nil
	for _, r := range rows {
		cold.times, cold.lats = append(cold.times, r.t), append(cold.lats, r.lat)
		cold.seqs, cold.cells = append(cold.seqs, r.seq), append(cold.cells, r.c)
	}
}

// TestWindowQueriesMatchOracle is the windowed byte-identity property: over
// seeded random schedules of appends and queries — fresh windows, repeated
// ones, sliding and pinned ones, windows spanning the cutover, hot-only,
// cold-only, empty, unbounded above — every answer (plain, normalized,
// ci=1; cached or recomputed by any of the three paths) equals the batch
// estimator over the oracle's rows, including after retention GC drops
// cold rows and bumps the tier's generation.
func TestWindowQueriesMatchOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		runWindowProperty(t, seed, false)
	}
}

// TestWindowQueriesConcurrentAppend runs the same schedule with the
// appends on their own goroutine (the race-live gate runs it under -race):
// answers raced by appends cannot be compared, but every state they built
// must be exact once the appender is done.
func TestWindowQueriesConcurrentAppend(t *testing.T) {
	runWindowProperty(t, 7, true)
}

func runWindowProperty(t *testing.T, seed uint64, concurrent bool) {
	const n, nCold = 5000, 2000
	horizon := 2 * timeutil.MillisPerDay
	stream := advancingStream(seed, n, horizon)
	e, cold, o := tieredFixture(t, stream, nCold)
	src := rng.New(seed)
	cutT := stream[nCold].Time
	between := func(lo, hi timeutil.Millis) timeutil.Millis {
		return lo + timeutil.Millis(src.Uint64n(uint64(hi-lo)))
	}
	pinned := []Window{
		{From: cutT - 6*timeutil.MillisPerHour, To: cutT + 6*timeutil.MillisPerHour},
		{From: horizon / 8, To: cutT - timeutil.MillisPerHour}, // cold-only
		{From: cutT + 2*timeutil.MillisPerHour},                // hot-only, To == 0
	}
	var asked []Window
	randomWindow := func(pos int) Window {
		now := stream[pos-1].Time
		switch src.Intn(8) {
		case 0: // fresh, anywhere
			a := between(0, horizon)
			return Window{From: a, To: a + 1 + between(0, horizon/2)}
		case 1: // repeated
			if len(asked) > 0 {
				return asked[src.Intn(len(asked))]
			}
			fallthrough
		case 2: // sliding: trailing span ending at the newest data
			return Window{From: now - between(timeutil.MillisPerHour, 30*timeutil.MillisPerHour), To: now + 1}
		case 3: // spanning the cutover
			return Window{From: cutT - between(1, 12*timeutil.MillisPerHour), To: cutT + between(1, 12*timeutil.MillisPerHour)}
		case 4: // cold-only
			return Window{From: between(0, cutT/2), To: cutT / 2}
		case 5: // hot-only
			return Window{From: cutT + 2*timeutil.MillisPerHour + between(0, timeutil.MillisPerHour), To: horizon + 1}
		case 6: // empty
			return Window{From: 3 * horizon, To: 4 * horizon}
		default: // unbounded above
			return Window{From: between(0, horizon)}
		}
	}
	type shape struct {
		mode Mode
		ci   bool
	}
	shapes := []shape{{ModePlain, false}, {ModePlain, false}, {ModeNormalized, false}, {ModePlain, true}}
	ask := func(pos int, compare bool) {
		wins := append([]Window{randomWindow(pos), randomWindow(pos)}, pinned...)
		for i, win := range wins {
			key, sh := goldenKeys[src.Intn(3)], shapes[src.Intn(len(shapes))]
			if i >= 2 { // a pinned dashboard asks the same question every time
				key, sh = goldenKeys[i%3], shapes[i%len(shapes)]
			}
			asked = append(asked, win)
			if compare {
				o.check(t, e, key, sh.mode, sh.ci, win)
			} else {
				// Raced by the appender: only the end state is comparable.
				_, _ = e.QueryWindow(key, sh.mode, sh.ci, win)
			}
		}
	}

	pos := nCold
	appendNext := func(k int) {
		k = min(k, n-pos)
		e.Append(stream[pos : pos+k])
		o.add(stream[pos:pos+k], uint64(pos))
		pos += k
	}
	if concurrent {
		var wg sync.WaitGroup
		var done atomic.Bool
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			for lo := nCold; lo < n; lo += 25 {
				e.Append(stream[lo:min(lo+25, n)])
				time.Sleep(100 * time.Microsecond)
			}
		}()
		for !done.Load() {
			ask(n, false)
		}
		wg.Wait()
		o.add(stream[nCold:], nCold)
		pos = n
	} else {
		appendNext(600)
		for round := 0; pos < n; round++ {
			ask(pos, true)
			if round == 8 {
				// Retention GC: the tier drops its oldest rows and moves its
				// generation. Every combo then sees new records, so no cached
				// result predates the drop.
				dropT := horizon / 6
				kept := o.rows[:0]
				var coldRows []oracleRow
				for _, r := range o.rows {
					if r.seq < nCold && r.t < dropT {
						continue
					}
					kept = append(kept, r)
					if r.seq < nCold {
						coldRows = append(coldRows, r)
					}
				}
				o.rows = kept
				setCold(cold, coldRows)
				cold.gen.Add(1)
				appendNext(400)
				continue
			}
			appendNext(1 + src.Intn(150))
		}
	}
	// Quiesced: everything asked so far, on every path state was built by.
	for _, win := range append(pinned, asked[len(asked)-10:]...) {
		for _, key := range goldenKeys[:3] {
			o.check(t, e, key, ModePlain, false, win)
		}
		o.check(t, e, AllSlices, ModeNormalized, false, win)
		o.check(t, e, AllSlices, ModePlain, true, win)
	}
	st := e.LiveStats()
	if st.WindowStateless == 0 || st.WindowSeeded == 0 || st.WindowDelta == 0 {
		t.Fatalf("paths not all exercised: stateless=%d seeded=%d delta=%d",
			st.WindowStateless, st.WindowSeeded, st.WindowDelta)
	}
	// Every query here is windowed, so these are promoted windows answering
	// mode=normalized from their retained slot tables.
	if st.NormalizedRecomputes == 0 || st.NormalizedReused == 0 || st.NormalizedRegenerated == 0 || st.NormalizedTableBytes == 0 {
		t.Fatalf("promoted windows never answered normalized from retained tables: %+v", st)
	}
}

// TestWindowStateRetentionBounded pins the memory bound: a thousand
// distinct sliding windows — each asked twice across an append, so each is
// promoted to retained state, every fourth in normalized mode so its state
// holds slot tables too — never push the retained bytes over the budget,
// one-shot windows retain nothing, and through all of it a pinned window
// keeps its state and (across two rotations' worth of distinct keys in the
// result cache) its still-valid cached result.
func TestWindowStateRetentionBounded(t *testing.T) {
	horizon := 2 * timeutil.MillisPerDay
	stream := advancingStream(5, 4000, horizon)
	e, _, _ := tieredFixture(t, stream, 1500)
	e.Append(stream[1500:2500])
	e.wsBudget = 1 << 20
	tail := telemetry.Successful(stream[2500:])
	pin := Window{From: horizon / 8, To: horizon/8 + 6*timeutil.MillisPerHour}
	pinKey := winStateKey{key: AllSlices, win: pin}
	query := func(win Window, mode Mode) *Result {
		t.Helper()
		res, err := e.QueryWindow(AllSlices, mode, false, win)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tablesSeen := false
	for i := 0; i < 1000; i++ {
		slide := Window{From: horizon/4 + timeutil.Millis(i), To: horizon/2 + timeutil.Millis(i)}
		mode := ModePlain
		if i%4 == 0 {
			mode = ModeNormalized
		}
		query(slide, mode)
		query(pin, ModePlain)
		e.Append(tail[i%len(tail) : i%len(tail)+1])
		if i%2 == 0 {
			query(slide, mode) // second recompute: promoted
		}
		query(pin, ModePlain)
		if n, b := e.windowStates(); b > e.wsBudget || n < 1 {
			t.Fatalf("after %d windows: %d states retain %d bytes, budget %d", i+1, n, b, e.wsBudget)
		}
		if ws := e.windowStateFor(winStateKey{key: AllSlices, win: slide}, false); ws != nil && i%4 == 0 {
			_, tableBytes, _ := ws.inc.NormalizedStats()
			if tableBytes == 0 || ws.bytes < tableBytes {
				t.Fatalf("window %d: state accounts %d bytes, its slot tables hold %d", i, ws.bytes, tableBytes)
			}
			tablesSeen = true
		}
		if e.windowStateFor(pinKey, false) == nil {
			t.Fatalf("pinned window's state evicted after %d sliding windows", i+1)
		}
	}
	if !tablesSeen {
		t.Fatal("no promoted normalized window retained slot tables")
	}
	st := e.LiveStats()
	if st.WindowSeeded < 400 || st.WindowStates >= 400 {
		t.Fatalf("seeded %d states, %d still retained: eviction never ran", st.WindowSeeded, st.WindowStates)
	}
	// No appends now: the pinned result stays valid while 600 one-shot
	// windows rotate the result cache, as long as it keeps being asked for.
	before := e.LiveStats().WindowStates
	for i := 0; i < 600; i++ {
		query(Window{From: horizon / 3, To: horizon/2 + timeutil.Millis(i)}, ModePlain)
		if i%100 == 99 && !query(pin, ModePlain).Cached {
			t.Fatalf("pinned window's cached result lost after %d one-shot windows", i+1)
		}
	}
	if after := e.LiveStats().WindowStates; after != before {
		t.Fatalf("one-shot windows changed retained states %d -> %d", before, after)
	}
}
