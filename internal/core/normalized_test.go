package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// normFeed synthesizes the deltas of a live slice for the time-normalized
// property test: records at a chosen hourly rate over a chosen data-time
// span, timestamps rounded down to res (1000 makes every slot tie-heavy),
// latency following a three-hour regime so slots differ.
type normFeed struct {
	src *rng.Source
	res timeutil.Millis
	seq uint64
}

func (g *normFeed) delta(from, to timeutil.Millis, perHour float64) ([]timeutil.Millis, []float64, []uint64) {
	n := int(perHour*float64(to-from)/float64(timeutil.MillisPerHour) + g.src.Float64())
	times := make([]timeutil.Millis, n)
	lats := make([]float64, n)
	seqs := make([]uint64, n)
	for i := range times {
		t := from + timeutil.Millis(g.src.Uint64n(uint64(to-from)))
		times[i] = t - t%g.res
		lats[i] = 80 + 200*float64((t/(3*timeutil.MillisPerHour))%3) + 300*g.src.Float64()
		g.seq++
		seqs[i] = g.seq
	}
	sort.Sort(&colSorter{times, lats, seqs})
	return times, lats, seqs
}

// normPair folds every delta into a delta-maintained state and a reference
// Summary, and requires the two estimators to agree after each.
type normPair struct {
	t     *testing.T
	e     *Estimator
	inc   *Incremental
	ref   Summary
	steps int
	total NormalizedStats
	ok    int // steps both sides answered with a curve
}

func (p *normPair) fold(label string, times []timeutil.Millis, lats []float64, seqs []uint64) {
	p.t.Helper()
	if err := p.inc.Fold(times, lats, seqs); err != nil {
		p.t.Fatal(err)
	}
	if err := p.ref.Fold(Columns{Times: times, Lats: lats, Seqs: seqs}); err != nil {
		p.t.Fatal(err)
	}
	p.check(label)
}

func (p *normPair) check(label string) {
	p.t.Helper()
	p.steps++
	got, gotErr := pointOf(p.inc.Finish(Request{Mode: ModeNormalized}))
	want, wantErr := pointOf(p.e.Finish(Request{Mode: ModeNormalized}, summaryOf(p.ref.Times, p.ref.Lats), nil))
	where := fmt.Sprintf("step %d (%s, n=%d)", p.steps, label, p.ref.Len())
	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && (gotErr.Error() != wantErr.Error() ||
			errors.Is(gotErr, ErrUnderIdentified) != errors.Is(wantErr, ErrUnderIdentified))) {
		p.t.Fatalf("%s: incremental error %v, batch error %v", where, gotErr, wantErr)
	}
	last, _, _ := p.inc.NormalizedStats()
	for path, slots := range last {
		p.total[path] += slots
	}
	if gotErr != nil {
		return
	}
	p.ok++
	if !bytes.Equal(curveBytes(p.t, got), curveBytes(p.t, want)) {
		p.t.Fatalf("%s: incremental normalized curve diverged from batch (last %+v)", where, last)
	}
}

// TestIncrementalNormalizedMatchesBatch is the delta-maintained
// time-normalized estimator's property: over seeded schedules of advancing
// arrivals, busy and quiet stretches (quotas grow past the tables' headroom
// and shrink below it), thin hours, backfill that lifts a thin slot over
// MinSlotActions (renumbering every later slot's stream) or lands before
// the first record (re-clipping the first slot), at millisecond and at
// second resolution (tie-heavy), serial and on eight workers, every
// estimate — curve bytes or refusal — equals the batch kernel's over the
// same columns.
func TestIncrementalNormalizedMatchesBatch(t *testing.T) {
	const hour = timeutil.MillisPerHour
	for _, tc := range []struct {
		seed    uint64
		res     timeutil.Millis
		workers int
	}{
		{1, 1, 1}, {2, 1, 8}, {3, 1000, 1}, {4, 1000, 8},
	} {
		t.Run(fmt.Sprintf("seed%d_res%d_workers%d", tc.seed, tc.res, tc.workers), func(t *testing.T) {
			e := testEstimator(t, func(o *Options) { o.Workers = tc.workers })
			g := &normFeed{src: rng.New(tc.seed), res: tc.res}
			p := &normPair{t: t, e: e, inc: e.NewIncremental()}
			p.check("empty")

			// The data clock starts mid-hour, so the first slot is clipped.
			start := 100*hour + 17*60_000
			now := start
			advance := func(label string, d timeutil.Millis, perHour float64) {
				t.Helper()
				ts, ls, qs := g.delta(now, now+d, perHour)
				now += d
				p.fold(label, ts, ls, qs)
			}
			minutes := func() timeutil.Millis { return timeutil.Millis(5+g.src.Intn(25)) * 60_000 }

			advance("too thin to retain", 10*60_000, 30) // ~5 records: no slot reaches 20
			for now < start+7*hour {
				advance("advancing", minutes(), 150)
			}
			for now < start+12*hour { // retained but sparse hours: Σdur grows faster than n
				advance("quiet", minutes(), 26)
			}
			thinFrom := now
			for now < start+15*hour { // thin hours: not retained at all
				advance("thin", minutes(), 6)
			}
			thinTo := now
			for now < start+19*hour { // quotas outgrow the headroom
				advance("busy", minutes(), 900)
			}
			for i := 0; i < 12; i++ { // in-window arrivals: n grows, Σdur does not
				at := start + timeutil.Millis(g.src.Uint64n(uint64(now-start-hour)))
				ts, ls, qs := g.delta(at, at+minutes(), 200)
				p.fold("backfill", ts, ls, qs)
			}
			for at := thinFrom; at < thinTo; at += hour / 2 { // thin slots cross MinSlotActions
				ts, ls, qs := g.delta(at, at+hour/2, 30)
				p.fold("backfill thin", ts, ls, qs)
			}
			ts, ls, qs := g.delta(start-20*60_000, start, 60) // before the first record, same slot
			p.fold("backfill before first", ts, ls, qs)
			ts, ls, qs = g.delta(start-3*hour, start-2*hour, 80) // a new first slot, and a gap
			p.fold("backfill earlier slot", ts, ls, qs)
			for now < start+22*hour {
				advance("advancing again", minutes(), 120)
			}
			p.check("clean re-query")

			t.Logf("%d steps, %d curves, paths %+v", p.steps, p.ok, p.total)
			if p.ok < p.steps/2 {
				t.Fatalf("only %d of %d steps produced a curve: the schedule is not exercising the estimator", p.ok, p.steps)
			}
			if p.total[SlotReused] == 0 || p.total[SlotReswept] == 0 || p.total[SlotRegenerated] == 0 || p.total[SlotFallback] != 0 {
				t.Fatalf("slot paths not all exercised: %+v", p.total)
			}
		})
	}
}

// TestIncrementalNormalizedWorkBound pins what a recompute may redo: a clean
// re-query touches nothing, an in-window fold re-sweeps only the slots it
// landed in, and an advancing fold regenerates at most the slot the clock
// is in and the one it just left.
func TestIncrementalNormalizedWorkBound(t *testing.T) {
	const hour = timeutil.MillisPerHour
	e := testEstimator(t, nil)
	g := &normFeed{src: rng.New(9), res: 1}
	p := &normPair{t: t, e: e, inc: e.NewIncremental()}
	now := 50 * hour
	ts, ls, qs := g.delta(now, now+30*hour, 200)
	now += 30 * hour
	p.fold("seed", ts, ls, qs)
	first, tableBytes, _ := p.inc.NormalizedStats()
	if first[SlotRegenerated] != 30 || tableBytes == 0 {
		t.Fatalf("first estimate: %+v, %d table bytes; want 30 regenerated slots", first, tableBytes)
	}
	if got := p.inc.RetainedBytes(); got < tableBytes {
		t.Fatalf("RetainedBytes %d does not cover %d table bytes", got, tableBytes)
	}
	// ≤ 12 B a retained key and ≤ 1/8 + 16 keys of headroom a slot.
	draws := drawCount(p.ref.Len(), e.opts.UnbiasedPerSample)
	if max := drawEntryBytes * (draws + draws/8 + 30*17); tableBytes > max {
		t.Fatalf("tables hold %d bytes for %d draws, bound %d", tableBytes, draws, max)
	}

	p.check("clean")
	if last, _, _ := p.inc.NormalizedStats(); last != (NormalizedStats{SlotReused: 30}) {
		t.Fatalf("clean re-query: %+v, want 30 reused", last)
	}

	ts, ls, qs = g.delta(60*hour+5*60_000, 60*hour+25*60_000, 90)
	p.fold("in-window", ts, ls, qs)
	if last, _, _ := p.inc.NormalizedStats(); last[SlotReswept] != 1 || last[SlotRegenerated] != 0 {
		t.Fatalf("in-window fold into one slot: %+v, want 1 reswept, 0 regenerated", last)
	}

	for i := 0; i < 40; i++ {
		ts, ls, qs = g.delta(now, now+9*60_000, 200)
		now += 9 * 60_000
		p.fold("advancing", ts, ls, qs)
		if last, _, _ := p.inc.NormalizedStats(); last[SlotRegenerated] > 2 || last[SlotReswept] > 1 {
			t.Fatalf("advancing fold %d: %+v, want ≤ 2 regenerated", i, last)
		}
	}
}

// TestIncrementalNormalizedFallback covers the slots a table cannot hold: a
// slot spanning more than 2^32 ms gives its table up and is filled by the
// batch kernel on every change, still byte-identical.
func TestIncrementalNormalizedFallback(t *testing.T) {
	const day = timeutil.MillisPerDay
	e := testEstimator(t, func(o *Options) { o.SlotDuration = 60 * day })
	g := &normFeed{src: rng.New(13), res: 1}
	p := &normPair{t: t, e: e, inc: e.NewIncremental()}
	ts, ls, qs := g.delta(0, 10*day, 2)
	p.fold("one slot, clipped to a span a table holds", ts, ls, qs)
	if last, bytes, _ := p.inc.NormalizedStats(); last != (NormalizedStats{SlotRegenerated: 1}) || bytes == 0 {
		t.Fatalf("clipped slot: %+v, %d table bytes; want a table", last, bytes)
	}
	ts, ls, qs = g.delta(10*day, 55*day, 2)
	p.fold("the slot grows wide", ts, ls, qs)
	if last, bytes, _ := p.inc.NormalizedStats(); last != (NormalizedStats{SlotFallback: 1}) || bytes != 0 {
		t.Fatalf("wide slot: %+v, %d table bytes; want the table dropped", last, bytes)
	}
	ts, ls, qs = g.delta(55*day, 70*day, 2)
	p.fold("a second, narrow slot", ts, ls, qs)
	ts, ls, qs = g.delta(10*day, 11*day, 5)
	p.fold("backfill into the wide slot", ts, ls, qs)
	p.check("clean")
	if last, bytes, _ := p.inc.NormalizedStats(); last != (NormalizedStats{SlotReused: 2}) || bytes == 0 {
		t.Fatalf("clean re-query: %+v, %d table bytes", last, bytes)
	}
	if p.total[SlotFallback] != 3 || p.ok != p.steps {
		t.Fatalf("paths %+v over %d steps (%d curves); want the wide slot on the fallback path each fold", p.total, p.steps, p.ok)
	}
}

// TestStreamIntactDetectsRejection pins the other reason a slot falls back:
// a rejected raw word shifts every later key, so the tie-break seed of quota
// q no longer sits 2q steps from the stream's origin. Hourly spans reject a
// word in 2^32 at most; a span just past 2^63 rejects every other one.
func TestStreamIntactDetectsRejection(t *testing.T) {
	const g = 4096
	for _, tc := range []struct {
		span   uint64
		intact bool
	}{
		{uint64(timeutil.MillisPerHour), true},
		{math.MaxUint32, true},
		{1<<63 + 1, false},
	} {
		origin := *rng.New(31)
		src := origin
		keys := make([]uint64, g)
		auxSeed := drawKeys(&src, tc.span, keys, nil, false)
		if got := streamIntact(&origin, &src, g); got != tc.intact {
			t.Fatalf("span %d: streamIntact = %v, want %v", tc.span, got, tc.intact)
		}
		// What sweep would seed quota g's tie-breaks with, against the seed
		// the batch kernel takes from the stream itself.
		jump := origin
		jump.Advance(2 * g)
		if got := jump.Uint64() == auxSeed; got != tc.intact {
			t.Fatalf("span %d: jump-ahead seed matches the stream's = %v, want %v", tc.span, got, tc.intact)
		}
	}
}
