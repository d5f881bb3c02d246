package core

import (
	"bytes"
	"sort"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

// fuzzSchedule decodes fuzz bytes into a fold schedule. Each pair of bytes
// (op, size) is one delta of 1 + size records: op%3 picks where it lands —
// advancing past the newest record, backfilled inside the held window, or
// before the oldest record (moving the window's start) — and op/3 how long
// a stretch of time it covers, in 5-minute steps. Times are rounded down to
// multiples of res, so a coarse res makes heavy timestamp ties. Seqs
// increase across the whole schedule, as ack order does.
type fuzzSchedule struct {
	src      *rng.Source
	res      timeutil.Millis
	seq      uint64
	min, max timeutil.Millis
}

func (g *fuzzSchedule) delta(op, size byte) Columns {
	n := 1 + int(size)
	span := timeutil.Millis(op/3%16+1) * 5 * timeutil.MillisPerMinute
	first := g.seq == 0
	from := g.max
	switch {
	case first:
		from = 100 * timeutil.MillisPerHour
	case op%3 == 1:
		from, span = g.min, g.max-g.min+1
	case op%3 == 2:
		from = g.min - span
	}
	var d Columns
	for i := 0; i < n; i++ {
		t := from + timeutil.Millis(g.src.Uint64n(uint64(span)))
		t -= t % g.res
		g.seq++
		d.Times = append(d.Times, t)
		d.Lats = append(d.Lats, 60+1400*g.src.Float64()*g.src.Float64())
		d.Seqs = append(d.Seqs, g.seq)
	}
	sort.Sort(&d)
	if first || d.Times[0] < g.min {
		g.min = d.Times[0]
	}
	if first || d.Times[n-1] > g.max {
		g.max = d.Times[n-1]
	}
	return d
}

// fuzzRequests is every (mode, ci) pair, including the ones refused.
func fuzzRequests(opts CIOptions) []Request {
	var reqs []Request
	for m := ModePlain; m < numModes; m++ {
		reqs = append(reqs, Request{Mode: m}, Request{Mode: m, CI: true, CIOptions: opts})
	}
	return reqs
}

// FuzzIncrementalMatchesBatch folds a decoded schedule into an Incremental
// and, after every fold and for every mode × ci request, requires
// Incremental.Finish to give the curve and band bytes — or the error text —
// that the stateless Finish gives over inc.Columns(). The seeds replay
// TestIncrementalNormalizedMatchesBatch's table: seeds 1–4 at millisecond
// and second resolution, serial and on eight workers.
func FuzzIncrementalMatchesBatch(f *testing.F) {
	// A thin first delta, advancing deltas, in-window backfill, a delta
	// before the first record and one more advance.
	schedule := []byte{0, 4, 6, 200, 9, 150, 3, 255, 1, 120, 4, 60, 2, 40, 0, 200}
	for _, tc := range []struct {
		seed    uint64
		res     uint16
		workers uint8
	}{{1, 1, 0}, {2, 1, 2}, {3, 1000, 0}, {4, 1000, 2}} {
		f.Add(tc.seed, tc.res, tc.workers, schedule)
	}
	f.Fuzz(func(t *testing.T, seed uint64, res uint16, workers uint8, schedule []byte) {
		if len(schedule) > 16 {
			schedule = schedule[:16] // bounds one input's work
		}
		w := []int{1, 2, 8}[workers%3]
		o := DefaultOptions()
		o.BinWidthMS = 50
		o.SGWindow = 21
		o.SlotDuration = 10 * timeutil.MillisPerMinute
		o.Seed = seed
		o.Workers = w
		e, err := NewEstimator(o)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultCIOptions()
		opts.Resamples = 3
		opts.BlockLen = 20 * timeutil.MillisPerMinute
		opts.Seed = seed
		opts.Workers = w
		reqs := fuzzRequests(opts)

		g := &fuzzSchedule{src: rng.New(seed), res: timeutil.Millis(res%5000) + 1}
		inc := e.NewIncremental()
		for step := 0; step+1 < len(schedule); step += 2 {
			d := g.delta(schedule[step], schedule[step+1])
			if err := inc.Fold(d.Times, d.Lats, d.Seqs); err != nil {
				t.Fatal(err)
			}
			times, lats := inc.Columns()
			for _, req := range reqs {
				got, gotErr := inc.Finish(req)
				want, wantErr := e.Finish(req, &Summary{Columns: Columns{Times: times, Lats: lats}}, nil)
				if gotErr != nil || wantErr != nil {
					if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("fold %d (n=%d) %v ci=%v: incremental error %v, stateless error %v",
							step/2, len(times), req.Mode, req.CI, gotErr, wantErr)
					}
					continue
				}
				if !bytes.Equal(curveBytes(t, got.Curve), curveBytes(t, want.Curve)) {
					t.Fatalf("fold %d (n=%d) %v ci=%v: curves differ", step/2, len(times), req.Mode, req.CI)
				}
				gb, err := got.MarshalBoundsJSON()
				if err != nil {
					t.Fatal(err)
				}
				wb, err := want.MarshalBoundsJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("fold %d (n=%d) %v ci=%v: bands differ", step/2, len(times), req.Mode, req.CI)
				}
			}
		}
	})
}
