package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"autosens/internal/owasim"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// owasimColumns is a simulated SelectMail stream as the usable, time-sorted
// columns the bootstrap takes.
func owasimColumns(t testing.TB, days, business, consumer int, seed uint64) ([]timeutil.Millis, []float64) {
	t.Helper()
	cfg := owasim.DefaultConfig(timeutil.Millis(days)*timeutil.MillisPerDay, business, consumer)
	cfg.Seed = seed
	res, err := owasim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return UsableColumns(telemetry.ByAction(res.Records, telemetry.SelectMail))
}

// tieColumns is a tie-heavy stream for 64 ms slots: records sit on even
// instants only, several to an instant, so draws keep landing on
// equal-timestamp runs and — at odd offsets — on exact midpoints. The
// window starts at lo, so a negative lo spans Go's truncating t/dur at 0.
func tieColumns(seed uint64, lo timeutil.Millis, slots int) ([]timeutil.Millis, []float64) {
	src := rng.New(seed)
	var times []timeutil.Millis
	var lats []float64
	for t := lo &^ 1; t < lo+timeutil.Millis(64*slots); t += 2 {
		for k := src.Poisson(1.2); k > 0; k-- {
			times = append(times, t)
			slow := ((t - lo) / 128 % 3) == 0
			lat := 120 + 60*src.LogNormal(0, 0.5)
			if slow {
				lat *= 2.5
			}
			lats = append(lats, lat)
		}
	}
	return times, lats
}

// tieEstimator is the estimator the tie-heavy fixture is analysed with.
func tieEstimator(t testing.TB, workers int) *Estimator {
	t.Helper()
	e, err := NewEstimator(tieOptions(workers))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func tieOptions(workers int) Options {
	o := DefaultOptions()
	o.SlotDuration = 64
	o.MinSlotActions = 20
	o.Workers = workers
	return o
}

// bandBytes is every number a band carries, in a fixed binary layout.
func bandBytes(ci *CurveCI) []byte {
	var b []byte
	f64 := func(xs ...float64) {
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	f64(ci.BinCenters...)
	f64(ci.Biased...)
	f64(ci.Unbiased...)
	f64(ci.Raw...)
	f64(ci.Smoothed...)
	f64(ci.NLP...)
	for _, v := range ci.Valid {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	f64(ci.Lower...)
	f64(ci.Upper...)
	f64(ci.ReferenceMS, float64(ci.BiasedN), float64(ci.UnbiasedN), float64(ci.Replicates))
	return b
}

// TestNormalizedBandBytesGolden pins the time-normalized bootstrap band,
// point curve and bounds alike, at several worker counts: the hashes were
// recorded when every replicate reran the batch estimator from scratch, so
// any shortcut that changes a single bound fails here. The owasim-* cases
// after ties were recorded before replicates were slotted from their block
// picks: an empty block position, blocks on the slot grid, 5 h blocks (five
// slots a block), 90 min blocks (which do not tile into slots) and a window
// across Go's truncating t/dur at 0.
func TestNormalizedBandBytesGolden(t *testing.T) {
	owaTimes, owaLats := owasimColumns(t, 3, 25, 25, 23)
	// The shape of the batch CLI's -action SelectMail -ci: four days of
	// 200 business and 200 consumer users, 40 replicates of 6 h blocks.
	ciTimes, ciLats := owasimColumns(t, 4, 200, 200, 23)
	tieTimes, tieLats := tieColumns(5, -1000, 48)
	const h = timeutil.MillisPerHour
	// A 9 h gap, longer than a block, so one block position is empty.
	var gapTimes []timeutil.Millis
	var gapLats []float64
	for i, tm := range owaTimes {
		if tm-owaTimes[0] < 30*h || tm-owaTimes[0] >= 39*h {
			gapTimes, gapLats = append(gapTimes, tm), append(gapLats, owaLats[i])
		}
	}
	// The first record exactly on an hour, so blocks start on the slot grid
	// and no slot straddles a block edge; and the window moved across 0.
	onHour := make([]timeutil.Millis, len(owaTimes))
	across0 := make([]timeutil.Millis, len(owaTimes))
	for i, tm := range owaTimes {
		onHour[i] = tm - owaTimes[0]%h + 2*h
		across0[i] = tm - 30*h - 1234
	}
	owaOpts := func(w int) Options {
		o := DefaultOptions()
		o.MinSlotActions = 10
		o.Workers = w
		return o
	}
	cases := []struct {
		name      string
		times     []timeutil.Millis
		lats      []float64
		opts      func(workers int) Options
		blockLen  timeutil.Millis
		resamples int
		want      string
	}{
		{"owasim", owaTimes, owaLats, func(w int) Options {
			o := DefaultOptions()
			o.MinSlotActions = 10
			o.Workers = w
			return o
		}, 6 * timeutil.MillisPerHour, 10,
			"a828f5336e538d6520ab5fc42724ab9b1901c398e02567da1af9ba40f0d8375c"},
		{"owasim-ci", ciTimes, ciLats, func(w int) Options {
			o := DefaultOptions()
			o.Workers = w
			return o
		}, 6 * timeutil.MillisPerHour, 40,
			"d1effcdb07e22052fb43f32c54bc907bcfe9fd94f53760f394985fa39f648afd"},
		{"ties", tieTimes, tieLats, tieOptions, 6 * 64, 10,
			"6801889f182ef5f9876214e2fbf148efe02d9febdbdaf65bcbfe11a8993b5604"},
		{"owasim-gap", gapTimes, gapLats, owaOpts, 6 * h, 10,
			"0ddffc9e10a13e8fdc50cb6f5dea4428eee0da1410a4c6ff263796707bd52ed5"},
		{"owasim-on-hour", onHour, owaLats, owaOpts, 6 * h, 10,
			"b325fec5f68308cde0322e9e1002d2362d9f9c08c26258dcb1d89639dba9e42f"},
		{"owasim-5h", owaTimes, owaLats, owaOpts, 5 * h, 10,
			"e07ee824bcc19118fd1d7fb34561de30a6af6d1da507eefd6b5fa2b05ec758bb"},
		{"owasim-90min", owaTimes, owaLats, owaOpts, 90 * timeutil.MillisPerMinute, 10,
			"74c37858653381ff22e0d958d46687d9a12056201f1505a82db9812ec372d2ac"},
		{"owasim-across-0", across0, owaLats, owaOpts, 6 * h, 10,
			"016c336c862db126baae248fc870b599355b3affd68dedb1090e29e29b694352"},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2, 8} {
			e, err := NewEstimator(c.opts(w))
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultCIOptions()
			opts.TimeNormalized = true
			opts.Resamples = c.resamples
			opts.BlockLen = c.blockLen
			opts.Workers = w
			ci, err := e.Finish(bandRequest(opts), summaryOf(c.times, c.lats), nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, w, err)
			}
			supported := 0
			for _, lo := range ci.Lower {
				if !math.IsNaN(lo) {
					supported++
				}
			}
			if supported == 0 {
				t.Fatalf("%s workers=%d: no bin has a band", c.name, w)
			}
			sum := sha256.Sum256(bandBytes(ci))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("%s workers=%d: band sha256 = %s, want %s (%d records, %d replicates)",
					c.name, w, got, c.want, len(c.times), ci.Replicates)
			}
		}
	}
}
