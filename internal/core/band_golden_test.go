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
// any shortcut that changes a single bound fails here.
func TestNormalizedBandBytesGolden(t *testing.T) {
	owaTimes, owaLats := owasimColumns(t, 3, 25, 25, 23)
	// The shape of the batch CLI's -action SelectMail -ci: four days of
	// 200 business and 200 consumer users, 40 replicates of 6 h blocks.
	ciTimes, ciLats := owasimColumns(t, 4, 200, 200, 23)
	tieTimes, tieLats := tieColumns(5, -1000, 48)
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
