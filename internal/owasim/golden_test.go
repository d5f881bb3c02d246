package owasim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// errRefuse is the sink refusal of the refusing golden case and the
// record-cap benchmark.
var errRefuse = errors.New("sink refuses")

// tbinSink returns a sink that encodes every record it is offered as TBIN
// into buf, and refuses the refuseAt-th one (after encoding it) when
// refuseAt > 0.
func tbinSink(buf *bytes.Buffer, refuseAt int) (func(telemetry.Record) error, *telemetry.Writer) {
	w := telemetry.NewWriter(buf, telemetry.TBIN)
	return func(r telemetry.Record) error {
		if err := w.Write(r); err != nil {
			return err
		}
		if refuseAt > 0 && w.Count() == refuseAt {
			return errRefuse
		}
		return nil
	}, w
}

// TestRunBytesGolden pins every record RunTo emits: the SHA-256 of the TBIN
// encoding of the stream, for the default configuration at two seeds, each
// option that changes how a user anticipates or experiences latency, and a
// sink that refuses part-way. A change to the simulator's speed must leave
// every hash as it is. A zero staleness reset makes every EWMA perceiver
// re-sense the true condition (candidates are at least 1 ms apart), so it
// emits the oracle perceiver's stream.
func TestRunBytesGolden(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(2*timeutil.MillisPerDay, 20, 20)
		cfg.Seed = 1
		return cfg
	}
	cases := []struct {
		name     string
		cfg      func() Config
		refuseAt int
		records  int
		want     string
	}{
		{"default/seed1", base, 0, 15276, "ca3ef4d57d583ccb8fc3f8d16ea4a152f9fddfa557a0f80c6bc62c6ec6bd0eb4"},
		{"default/seed2", func() Config { c := base(); c.Seed = 2; return c }, 0, 14771, "0303f3b8970ef8d9494000acc806c41f6ac436483b76985fc5ac6a0182e09f7a"},
		{"ewma-beta-0", func() Config { c := base(); c.EWMABeta = 0; return c }, 0, 15207, "134ded91c0b9273712e3f5f7c8aa4fe9ce5562a9db778042c8660de77a6aeb3a"},
		{"staleness-reset-0", func() Config { c := base(); c.StalenessReset = 0; return c }, 0, 15207, "134ded91c0b9273712e3f5f7c8aa4fe9ce5562a9db778042c8660de77a6aeb3a"},
		{"abtest", func() Config {
			c := base()
			c.ABTest = &ABTestConfig{Fraction: 0.5, AddMS: 400}
			return c
		}, 0, 13851, "c9db8282a7f687e9e74e6df30b0ed6d4d3a601eff852d37cde96994ead92d637"},
		{"regimes", func() Config {
			c := base()
			c.Regimes = &RegimeSchedule{
				LatencyIncidents: []LatencyIncident{{
					Start: 20 * timeutil.MillisPerHour, End: 26 * timeutil.MillisPerHour,
					Severity: 2.5, UserFraction: 0.6,
				}},
				PrefShifts: []PrefShift{{
					Start: 30 * timeutil.MillisPerHour, End: 36 * timeutil.MillisPerHour,
					GammaScale: 1.8,
				}},
			}
			return c
		}, 0, 14378, "49eed63aae9a873d94ca0dc659f606834b48c0f383c575c3532cc0bb33fe6076"},
		{"sink-refuses", base, 4000, 4000, "ac7f92b89155eebc0a62aad59dea5408775481dd8d588c65ae6a471a23a931be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			sink, w := tbinSink(&buf, tc.refuseAt)
			err := RunTo(tc.cfg(), sink, nil)
			if tc.refuseAt > 0 {
				if !errors.Is(err, errRefuse) {
					t.Fatalf("RunTo = %v, want the sink's refusal", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			if w.Count() != tc.records || got != tc.want {
				t.Errorf("%d records, TBIN sha256 %s; want %d records, %s", w.Count(), got, tc.records, tc.want)
			}
		})
	}
}

// BenchmarkRunTo generates a dataset shaped like the end-to-end benchmark's:
// 6 simulated days of 200 business and 200 consumer users, cut off by the
// sink at 320 000 records.
func BenchmarkRunTo(b *testing.B) {
	const records = 320_000
	cfg := DefaultConfig(6*timeutil.MillisPerDay, 200, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		err := RunTo(cfg, func(telemetry.Record) error {
			n++
			if n == records {
				return errRefuse
			}
			return nil
		}, nil)
		if !errors.Is(err, errRefuse) {
			b.Fatalf("RunTo = %v after %d records, want the cap at %d", err, n, records)
		}
	}
}
