package cluster

import (
	"bytes"
	"testing"

	"autosens/internal/live"
	"autosens/internal/rng"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// genTieHeavyStream draws times from a tiny horizon so nearly every
// record shares its timestamp with many others — the regime where the
// (time, seq) tie-break carries the whole ordering and any merge bug
// shows up as curve divergence.
func genTieHeavyStream(seed uint64, n int) []telemetry.Record {
	src := rng.New(seed)
	out := make([]telemetry.Record, n)
	for i := range out {
		out[i] = telemetry.Record{
			Time:      timeutil.Millis(src.Uint64n(40)) * timeutil.MillisPerHour / 4,
			Action:    telemetry.ActionType(src.Intn(telemetry.NumActionTypes)),
			LatencyMS: 100 + 50*float64(src.Intn(12)),
			UserID:    uint64(src.Intn(97)) + 1,
			UserType:  telemetry.UserType(src.Intn(telemetry.NumUserTypes)),
		}
	}
	return out
}

// partition describes one way of splitting users across nodes.
type partition struct {
	name  string
	nodes int
	owner func(userID uint64) int
}

// TestMergePartitionInvariance is the property test: however users are
// partitioned across nodes — balanced, skewed, or with entirely empty
// nodes — and in whatever order the coordinator's sources are listed, the
// merged curve is byte-identical to a single node holding everything.
func TestMergePartitionInvariance(t *testing.T) {
	streams := map[string][]telemetry.Record{
		"tie-heavy": genTieHeavyStream(7, 8000),
		"generic":   genStream(8, 6000, timeutil.MillisPerDay),
	}
	parts := []partition{
		{name: "mod2", nodes: 2, owner: func(u uint64) int { return int(u % 2) }},
		{name: "mod5", nodes: 5, owner: func(u uint64) int { return int(u % 5) }},
		{name: "skewed-90-10", nodes: 2, owner: func(u uint64) int {
			if u%10 == 0 {
				return 1
			}
			return 0
		}},
		{name: "one-empty", nodes: 3, owner: func(u uint64) int { return int(u % 2) }},
		{name: "all-on-one", nodes: 4, owner: func(uint64) int { return 2 }},
	}
	keys := []live.SliceKey{
		live.AllSlices,
		{Action: telemetry.Search, UserType: -1, Period: -1},
	}

	for sname, stream := range streams {
		single := newEngine(t, nil)
		single.Append(stream)
		want := map[live.SliceKey]*live.Result{}
		for _, key := range keys {
			res, err := single.Query(key, live.ModePlain, false)
			if err != nil {
				t.Fatalf("%s single %s: %v", sname, key, err)
			}
			want[key] = res
		}

		for _, p := range parts {
			engines := make([]*live.Engine, p.nodes)
			srcs := make([]PartialSource, p.nodes)
			for i := range engines {
				node := i
				engines[i] = newEngine(t, func(u uint64) bool {
					return p.owner(u) == node
				})
				appendStream(t, engines[i], stream)
				srcs[i] = LocalNode{Engine: engines[i]}
			}
			// Source order must not matter: (time, seq) is globally unique
			// under shared-stream seq slots, so reversing the fan-in changes
			// nothing. Run both orders.
			orders := map[string][]PartialSource{
				"fwd": srcs,
				"rev": reversed(srcs),
			}
			for oname, order := range orders {
				coord, err := NewCoordinator(CoordinatorConfig{
					Sources:      order,
					Options:      testOptions(),
					PollInterval: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range keys {
					got, err := coord.Query(key, live.ModePlain, false)
					if err != nil {
						t.Fatalf("%s/%s/%s %s: %v", sname, p.name, oname, key, err)
					}
					if got.Records != want[key].Records {
						t.Fatalf("%s/%s/%s %s: records %d != %d",
							sname, p.name, oname, key, got.Records, want[key].Records)
					}
					if !bytes.Equal(got.Curve, want[key].Curve) {
						t.Fatalf("%s/%s/%s %s: merged curve differs from single node",
							sname, p.name, oname, key)
					}
				}
			}
		}
	}
}

func reversed(s []PartialSource) []PartialSource {
	out := make([]PartialSource, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}
