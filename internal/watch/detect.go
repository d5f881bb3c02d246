// Drift and incident detection over live-store slice snapshots.
//
// Two detectors mirror the two regime kinds owasim can plant:
//
//   - NLP drift: the rolling-window sensitivity series (core.RollingColumns)
//     moved away from its own history. Benamara & Magnien (PAPERS.md) show
//     finite-window preference estimates carry bias that shrinks with sample
//     size, so the detection threshold is CI-aware: a floor plus a term that
//     widens as the effective sample behind the probe's latency bin shrinks.
//     A probe resting on thin tail data has to move much further than one in
//     the latency bulk to alert.
//
//   - Latency incident: per-user-shard recent-vs-baseline latency ratios.
//     Sharma et al. observe that real latency anomalies are frequently shared
//     across users, so when at least CorrelatedFraction of eligible shards
//     regress together the detector collapses them into ONE fleet-level
//     condition (one stable dedupe key) instead of a per-shard alert storm;
//     isolated regressions stay shard-scoped.
package watch

import (
	"fmt"
	"math"
	"strconv"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/stats"
	"autosens/internal/timeutil"
)

// DriftConfig tunes the NLP drift detector.
type DriftConfig struct {
	// Rolling configures the sliding-window series the detector runs on.
	// Zero value selects DefaultDriftRolling().
	Rolling core.RollingOptions
	// BaselineWindows is the minimum number of estimated history windows
	// needed before detection starts (default 4).
	BaselineWindows int
	// RecentWindows is how many trailing windows must all deviate from the
	// baseline in the same direction to raise a condition (default 3 —
	// one outlier window never alerts). Their evidence is pooled: the
	// MEAN deviation is judged against a threshold whose error term
	// shrinks with the summed effective sample size.
	RecentWindows int
	// MinDelta is the floor on the mean NLP deviation (default 0.05);
	// smaller movements never alert no matter how tight the CI.
	MinDelta float64
	// Z scales the finite-window standard error added to MinDelta
	// (default 2). The threshold on the mean recent deviation is
	// MinDelta + Z * 0.5/sqrt(Σn), where Σn sums the effective sample
	// sizes behind the probe's bin over the recent windows
	// (core.RollingSeries.ProbeN) — a probe on the latency tail gets a
	// wider band than one in the bulk.
	Z float64
}

// DefaultDriftRolling returns the watcher's rolling options: daily windows
// sliding by 6 h — short enough to catch an operationally relevant shift
// within hours, long enough that a window holds a stable estimate. The
// windows are time-normalized (the paper's §2.4.1 α correction): raw
// per-window NLP absorbs diurnal and weekly activity structure into the
// estimate, which reads as spurious drift; the correction removes exactly
// that confound, so window-over-window movement reflects preference, not
// calendar.
func DefaultDriftRolling() core.RollingOptions {
	return core.RollingOptions{
		Window:         timeutil.MillisPerDay,
		Step:           6 * timeutil.MillisPerHour,
		Probes:         []float64{500, 1000},
		TimeNormalized: true,
		MinRecords:     500,
	}
}

func (c *DriftConfig) setDefaults() {
	if c.Rolling.Window == 0 && c.Rolling.Step == 0 && len(c.Rolling.Probes) == 0 {
		c.Rolling = DefaultDriftRolling()
	}
	if c.BaselineWindows == 0 {
		c.BaselineWindows = 4
	}
	if c.RecentWindows == 0 {
		c.RecentWindows = 3
	}
	if c.MinDelta == 0 {
		c.MinDelta = 0.05
	}
	if c.Z == 0 {
		c.Z = 2
	}
}

func (c DriftConfig) validate() error {
	if err := c.Rolling.Validate(); err != nil {
		return err
	}
	if c.BaselineWindows < 1 || c.RecentWindows < 1 {
		return fmt.Errorf("watch: baseline/recent window counts must be positive")
	}
	if c.MinDelta < 0 || c.Z < 0 {
		return fmt.Errorf("watch: negative drift threshold")
	}
	return nil
}

// driftSE is the finite-window standard-error proxy for an NLP value
// whose probe bin rests on an effective sample of n records: the
// conservative binomial half-width 0.5/√n.
func driftSE(n float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return 0.5 / math.Sqrt(n)
}

// detectDrift runs the rolling series over the slice's merged columns and
// compares the trailing windows against the median of the earlier ones.
// Returns nil when the series is too short or too thin to judge.
func detectDrift(est *core.Estimator, slice string, snap *live.SliceSnapshot, cfg DriftConfig) ([]condition, *core.RollingSeries) {
	series, err := est.RollingColumns(snap.Times, snap.Lats, cfg.Rolling)
	if err != nil {
		return nil, nil // thin or unusable data: nothing to judge yet
	}
	w := len(series.WindowStart)
	if w < cfg.BaselineWindows+cfg.RecentWindows {
		return nil, series
	}
	var conds []condition
	for j, probe := range series.Probes {
		base := make([]float64, 0, w-cfg.RecentWindows)
		for i := 0; i < w-cfg.RecentWindows; i++ {
			if v := series.NLP[i][j]; !math.IsNaN(v) {
				base = append(base, v)
			}
		}
		if len(base) < cfg.BaselineWindows {
			continue
		}
		baseline, err := stats.Median(base)
		if err != nil {
			continue
		}
		// Every trailing window must deviate in the same direction, and
		// their pooled mean must clear the CI-aware threshold. Pooling
		// trades a little detection latency for a much better-conditioned
		// statistic than any single window provides.
		sum, pooledN := 0.0, 0.0
		dir, ok := 0, true
		for i := w - cfg.RecentWindows; i < w; i++ {
			v := series.NLP[i][j]
			if math.IsNaN(v) {
				ok = false
				break
			}
			d := v - baseline
			s := 1
			if d < 0 {
				s = -1
			}
			if dir != 0 && s != dir {
				ok = false
				break
			}
			dir = s
			sum += d
			pooledN += series.ProbeN[i][j]
		}
		if !ok {
			continue
		}
		dev := sum / float64(cfg.RecentWindows)
		thr := cfg.MinDelta + cfg.Z*driftSE(pooledN)
		if math.Abs(dev) <= thr {
			continue
		}
		sev := api.SeverityWarning
		if math.Abs(dev) > 2*thr {
			sev = api.SeverityCritical
		}
		last := w - 1
		conds = append(conds, condition{
			id:        "nlp_drift:" + slice + ":p" + strconv.FormatFloat(probe, 'g', -1, 64),
			typ:       api.AlertNLPDrift,
			slice:     slice,
			severity:  sev,
			value:     dev,
			threshold: thr,
			dataTime:  series.WindowStart[last] + cfg.Rolling.Window,
			message: fmt.Sprintf("NLP@%gms drifted %+.3f from baseline %.3f (threshold %.3f, mean of %d windows)",
				probe, dev, baseline, thr, cfg.RecentWindows),
		})
	}
	return conds, series
}

// IncidentConfig tunes the correlated latency-incident detector.
type IncidentConfig struct {
	// Window is the recent interval judged against the baseline, measured
	// back from the newest record's time (default 3 h).
	Window timeutil.Millis
	// Baseline is the lookback interval immediately before Window that
	// provides each shard's reference latency (default 24 h).
	Baseline timeutil.Millis
	// Factor is the recent/baseline median latency ratio at which a shard
	// counts as regressed (default 1.6).
	Factor float64
	// MinShardRecords is the minimum record count a shard needs in both
	// intervals to be judged at all (default 50).
	MinShardRecords int
	// CorrelatedFraction is the fraction of eligible shards that must
	// regress together for the fleet-level collapse (default 0.5).
	CorrelatedFraction float64
	// MinShards is the minimum number of eligible shards for the
	// correlation rule to apply (default 3); below it every regressed
	// shard alerts individually.
	MinShards int
}

func (c *IncidentConfig) setDefaults() {
	if c.Window == 0 {
		c.Window = 3 * timeutil.MillisPerHour
	}
	if c.Baseline == 0 {
		c.Baseline = 24 * timeutil.MillisPerHour
	}
	if c.Factor == 0 {
		c.Factor = 1.6
	}
	if c.MinShardRecords == 0 {
		c.MinShardRecords = 50
	}
	if c.CorrelatedFraction == 0 {
		c.CorrelatedFraction = 0.5
	}
	if c.MinShards == 0 {
		c.MinShards = 3
	}
}

func (c IncidentConfig) validate() error {
	if c.Window <= 0 || c.Baseline <= 0 {
		return fmt.Errorf("watch: non-positive incident window")
	}
	if c.Factor <= 1 {
		return fmt.Errorf("watch: incident factor must exceed 1")
	}
	if c.MinShardRecords < 1 || c.MinShards < 1 {
		return fmt.Errorf("watch: incident minimums must be positive")
	}
	if c.CorrelatedFraction <= 0 || c.CorrelatedFraction > 1 {
		return fmt.Errorf("watch: correlated fraction out of (0,1]")
	}
	return nil
}

// shardRatio is one shard's recent-vs-baseline verdict.
type shardRatio struct {
	shard int
	ratio float64
}

// detectIncident compares each shard's recent median latency against its
// own baseline and collapses correlated regressions into one fleet
// condition. Detection is anchored at the newest record time, never wall
// clock, so replayed histories score identically.
func detectIncident(slice string, snap *live.SliceSnapshot, cfg IncidentConfig) []condition {
	if len(snap.Times) == 0 {
		return nil
	}
	now := snap.Times[len(snap.Times)-1]
	recentLo := now - cfg.Window
	baseLo := recentLo - cfg.Baseline

	eligible := 0
	var flagged []shardRatio
	for si, sh := range snap.Shards {
		if sh.Len() == 0 {
			continue
		}
		// Columns are time-sorted; the two intervals are contiguous ranges.
		b0, _ := sh.Range(baseLo, 0)
		r0, _ := sh.Range(recentLo, 0)
		base := sh.Lats[b0:r0]
		recent := sh.Lats[r0:]
		if len(base) < cfg.MinShardRecords || len(recent) < cfg.MinShardRecords {
			continue
		}
		eligible++
		bm, err1 := stats.Median(base)
		rm, err2 := stats.Median(recent)
		if err1 != nil || err2 != nil || bm <= 0 {
			continue
		}
		if ratio := rm / bm; ratio >= cfg.Factor {
			flagged = append(flagged, shardRatio{shard: si, ratio: ratio})
		}
	}
	if len(flagged) == 0 {
		return nil
	}

	need := int(math.Ceil(cfg.CorrelatedFraction * float64(eligible)))
	if eligible >= cfg.MinShards && len(flagged) >= need {
		// Correlated: one fleet-level condition with a stable dedupe key, so
		// a fleet-wide regression is exactly one alert however many shards
		// (or ticks) it spans.
		ratios := make([]float64, len(flagged))
		for i, f := range flagged {
			ratios[i] = f.ratio
		}
		med, _ := stats.Median(ratios)
		sev := api.SeverityWarning
		if med >= 1.5*cfg.Factor || len(flagged) == eligible {
			sev = api.SeverityCritical
		}
		return []condition{{
			id:        "latency_incident:" + slice,
			typ:       api.AlertLatencyIncident,
			slice:     slice,
			severity:  sev,
			value:     med,
			threshold: cfg.Factor,
			dataTime:  now,
			message: fmt.Sprintf("correlated latency regression: %d/%d shards at median %.2fx baseline (threshold %.2fx)",
				len(flagged), eligible, med, cfg.Factor),
		}}
	}

	// Uncorrelated: shard-scoped conditions only.
	conds := make([]condition, 0, len(flagged))
	for _, f := range flagged {
		conds = append(conds, condition{
			id:        "shard_latency:" + slice + ":shard" + strconv.Itoa(f.shard),
			typ:       api.AlertShardLatency,
			slice:     slice,
			severity:  api.SeverityWarning,
			value:     f.ratio,
			threshold: cfg.Factor,
			dataTime:  now,
			message: fmt.Sprintf("shard %d latency at %.2fx its baseline (threshold %.2fx, %d/%d shards affected)",
				f.shard, f.ratio, cfg.Factor, len(flagged), eligible),
		})
	}
	return conds
}
