package live

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"autosens/internal/core"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// TestConcurrentIngestQueryRollover drives concurrent appenders and
// queriers across modes — every query forces cache checks and most force
// epoch rollovers (recomputes) since appends dirty the combos constantly.
// Run under -race (the race-live CI job) this pins the engine's locking;
// the final checks pin that the end state still answers byte-identically
// to batch.
func TestConcurrentIngestQueryRollover(t *testing.T) {
	const (
		appenders = 4
		queriers  = 4
		batches   = 24
		batchSize = 250
	)
	e := newTestEngine(t)

	// Pre-generate each appender's stream so the concurrent phase does no
	// shared rng work; the combined stream (in a known order) feeds the
	// batch reference afterwards. Record times are de-duplicated across
	// ALL streams: with unique times the global (time, seq) sort is
	// independent of how the scheduler interleaved the appends, so the
	// end-state curve is comparable across engines bit for bit.
	streams := make([][]telemetry.Record, appenders)
	seen := make(map[timeutil.Millis]bool)
	for a := range streams {
		s := genStream(uint64(100+a), batches*batchSize, 2*timeutil.MillisPerDay)
		for i := range s {
			for seen[s[i].Time] {
				s[i].Time++
			}
			seen[s[i].Time] = true
		}
		streams[a] = s
	}

	keys := []SliceKey{
		AllSlices,
		{Action: telemetry.SelectMail, UserType: -1, Period: -1},
		{Action: -1, UserType: telemetry.Consumer, Period: -1},
		{Action: -1, UserType: -1, Period: timeutil.Period8pm2am},
	}

	// Queriers run from the first append on. A store still too thin for the
	// method gets the estimator's typed refusal; once a quarter of the
	// records were in before the query began, a refusal is a failure.
	var appended atomic.Int64
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(stream []telemetry.Record) {
			defer wg.Done()
			for lo := 0; lo < len(stream); lo += batchSize {
				e.Append(stream[lo : lo+batchSize])
				appended.Add(batchSize)
			}
		}(streams[a])
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			mode := ModePlain
			if q%2 == 1 {
				mode = ModeNormalized
			}
			for i := 0; i < 30; i++ {
				key := keys[(q+i)%len(keys)]
				thin := appended.Load() < appenders*batches*batchSize/4
				_, err := e.Query(key, mode, false)
				if err != nil && err != ErrNoRecords &&
					!(thin && errors.Is(err, core.ErrUnderIdentified)) {
					t.Errorf("concurrent query %s/%s: %v", key, mode, err)
					return
				}
			}
		}(q)
	}
	wg.Wait()

	if t.Failed() {
		return
	}

	// Quiesced correctness: ack order was scheduler-dependent, but times
	// are globally unique, so the (time, seq) sort collapses to the time
	// sort and the end-state curve must be bit-identical to a second
	// engine fed the same records sequentially — and to a batch run.
	ref := newTestEngine(t)
	for _, s := range streams {
		ref.Append(s)
	}
	refRecords := make([]telemetry.Record, 0, appenders*batches*batchSize)
	for _, s := range streams {
		refRecords = append(refRecords, s...)
	}
	for _, key := range keys {
		got, err := e.Query(key, ModePlain, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(key, ModePlain, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Curve, got.Curve) {
			t.Fatalf("post-race curve %s differs from sequential engine", key)
		}
		batch := batchCurve(t, refRecords, key, ModePlain)
		if !bytes.Equal(batch, want.Curve) {
			t.Fatalf("sequential engine curve %s differs from batch", key)
		}
	}
}
