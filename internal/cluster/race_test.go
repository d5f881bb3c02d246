package cluster

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/timeutil"
	"autosens/internal/wal"
)

// swapSource is a PartialSource whose engine can be replaced at runtime —
// the test's model of a node process restarting: queries racing the
// restart see either the old engine or the freshly warmed one, never a
// torn mix.
type swapSource struct {
	e atomic.Pointer[live.Engine]
}

func (s *swapSource) PartialWindow(key live.SliceKey, win live.Window) (*api.Partial, error) {
	return s.e.Load().PartialWindow(key, win)
}

func (s *swapSource) PartialVersion(key live.SliceKey) (uint64, error) {
	return s.e.Load().SliceVersion(key), nil
}

// TestClusterConcurrentIngestQueryRestart is the -race workout: three
// nodes ingest one shared stream under ownership filters while a
// coordinator scatter-gathers queries and one node is repeatedly killed
// and re-warmed from the WAL. After the dust settles, a final re-warm of
// every node must serve curves byte-identical to a single engine warmed
// from the same WAL.
func TestClusterConcurrentIngestQueryRestart(t *testing.T) {
	stream := genStream(21, 9000, 2*timeutil.MillisPerDay)
	dir := t.TempDir()
	w, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}

	ring := mustRing(t, []string{"n1", "n2", "n3"}, 32)
	nodes := make([]*swapSource, 3)
	srcs := make([]PartialSource, 3)
	for i := range nodes {
		nodes[i] = &swapSource{}
		nodes[i].e.Store(newEngine(t, ring.Owns(i)))
		srcs[i] = nodes[i]
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Sources:      srcs,
		Options:      testOptions(),
		PollInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		writers sync.WaitGroup // ingest + restarts
		readers sync.WaitGroup // query goroutines, stopped after writers finish
		stop    = make(chan struct{})
		walMu   sync.Mutex // serializes Append vs the restart goroutine's replay cut
		// ingested counts the stream records every node has been offered.
		ingested atomic.Int64
	)

	// Ingest: durable write first, then every node's current engine.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for lo := 0; lo < len(stream); lo += 300 {
			hi := lo + 300
			if hi > len(stream) {
				hi = len(stream)
			}
			walMu.Lock()
			if err := w.Append(stream[lo:hi]); err != nil {
				walMu.Unlock()
				t.Error(err)
				return
			}
			for i := range nodes {
				nodes[i].e.Load().Append(stream[lo:hi])
			}
			ingested.Store(int64(hi))
			walMu.Unlock()
		}
	}()

	// Queries: hammer the coordinator across slices from the very start, so
	// they overlap every engine swap. While a slice is still a few hundred
	// records thin the estimator's typed refusal is the right answer; once a
	// third of the stream was in before the query began it is a failure.
	for q := 0; q < 2; q++ {
		readers.Add(1)
		go func(q int) {
			defer readers.Done()
			keys := []live.SliceKey{live.AllSlices, goldenKeys[1+q]}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[i%len(keys)]
				if i%7 == 0 {
					coord.Refresh(key)
				}
				thin := ingested.Load() < int64(len(stream)/3)
				_, err := coord.Query(key, live.ModePlain, false)
				if err != nil && !errors.Is(err, live.ErrNoRecords) &&
					!(thin && errors.Is(err, core.ErrUnderIdentified)) {
					t.Errorf("query %s: %v", key, err)
					return
				}
			}
		}(q)
	}

	// Restarts: node n2 dies and re-warms from the WAL a few times while
	// ingest and queries run. The replay races ongoing appends (wal.Replay
	// is documented safe on a live directory); records between the replay
	// cut and the swap may be missing from the reborn node, which the
	// final full re-warm below repairs — exactly a real node's catch-up.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for r := 0; r < 3; r++ {
			e := newEngine(t, ring.Owns(1))
			walMu.Lock()
			if _, err := e.Warm(dir); err != nil {
				walMu.Unlock()
				t.Error(err)
				return
			}
			nodes[1].e.Store(e)
			walMu.Unlock()
		}
	}()

	writers.Wait() // ingest and restarts done
	close(stop)
	readers.Wait()

	// Settle: rebuild every node from the durable log, then the cluster
	// must agree byte for byte with a single node over the same WAL.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		e := newEngine(t, ring.Owns(i))
		if _, err := e.Warm(dir); err != nil {
			t.Fatal(err)
		}
		nodes[i].e.Store(e)
	}
	single := newEngine(t, nil)
	if _, err := single.Warm(dir); err != nil {
		t.Fatal(err)
	}
	for _, key := range goldenKeys[:3] {
		coord.Refresh(key)
		want, err := single.Query(key, live.ModePlain, false)
		if err != nil {
			t.Fatalf("single %s: %v", key, err)
		}
		got, err := coord.Query(key, live.ModePlain, false)
		if err != nil {
			t.Fatalf("cluster %s: %v", key, err)
		}
		if got.Records != want.Records {
			t.Fatalf("%s: records %d != %d", key, got.Records, want.Records)
		}
		if !bytes.Equal(got.Curve, want.Curve) {
			t.Fatalf("%s: post-restart cluster curve differs from single node", key)
		}
	}
}
