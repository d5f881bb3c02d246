// Package parallel is the one worker pool: per-index work spread over a
// bounded number of goroutines. It imports only the standard library, so
// every layer — TBIN decode, the estimator, the partition build, the live
// engine and the cold tier — schedules its work the same way.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a workers knob against n independent units: 0 or less
// means GOMAXPROCS, and the result never exceeds n nor falls below 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// ForEach runs fn(i) for every i in [0, n) on Workers(workers, n)
// goroutines, handing out indexes in increasing order. fn must be safe to
// call concurrently for distinct indexes and must not depend on invocation
// order; with one worker it runs on the caller's goroutine.
func ForEach(workers, n int, fn func(int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
