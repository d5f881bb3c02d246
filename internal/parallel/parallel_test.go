package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 1 << 20, procs},
		{-3, 1 << 20, procs},
		{4, 2, 2},
		{4, 0, 1},
		{1, 9, 1},
		{3, 9, 3},
	} {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestForEachVisitsEveryIndexOnce at worker counts below, at and above n.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]atomic.Int32, n)
			ForEach(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("workers=%d n=%d: index %d run %d times", workers, n, i, h)
				}
			}
		}
	}
}
