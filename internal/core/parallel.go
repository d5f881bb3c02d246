package core

import "autosens/internal/parallel"

// forEachIndex runs fn(i) for every i in [0, n) across the estimator's
// worker pool. fn must be safe to call concurrently for distinct indices
// and must not depend on invocation order: every caller derives per-index
// randomness up front (rng.Source.Split with the index as key), so the
// output is bit-identical at any worker count.
func (e *Estimator) forEachIndex(n int, fn func(int)) {
	parallel.ForEach(e.opts.Workers, n, fn)
}
