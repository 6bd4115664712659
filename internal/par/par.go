// Package par provides the deterministic fork/join worker pool shared by the
// experiment suite and the route-computation shards in internal/core. It is
// intentionally tiny: one primitive, no state.
//
// Determinism contract: For itself guarantees only that every index runs
// exactly once before it returns. Callers keep byte-identical output by
// writing results into per-index (or per-span) slots that no other index
// touches and merging in index order after the pool drains; fn must not
// depend on execution order or on which goroutine runs it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), fanning out across up to workers
// goroutines that pull indices from a shared counter, so shards of uneven
// cost (e.g. source slots with shrinking pair ranges) stay balanced.
// workers ≤ 0 means GOMAXPROCS. It returns once every index has completed.
func For(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
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

// Spans splits [0, n) into at most workers contiguous spans of near-equal
// length and runs fn(lo, hi) for each, in parallel. It is the shard shape for
// kernels that stream over contiguous destination ranges (cache-friendly, and
// each span writes a disjoint out range, so the merged result is
// byte-identical regardless of scheduling). workers ≤ 0 means GOMAXPROCS.
func Spans(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	For(workers, workers, func(w int) {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo < hi {
			fn(lo, hi)
		}
	})
}
