// Package par is the worker pool the experiment sweeps (emul.Fig1 and
// emul.Fig9Sweep) run their independent computations on. It is intentionally
// tiny: one primitive, no state. No router uses it: a routing tick runs on
// its node's own goroutine.
//
// Determinism contract: For itself guarantees only that every index runs
// exactly once before it returns. Callers keep byte-identical output by
// writing results into per-index slots that no other index touches; fn must
// not depend on execution order or on which goroutine runs it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), fanning out across up to GOMAXPROCS
// goroutines that pull indices from a shared counter, so indices of uneven
// cost (e.g. source slots with shrinking pair ranges) stay balanced. It
// returns once every index has completed.
func For(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
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
