// Package parallel provides the shared worker-pool primitive used by the
// hot paths of the library: dataset generation (msim, nmrsim),
// data-parallel training (nn) and batched inference (core monitoring).
//
// The contract every caller relies on is determinism: For distributes
// loop indices dynamically over goroutines, so callers must make each
// index's work independent of which worker executes it (per-index RNG
// child streams via rng.Source.Split, per-index output slots) and perform
// any order-sensitive reduction themselves after For returns, in index
// order. Under that discipline, results are bit-identical for any worker
// count, including 1.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Resolve maps a Workers knob to an actual worker count: values <= 0 mean
// "use every available core" (runtime.GOMAXPROCS).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// For runs fn(worker, i) for every index i in [0, n), distributed over up
// to `workers` goroutines (0 = all cores). The worker argument is a stable
// goroutine identifier in [0, workers) that callers may use to index
// per-worker scratch; indices are handed out
// dynamically, so no assumption may be made about which worker receives
// which index.
//
// The first error returned by fn stops the dispatch of further indices and
// is returned after all in-flight calls finish. A panic inside fn is
// recovered and surfaced the same way — as an error, never a hang or a
// crashed process.
func For(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := protect(0, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := protect(worker, i, fn); err != nil {
					errOnce.Do(func() { firstErr = err })
					stopped.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// protect invokes fn and converts a panic into an error carrying the
// offending index and the goroutine stack.
func protect(worker, i int, fn func(worker, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: panic on index %d: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(worker, i)
}
