package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"xkprop/internal/rel"
)

// This file holds the engine's concurrency plumbing. The thousands of
// independent Σ ⊨_σ (X → A) queries issued by the cover algorithms are
// embarrassingly parallel — each is a pure function of (Σ, rule, fd) — so
// they fan out across a bounded worker pool sharing one implication
// decider; a sub-goal proved by one worker is a memo hit for all others.
// Every fan-out collects results by index and merges them in the same
// order the sequential loops use, so parallel runs are bit-identical to
// sequential ones.

// SetWorkers configures the engine's worker pool: n >= 1 pins the pool to
// exactly n goroutines (1 = fully sequential), n <= 0 restores the default
// (sequential single-query algorithms, GOMAXPROCS for the batch API). It
// returns the engine for chaining and must be called before the engine is
// shared between goroutines.
func (e *Engine) SetWorkers(n int) *Engine {
	if n < 0 {
		n = 0
	}
	e.workers = n
	return e
}

// Workers reports the configured pool size (0 = default).
func (e *Engine) Workers() int { return e.workers }

// queryWorkers is the pool size for the single-query algorithms
// (Propagates, MinimumCover, NaiveCover): sequential unless configured.
func (e *Engine) queryWorkers() int {
	if e.workers == 0 {
		return 1
	}
	return e.workers
}

// batchWorkers is the pool size for the batch API (PropagatesAll):
// GOMAXPROCS unless configured.
func (e *Engine) batchWorkers() int {
	if e.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// runIndexedErr evaluates f(0) .. f(n-1), fanning across up to workers
// goroutines. With one worker (or one item) it degenerates to an inline
// loop — the allocation-free sequential fast path. f must be safe to call
// concurrently and must not assume evaluation order; callers get
// determinism by writing results into index i and merging afterwards.
// The first non-nil error raises a stop flag that drains the remaining
// indices without running them, and is returned after all workers settle.
// Which error wins under concurrency is unspecified, but callers only ever
// see an error produced by f, and out-slots for skipped indices keep their
// zero values.
func runIndexedErr(n, workers int, f func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := f(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// PropagatesAll decides Σ ⊨_σ fd for every FD in fds, fanning the checks
// across the engine's worker pool (GOMAXPROCS workers unless SetWorkers
// pinned the pool). out[i] is the verdict for fds[i]; the result is
// identical to calling Propagates on each FD in order.
func (e *Engine) PropagatesAll(fds []rel.FD) []bool {
	out, _ := e.PropagatesAllCtx(nil, fds) // an unbudgeted batch cannot abort
	return out
}

// PropagatesAllCtx is PropagatesAll under a context. On cancellation or
// budget exhaustion it returns (nil, err): a partial verdict slice is never
// handed back as if complete.
func (e *Engine) PropagatesAllCtx(ctx context.Context, fds []rel.FD) ([]bool, error) {
	out := make([]bool, len(fds))
	err := runIndexedErr(len(fds), e.batchWorkers(), func(i int) error {
		ok, err := e.propagates(ctx, fds[i])
		out[i] = ok
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
