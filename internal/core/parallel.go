package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// minPerWorker is the fewest indices ResolveWorkers gives each worker:
// below it, a goroutine's startup outweighs its share of cheap per-node
// work.
const minPerWorker = 64

// ctxCheckStride is how many indices a ParallelRange worker processes
// between context polls: frequent enough to abort large runs promptly,
// rare enough that the poll cost vanishes against the per-node work.
const ctxCheckStride = 16

// parallelMinNodes is the index-space size below which ParallelRange
// stays serial even when more workers were requested: goroutine startup
// would cost more than the work it wins.
const parallelMinNodes = 256

// ResolveWorkers normalizes a requested worker count against an index
// space of n items: non-positive means GOMAXPROCS, small inputs stay
// serial, and the pool never exceeds one worker per minPerWorker items.
// The result is the number of goroutines ParallelRange will actually
// use, which callers need when sizing per-worker scratch state.
func ResolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < parallelMinNodes {
		return 1
	}
	if max := (n + minPerWorker - 1) / minPerWorker; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelRange invokes fn(w, i) exactly once for every i in [0, n),
// fanned across `workers` goroutines (1 runs inline; ResolveWorkers
// sizes a pool for cheap per-node work). The worker index
// w ∈ [0, workers) lets callers give each goroutine its own scratch
// state. Indices are handed out in ascending order, one per grab of a
// shared atomic counter, so uneven per-index costs balance automatically
// and no index ever waits behind a slow one claimed by the same worker;
// fn must be safe to call concurrently for distinct i, and results must
// go to per-i slots so the output is independent of scheduling.
//
// Errors: the first non-nil fn result stops the pool handing out
// indices and is returned; calls already running finish. Cancellation:
// every worker polls ctx on its own ctxCheckStride of processed indices —
// cancellation latency stays at one stride of per-index work regardless
// of worker count, instead of growing as a shared stride would. On
// cancellation the pool stops early and ParallelRange returns ctx.Err().
// Either way some fn calls never happen, so callers must discard
// partial output on error.
func ParallelRange(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if i%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	poll := ctx.Done() != nil
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			processed := 0
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if poll {
					if processed%ctxCheckStride == 0 && ctx.Err() != nil {
						stop.Store(true)
						return
					}
					processed++
				}
				if err := fn(w, i); err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if stop.Load() {
		return ctx.Err()
	}
	return nil
}
