package cbtc

import (
	"context"
	"errors"
	"fmt"

	"cbtc/internal/core"
)

// RunBatch executes CBTC(α) on every placement, fanning the independent
// networks across the engine's shard scheduler (GOMAXPROCS workers by
// default; see WithWorkers). The returned slice is aligned with
// placements: results[i] is the outcome of Run on placements[i]. When
// the batch is at least as large as the pool each placement runs
// serially inside its shard — batch-level parallelism already saturates
// the pool. A batch smaller than the pool hands the leftover cores down
// to each run's per-node parallelism instead of idling them; Run is
// worker-count invariant, so the split never changes the results.
//
// The first failure stops the batch and is returned: no further
// placements start, and placements already running finish. If ctx ends
// first, RunBatch aborts mid-batch and returns ctx.Err(). Shards pull
// placements from a shared counter, so heterogeneous network sizes
// balance automatically.
func (e *Engine) RunBatch(ctx context.Context, placements [][]Point) ([]*Result, error) {
	results := make([]*Result, len(placements))
	plan := planShards(e.workers, len(placements))
	err := core.ParallelRange(ctx, len(placements), plan.shards, func(_, i int) error {
		res, err := e.run(ctx, placements[i], plan.inner)
		if err != nil {
			// Report a cancellation as the bare context error, not as a
			// placement failure.
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				return ctxErr
			}
			return fmt.Errorf("placement %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
