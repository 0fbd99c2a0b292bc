package cbtc

import "runtime"

// shardPlan resolves how n independent units of work — batch placements,
// fleet networks, comparison specs — spread across an engine's worker
// budget. Shards is the number of pool goroutines (the workers argument
// of core.ParallelRange, which runs the units); Inner is the nested
// per-unit worker budget each shard may spend (on the parallel oracle,
// on session repair) without oversubscribing the scheduler. When there
// are at least as many units as workers the pool saturates on unit-level
// parallelism alone and Inner is 1; when there are fewer units than
// workers — a small batch on a big machine — the leftover cores are
// handed down so they are not wasted.
type shardPlan struct {
	shards int
	inner  int
}

// planShards sizes a shard pool for n units under a worker budget
// (workers <= 0 means GOMAXPROCS). The plan is deterministic in its
// inputs; because every nested consumer of Inner is worker-count
// invariant, the budget split never affects results, only throughput.
func planShards(workers, n int) shardPlan {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := workers
	if n > 0 && shards > n {
		shards = n
	}
	return shardPlan{shards: shards, inner: workers / shards}
}
