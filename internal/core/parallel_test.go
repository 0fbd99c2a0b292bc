package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// parallelTestPlacements returns placements large enough to clear the
// stay-serial floor, in both density regimes.
func parallelTestPlacements() map[string][]geom.Point {
	return map[string][]geom.Point{
		"uniform":   workload.Uniform(workload.Rand(3), 1500, 3000, 3000),
		"clustered": workload.Clustered(workload.Rand(4), 1500, 12, 260, 3000, 3000),
	}
}

// The tentpole determinism contract: Run produces an Execution
// identical to the serial path at every worker count — same neighbors in
// the same order, same powers, same boundary flags, bit for bit.
func TestRunParallelDeterministic(t *testing.T) {
	m := radio.Default(500)
	for name, pos := range parallelTestPlacements() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			serial, err := Run(ctx, pos, m, AlphaConnectivity, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8, 0} {
				par, err := Run(ctx, pos, m, AlphaConnectivity, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(serial, par) {
					for u := range serial.Nodes {
						if !reflect.DeepEqual(serial.Nodes[u], par.Nodes[u]) {
							t.Fatalf("workers=%d: node %d diverged:\nserial: %+v\npar:    %+v",
								workers, u, serial.Nodes[u], par.Nodes[u])
						}
					}
					t.Fatalf("workers=%d: executions diverged outside Nodes", workers)
				}
			}
			// The naive full-scan reference must agree too.
			naive, err := RunNaive(ctx, pos, m, AlphaConnectivity)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, naive) {
				t.Fatal("serial grid path and naive reference diverged")
			}
		})
	}
}

// MaxPowerGraph must build exactly the serial graph at every worker count.
func TestMaxPowerGraphParallelEquivalence(t *testing.T) {
	m := radio.Default(500)
	for name, pos := range parallelTestPlacements() {
		t.Run(name, func(t *testing.T) {
			want := MaxPowerGraph(pos, m, nil, 1)
			for _, workers := range []int{1, 3, 8} {
				if got := MaxPowerGraph(pos, m, nil, workers); !got.Equal(want) {
					t.Fatalf("workers=%d: parallel G_R differs from serial", workers)
				}
			}
		})
	}
}

// A context that is already cancelled must abort the pool before any
// meaningful work, at every worker count.
func TestRunParallelPreCancelled(t *testing.T) {
	m := radio.Default(500)
	pos := workload.Uniform(workload.Rand(5), 2000, 3500, 3500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		exec, err := Run(ctx, pos, m, AlphaConnectivity, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if exec != nil {
			t.Fatalf("workers=%d: partial execution escaped on cancellation", workers)
		}
	}
}

// Cancellation arriving mid-run must stop a wide worker pool promptly:
// every worker polls ctx on its own stride, so latency is one stride of
// per-node work, not workers × stride. The run must either finish clean
// or report exactly ctx.Err() with no partial output.
func TestRunParallelCancelledMidRun(t *testing.T) {
	m := radio.Default(500)
	pos := workload.Uniform(workload.Rand(6), 5000, 5600, 5600)
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		exec *Execution
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		exec, err := Run(ctx, pos, m, AlphaConnectivity, 8)
		done <- outcome{exec, err}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case out := <-done:
		switch {
		case out.err == nil:
			if out.exec == nil || len(out.exec.Nodes) != len(pos) {
				t.Fatal("clean finish without a complete execution")
			}
		case errors.Is(out.err, context.Canceled):
			if out.exec != nil {
				t.Fatal("partial execution escaped on cancellation")
			}
		default:
			t.Fatalf("unexpected error: %v", out.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool did not react to cancellation")
	}
}

// ParallelRange must call fn exactly once per index regardless of pool
// size.
func TestParallelRangeCoverage(t *testing.T) {
	for _, n := range []int{1, 17, 63, 64, 65, 640} {
		for _, workers := range []int{1, 2, 7, 16} {
			counts := make([]int32, n)
			err := ParallelRange(context.Background(), n, workers, func(_, i int) error {
				counts[i]++
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

// The first error fn returns stops the pool handing out indices and is
// what ParallelRange returns, at every pool size; cancellation still
// wins with ctx.Err() when no fn failed.
func TestParallelRangeFirstError(t *testing.T) {
	const n = 20000
	bad := errors.New("unit failed")
	for _, workers := range []int{1, 2, 7} {
		var calls atomic.Int64
		err := ParallelRange(context.Background(), n, workers, func(_, i int) error {
			calls.Add(1)
			if i%1000 == 999 {
				return fmt.Errorf("index %d: %w", i, bad)
			}
			return nil
		})
		if !errors.Is(err, bad) {
			t.Fatalf("workers=%d: got %v, want the unit error", workers, err)
		}
		if c := calls.Load(); c == n {
			t.Errorf("workers=%d: every index ran after a failure", workers)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ParallelRange(ctx, n, 4, func(_, i int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool: got %v, want context.Canceled", err)
	}
}

// Every grab takes one index, so no unit waits behind a slow one claimed
// by the same worker: unit 0 here blocks until every other unit has run,
// which a chunk of several indices would never let happen, at small and
// large range sizes alike.
func TestParallelRangeOneIndexPerGrab(t *testing.T) {
	for _, n := range []int{16, 1000} {
		t.Run(fmt.Sprint("n=", n), func(t *testing.T) {
			const workers = 2
			var ran atomic.Int64
			others := make(chan struct{})
			abort := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- ParallelRange(context.Background(), n, workers, func(_, i int) error {
					if i == 0 {
						select {
						case <-others:
						case <-abort:
							return errors.New("unit 0 gave up waiting")
						}
						return nil
					}
					if ran.Add(1) == int64(n-1) {
						close(others)
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				close(abort)
				<-done
				t.Fatalf("only %d of the other %d units ran while unit 0 blocked", ran.Load(), n-1)
			}
		})
	}
}
