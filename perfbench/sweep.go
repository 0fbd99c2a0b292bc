package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"cbtc"
	"cbtc/internal/workload"
)

// sweepWorkload is the research user's path, in process with no
// daemon: each op takes one paper placement, runs every Table 1 stack
// and the Figure 1 protocol on it, and checks connectivity on every
// result.
type sweepWorkload struct {
	pool   int // placements drawn at set-up; ops cycle through them
	setups int // set-ups per run; setup_s is their median
	block  int // ops per traced/untraced block in a traced run
}

// stack is one Table 1 column with the engine that runs it.
type stack struct {
	col cbtc.Table1Column
	eng *cbtc.Engine
	// span names the layer call: engine.run_basic, engine.run_opt or
	// engine.maxpower.
	span string
	// gated stacks must preserve connectivity: every α=5π/6 CBTC stack.
	gated bool
}

type sweepSetup struct {
	stacks []stack
	sim    *cbtc.Engine // basic CBTC(5π/6) for the Figure 1 protocol
	pool   [][]cbtc.Point
}

func newSweepSetup(ctx context.Context, seed uint64, pool int) (*sweepSetup, error) {
	s := &sweepSetup{}
	// One worker per engine: at the paper's 100 nodes the per-node
	// fan-out gains nothing, and single-worker runs vary less between runs.
	for _, col := range cbtc.Table1Columns() {
		opts := []cbtc.Option{cbtc.WithMaxRadius(workload.PaperRadius), cbtc.WithWorkers(1)}
		st := stack{col: col, span: "engine.maxpower"}
		if !col.MaxPower {
			opts = append(opts, cbtc.WithAlpha(col.Alpha))
			if col.Opts.ShrinkBack {
				opts = append(opts, cbtc.WithShrinkBack())
			}
			if col.Opts.AsymmetricRemoval {
				opts = append(opts, cbtc.WithAsymmetricRemoval())
			}
			if col.Opts.PairwiseRemoval {
				opts = append(opts, cbtc.WithPairwiseRemoval(cbtc.PairwiseLengthFiltered))
			}
			st.span = "engine.run_opt"
			if !col.Opts.ShrinkBack && !col.Opts.AsymmetricRemoval && !col.Opts.PairwiseRemoval {
				st.span = "engine.run_basic"
			}
			st.gated = col.Alpha == cbtc.AlphaConnectivity
		}
		eng, err := cbtc.New(opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", col.Name, err)
		}
		st.eng = eng
		s.stacks = append(s.stacks, st)
	}
	var err error
	if s.sim, err = cbtc.New(cbtc.WithMaxRadius(workload.PaperRadius), cbtc.WithAlpha(cbtc.AlphaConnectivity), cbtc.WithWorkers(1)); err != nil {
		return nil, err
	}
	s.pool = make([][]cbtc.Point, pool)
	for i := range s.pool {
		s.pool[i] = workload.PaperNetwork(seed + uint64(i))
	}
	// One op fills caches and finishes lazy set-up before timing.
	if _, err := s.op(ctx, 0, seed, nil, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// opStats is what one op measured.
type opStats struct {
	reads     []time.Duration // one per Result.PreservesConnectivity
	simAllocs uint64
}

// op runs placement i through every stack and the protocol simulator
// and checks connectivity on each result. A nil tracer skips the spans;
// a nil allocs sample skips the allocation count.
func (s *sweepSetup) op(ctx context.Context, i int, seed uint64, tr *tracer, allocs []metrics.Sample) (opStats, error) {
	var st opStats
	nodes := s.pool[i%len(s.pool)]
	root := tr.begin("net", -1)
	defer tr.end(root)
	check := func(name string, res *cbtc.Result, gated bool) error {
		sp := tr.begin("graph.preserves", root)
		t0 := time.Now()
		ok := res.PreservesConnectivity()
		st.reads = append(st.reads, time.Since(t0))
		tr.end(sp)
		if gated && !ok {
			return fmt.Errorf("placement %d (seed %d): %s does not preserve connectivity", i, seed+uint64(i%len(s.pool)), name)
		}
		return nil
	}
	for _, stk := range s.stacks {
		sp := tr.begin(stk.span, root)
		var res *cbtc.Result
		var err error
		if stk.col.MaxPower {
			res, err = stk.eng.MaxPower(nodes)
		} else {
			res, err = stk.eng.Run(ctx, nodes)
		}
		tr.end(sp)
		if err != nil {
			return st, fmt.Errorf("%s: %w", stk.col.Name, err)
		}
		if err := check(stk.col.Name, res, stk.gated); err != nil {
			return st, err
		}
	}
	sp := tr.begin("engine.simulate", root)
	if allocs != nil {
		metrics.Read(allocs)
	}
	before := allocCount(allocs)
	res, err := s.sim.Simulate(ctx, nodes, cbtc.SimOptions{Seed: seed + uint64(i)})
	if allocs != nil {
		metrics.Read(allocs)
		st.simAllocs = allocCount(allocs) - before
	}
	tr.end(sp)
	if err != nil {
		return st, fmt.Errorf("simulate: %w", err)
	}
	return st, check("simulate α=5π/6", res, true)
}

func allocCount(s []metrics.Sample) uint64 {
	if s == nil {
		return 0
	}
	return s[0].Value.Uint64()
}

func (w sweepWorkload) run(ctx context.Context, env runEnv) (*result, error) {
	var setup samples
	var s *sweepSetup
	for k := 0; k < w.setups; k++ {
		t0 := time.Now()
		ss, err := newSweepSetup(ctx, env.seed, w.pool)
		if err != nil {
			return nil, err
		}
		setup.add(time.Since(t0).Seconds())
		s = ss
	}

	res := &result{}
	var opLat, reads samples
	// A traced run alternates untraced and traced blocks of ops, so the
	// tracing overhead is measured on the same placements and machine
	// state; per-layer metrics come from the traced blocks only.
	var plainOps, tracedOps int
	var plainTime, tracedTime time.Duration
	var simAllocs samples
	var allocs []metrics.Sample
	if env.trace {
		allocs = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	}
	start := time.Now()
	end := start.Add(env.seconds)
	var opErr error
	for i := 0; time.Now().Before(end); i++ {
		traced := env.trace && (i/w.block)%2 == 1
		var tr *tracer
		var al []metrics.Sample
		if traced {
			tr, al = env.tracer, allocs
		}
		res.attempted++
		t0 := time.Now()
		st, err := s.op(ctx, i, env.seed, tr, al)
		took := time.Since(t0)
		if err != nil {
			res.failed++
			opErr = errors.Join(opErr, err)
			continue
		}
		opLat.addDur(took)
		for _, r := range st.reads {
			reads.addDur(r)
		}
		if traced {
			tracedOps++
			tracedTime += took
			simAllocs.add(float64(st.simAllocs))
		} else {
			plainOps++
			plainTime += took
		}
	}
	elapsed := time.Since(start)
	res.addCheck("paper sweep", opErr)
	fmt.Fprintf(os.Stderr, "perfbench: setup_s %s\nperfbench: ops %s\nperfbench: reads %s\n", setup.summary(), opLat.summary(), reads.summary())

	if !env.trace {
		res.addCheck("sample count", errors.Join(tailCheck("op", len(opLat), 90), tailCheck("read", len(reads), 50)))
		rss, err := selfPeakRSSMB()
		if err != nil {
			return nil, err
		}
		res.metric("throughput_per_s", float64(len(opLat))/elapsed.Seconds())
		res.metric("op_p50_ms", opLat.median())
		res.metric("op_p90_ms", opLat.pct(90))
		res.metric("read_p50_ms", reads.median())
		res.metric("setup_s", setup.median())
		res.metric("peak_rss_mb", rss)
		return res, nil
	}

	spans := env.tracer.snapshot()
	opTotal := durations(spans, "net").sum()
	for _, name := range []string{"engine.run_basic", "engine.run_opt", "engine.maxpower", "engine.simulate", "graph.preserves"} {
		d := durations(spans, name)
		res.layer(name+".p50_ms", d.median())
		res.layer(name+".share", d.sum()/opTotal)
	}
	res.layer("engine.simulate.allocs", simAllocs.median())
	plainRate := float64(plainOps) / plainTime.Seconds()
	tracedRate := float64(tracedOps) / tracedTime.Seconds()
	res.layer("trace.overhead_frac", plainRate/tracedRate-1)
	return res, nil
}
