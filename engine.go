package cbtc

import (
	"context"
	"fmt"
	"math"

	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
	"cbtc/internal/proto"
	"cbtc/internal/radio"
)

// Engine is a validated, reusable CBTC(α) executor. It is built once by
// New from functional options, is immutable afterwards, and is safe for
// concurrent use: any number of goroutines may call Run, Simulate,
// MaxPower, Baseline and RunBatch on the same Engine simultaneously —
// and any number of Sessions (NewSession) and Fleets (NewFleet) may
// evolve concurrently on top of it.
type Engine struct {
	alpha float64
	model radio.Model // nominal power-law model (the hardware curve)
	// prop is the propagation authority every executor consults: the
	// nominal model itself, or a radio.LogDistance wrapping it when
	// WithShadowing installed per-link shadowing. prop.Nominal() == model
	// always holds.
	prop     radio.Propagation
	opts     core.Options
	schedule []float64 // non-nil: quantize discovery tags to these levels
	// scheduleFactor is the WithShrinkBackSchedule factor the schedule was
	// built from (0 = exact tags); it is part of the checkpoint config
	// fingerprint, since quantization changes the serialized fixed point.
	scheduleFactor float64
	workers        int // worker budget for Run/RunBatch/MaxPower/Session repair/Fleets; 0 = GOMAXPROCS

	// shadowing (WithShadowing); part of the checkpoint fingerprint.
	shadowed    bool
	shadowSigma float64
	shadowSeed  uint64
	// battery (WithBattery); part of the checkpoint fingerprint.
	battery      bool
	batteryCap   float64
	batteryDrain float64
}

// New builds an Engine from functional options, validating the combined
// configuration once. At minimum a radio model must be supplied
// (WithMaxRadius or WithRadioModel); every violation is reported as an
// error wrapping ErrBadConfig.
func New(options ...Option) (*Engine, error) {
	var s settings
	s.apply(options)
	return newEngine(s)
}

// apply folds options into the accumulated settings, resolving the
// WithAllOptimizations marker after every other option, so it composes
// with WithAlpha in either order.
func (s *settings) apply(options []Option) {
	for _, opt := range options {
		opt(s)
	}
	if s.allOpts {
		alpha := s.alpha
		if alpha == 0 {
			alpha = AlphaConnectivity
		}
		s.opts.ShrinkBack = true
		s.opts.PairwiseRemoval = true
		s.opts.AsymmetricRemoval = alpha <= AlphaAsymmetric+1e-9
		s.allOpts = false
	}
}

// newEngine validates accumulated settings into an immutable Engine —
// the shared back half of New, Engine.derive and engineFromFingerprint.
func newEngine(s settings) (*Engine, error) {
	if s.alpha == 0 {
		s.alpha = AlphaConnectivity
	}
	if math.IsNaN(s.alpha) || s.alpha <= 0 || s.alpha > 2*math.Pi {
		return nil, fmt.Errorf("%w: alpha %v not in (0, 2π]", ErrBadConfig, s.alpha)
	}
	if s.model == (radio.Model{}) {
		return nil, fmt.Errorf("%w: no radio model (set WithMaxRadius or WithRadioModel)", ErrBadConfig)
	}
	if err := s.model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if p := s.opts.PairwisePolicy; p < 0 || p > PairwiseBothEndpoints {
		return nil, fmt.Errorf("%w: unknown pairwise policy %v", ErrBadConfig, p)
	}
	if err := s.opts.Validate(s.alpha); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if s.workers < 0 {
		return nil, fmt.Errorf("%w: negative worker count %d", ErrBadConfig, s.workers)
	}
	m := s.model
	eng := &Engine{alpha: s.alpha, model: m, prop: m, opts: s.opts, workers: s.workers}
	if s.useShadow {
		ld, err := radio.NewLogDistance(m, s.shadowSigma, s.shadowSeed)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		eng.prop = ld
		eng.shadowed = true
		eng.shadowSigma = s.shadowSigma
		eng.shadowSeed = s.shadowSeed
	}
	if s.useBattery {
		if math.IsNaN(s.batteryCap) || math.IsInf(s.batteryCap, 0) || s.batteryCap <= 0 {
			return nil, fmt.Errorf("%w: battery capacity %v must be positive and finite", ErrBadConfig, s.batteryCap)
		}
		if math.IsNaN(s.batteryDrain) || math.IsInf(s.batteryDrain, 0) || s.batteryDrain < 0 {
			return nil, fmt.Errorf("%w: battery drain %v must be non-negative and finite", ErrBadConfig, s.batteryDrain)
		}
		eng.battery = true
		eng.batteryCap = s.batteryCap
		eng.batteryDrain = s.batteryDrain
	}
	if s.scheduleFactor != 0 {
		inc, err := radio.Multiplicative(s.scheduleFactor)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		schedule, err := radio.Schedule(m.MaxPower()/1024, m.MaxPower(), inc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		eng.schedule = schedule
		eng.scheduleFactor = s.scheduleFactor
	}
	return eng, nil
}

// derive builds a new Engine layered on this one: the engine's
// parameters are reopened as settings and the given options applied on
// top, revalidated as a whole. With no options the engine itself is
// returned. Fleets use it to give heterogeneous members their own option
// stacks without losing the base engine's defaults.
func (e *Engine) derive(options ...Option) (*Engine, error) {
	if len(options) == 0 {
		return e, nil
	}
	s := settings{
		alpha:          e.alpha,
		model:          e.model,
		opts:           e.opts,
		scheduleFactor: e.scheduleFactor,
		workers:        e.workers,
		useShadow:      e.shadowed,
		shadowSigma:    e.shadowSigma,
		shadowSeed:     e.shadowSeed,
		useBattery:     e.battery,
		batteryCap:     e.batteryCap,
		batteryDrain:   e.batteryDrain,
	}
	s.apply(options)
	return newEngine(s)
}

// RadioModel returns the nominal power-law radio model the Engine runs
// with — the hardware curve, before any per-link shadowing.
func (e *Engine) RadioModel() RadioModel { return e.model }

// Propagation returns the propagation authority the Engine consults for
// every link decision: the nominal model, or the shadowed log-distance
// model when WithShadowing is in effect.
func (e *Engine) Propagation() radio.Propagation { return e.prop }

// withWorkers returns a copy of the engine pinned to a different worker
// budget. Every executor is worker-count invariant, so the copy is
// interchangeable with the original except for scheduling; the
// experiment fan-outs use it to hand shard-pool inner budgets to nested
// runs.
func (e *Engine) withWorkers(n int) *Engine {
	c := *e
	c.workers = n
	return &c
}

// Alpha returns the cone angle the Engine runs with.
func (e *Engine) Alpha() float64 { return e.alpha }

// Run executes CBTC(α) on the placement under the exact minimal-power
// semantics of the paper's analysis and applies the engine's
// optimization stack. The per-node cone tests are fanned across the
// engine's worker pool (WithWorkers; GOMAXPROCS by default) — the result
// is identical at every worker count. Cancelling ctx aborts the
// computation with ctx.Err().
func (e *Engine) Run(ctx context.Context, nodes []Point) (*Result, error) {
	return e.run(ctx, nodes, e.workers)
}

// run is Run with an explicit worker count; RunBatch pins it to 1 so
// batch-level parallelism is not multiplied by per-run parallelism.
func (e *Engine) run(ctx context.Context, nodes []Point, workers int) (*Result, error) {
	exec, err := core.RunParallel(ctx, nodes, e.prop, e.alpha, workers)
	if err != nil {
		return nil, err
	}
	if e.schedule != nil {
		exec = core.QuantizeTags(exec, e.schedule)
	}
	topo, err := core.BuildTopology(exec, e.opts)
	if err != nil {
		return nil, err
	}
	return newResult(nodes, e.prop, topo, workers), nil
}

// Simulate runs the distributed Hello/Ack protocol of the paper's
// Figure 1 on a discrete-event radio simulator and applies the engine's
// optimization stack to the outcome. Nodes act only on message powers
// and measured angles, exactly as the paper assumes. Cancelling ctx
// stops the event loop and returns ctx.Err().
func (e *Engine) Simulate(ctx context.Context, nodes []Point, sim SimOptions) (*Result, error) {
	exec, err := e.protoExec(ctx, nodes, sim)
	if err != nil {
		return nil, err
	}
	topo, err := core.BuildTopology(exec, e.opts)
	if err != nil {
		return nil, err
	}
	return newResult(nodes, e.prop, topo, e.workers), nil
}

// protoExec runs the distributed Figure 1 protocol on the discrete-event
// radio simulator and returns the finished growing-phase execution — the
// shared front half of Simulate and NewProtocolSession.
func (e *Engine) protoExec(ctx context.Context, nodes []Point, sim SimOptions) (*core.Execution, error) {
	simOpts := netsim.Options{
		Model:    e.prop,
		Latency:  sim.Latency,
		Jitter:   sim.Jitter,
		DropProb: sim.DropProb,
		DupProb:  sim.DupProb,
		AoANoise: sim.AoANoise,
		Seed:     sim.Seed,
	}
	if simOpts.Latency == 0 {
		simOpts.Latency = 1
	}
	pcfg := proto.Config{
		Alpha:       e.alpha,
		P0:          sim.InitialPower,
		AsymRemoval: e.opts.AsymmetricRemoval,
	}
	if sim.IncreaseFactor != 0 {
		inc, err := radio.Multiplicative(sim.IncreaseFactor)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		pcfg.Increase = inc
	}
	exec, _, err := proto.RunCBTCContext(ctx, nodes, simOpts, pcfg)
	if err != nil {
		return nil, err
	}
	return exec, nil
}

// MaxPower returns the Result of using no topology control at all:
// every node transmits at maximum power (the paper's baseline column in
// Table 1). The G_R radius queries are fanned across the engine's worker
// pool. The engine's optimization stack does not apply.
func (e *Engine) MaxPower(nodes []Point) (*Result, error) {
	m := e.model
	gr := core.MaxPowerGraphParallel(nodes, e.prop, e.workers)
	radii := make([]float64, len(nodes))
	powers := make([]float64, len(nodes))
	boundary := make([]bool, len(nodes))
	for i := range nodes {
		radii[i] = m.MaxRadius // the baseline transmits at R regardless
		powers[i] = m.MaxPower()
	}
	return &Result{
		G:         gr,
		GR:        gr,
		Pos:       append([]Point(nil), nodes...),
		Radii:     radii,
		Powers:    powers,
		Boundary:  boundary,
		AvgDegree: graph.AvgDegree(gr),
		AvgRadius: m.MaxRadius,
		model:     m,
	}, nil
}
