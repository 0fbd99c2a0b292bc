package cbtc

import (
	"context"
	"fmt"
	"math"

	"cbtc/internal/core"
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
	// settings are the validated options the engine was built from:
	// cone angle, nominal power-law model (the hardware curve),
	// optimization stack, schedule factor, worker budget (0 =
	// GOMAXPROCS), shadowing and battery. They are also the checkpoint
	// fingerprint's source.
	settings
	// prop is the propagation authority every executor consults: the
	// nominal model itself, or a radio.LogDistance wrapping it when
	// WithShadowing installed per-link shadowing. prop.Nominal() == model
	// always holds.
	prop     radio.Propagation
	schedule []float64 // non-nil: quantize discovery tags to these levels
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
	if s.opts.PairwisePolicy == PairwiseLengthFiltered {
		// The zero policy already means PairwiseLengthFiltered; one
		// spelling keeps engines that behave identically fingerprinting
		// identically, so they restore each other's checkpoints.
		s.opts.PairwisePolicy = 0
	}
	if err := s.opts.Validate(s.alpha); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if s.workers < 0 {
		return nil, fmt.Errorf("%w: negative worker count %d", ErrBadConfig, s.workers)
	}
	if s.useShadow && (s.opts.PairwiseRemoval || s.opts.AsymmetricRemoval) {
		// Theorems 3.2 and 3.6 assume link power is ordered by distance;
		// per-link shadowing breaks that, and the removals can partition.
		return nil, fmt.Errorf("%w: pairwise and asymmetric removal require the uniform power law, not shadowing", ErrBadConfig)
	}
	eng := &Engine{settings: s, prop: s.model}
	if s.useShadow {
		ld, err := radio.NewLogDistance(s.model, s.shadowSigma, s.shadowSeed)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		eng.prop = ld
	}
	if s.useBattery {
		if math.IsNaN(s.batteryCap) || math.IsInf(s.batteryCap, 0) || s.batteryCap <= 0 {
			return nil, fmt.Errorf("%w: battery capacity %v must be positive and finite", ErrBadConfig, s.batteryCap)
		}
		if math.IsNaN(s.batteryDrain) || math.IsInf(s.batteryDrain, 0) || s.batteryDrain < 0 {
			return nil, fmt.Errorf("%w: battery drain %v must be non-negative and finite", ErrBadConfig, s.batteryDrain)
		}
	}
	if s.scheduleFactor != 0 {
		inc, err := radio.Multiplicative(s.scheduleFactor)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		schedule, err := radio.Schedule(s.model.MaxPower()/1024, s.model.MaxPower(), inc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		eng.schedule = schedule
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
	s := e.settings
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
	exec, err := core.Run(ctx, nodes, e.prop, e.alpha, workers)
	if err != nil {
		return nil, err
	}
	if e.schedule != nil {
		exec = core.QuantizeTags(exec, e.schedule)
	}
	return e.topologyResult(nodes, exec, workers)
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
	return e.topologyResult(nodes, exec, e.workers)
}

// topologyResult applies the engine's optimization stack to a finished
// growing phase and judges the topology against G_R from the engine's
// propagation authority, so a shadowed run is judged against the links
// that actually exist — the shared back half of Run and Simulate.
func (e *Engine) topologyResult(nodes []Point, exec *core.Execution, workers int) (*Result, error) {
	topo, err := core.BuildTopology(exec, e.opts)
	if err != nil {
		return nil, err
	}
	return newResult(nodes, e.model, topo, topo.G, core.MaxPowerGraph(nodes, e.prop, nil, workers), nil), nil
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
	exec, _, err := proto.RunCBTC(ctx, nodes, simOpts, pcfg)
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
	gr := core.MaxPowerGraph(nodes, e.prop, nil, e.workers)
	radii := make([]float64, len(nodes))
	for i := range radii {
		radii[i] = e.model.MaxRadius // the baseline transmits at R regardless
	}
	res := newResult(nodes, e.model, nil, gr, gr, radii)
	res.AvgRadius = e.model.MaxRadius // exactly R, not a rounded sum of n copies
	return res, nil
}
