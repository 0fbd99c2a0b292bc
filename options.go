package cbtc

import (
	"cbtc/internal/core"
	"cbtc/internal/radio"
)

// settings accumulates functional options before New validates them
// into an immutable Engine.
type settings struct {
	alpha          float64
	model          radio.Model // zero until WithMaxRadius or WithRadioModel
	opts           core.Options
	allOpts        bool
	scheduleFactor float64
	workers        int

	// shadowing (WithShadowing)
	useShadow   bool
	shadowSigma float64
	shadowSeed  uint64

	// battery (WithBattery)
	useBattery   bool
	batteryCap   float64
	batteryDrain float64
}

// Option configures an Engine under construction. Options only record
// intent; New performs all validation, so an invalid combination
// surfaces as a single ErrBadConfig from New.
type Option func(*settings)

// WithAlpha sets the cone angle in radians. Zero means AlphaConnectivity
// (5π/6); connectivity is only guaranteed for α ≤ 5π/6.
func WithAlpha(alpha float64) Option {
	return func(s *settings) { s.alpha = alpha }
}

// WithMaxRadius sets R, the distance reachable at maximum power, under
// the paper's free-space power law. It is shorthand for
// WithRadioModel(RadioModel{Exponent: 2, MaxRadius: r, RefLoss: 1});
// like every radio option it replaces the whole model, so the later of
// WithMaxRadius and WithRadioModel wins.
func WithMaxRadius(r float64) Option {
	return WithRadioModel(radio.Default(r))
}

// RadioModel is the nominal power-law radio model: reaching distance d
// costs power RefLoss·d^Exponent, and MaxRadius is the distance
// reachable at maximum power. It aliases the internal propagation type
// so callers outside the module can construct one for WithRadioModel;
// New validates the fields (Exponent ≥ 1, positive MaxRadius and
// RefLoss) and rejects bad values with ErrBadConfig.
type RadioModel = radio.Model

// WithRadioModel installs the nominal power-law radio model wholesale:
// exponent, maximum radius and reference loss. A radio model is
// required, through this option or WithMaxRadius; the later one wins.
func WithRadioModel(m RadioModel) Option {
	return func(s *settings) { s.model = m }
}

// WithShadowing replaces the uniform power law with a deterministic
// log-distance model: each link (u, v) carries a shadowing term in
// [−sigmaDB, +sigmaDB] decibels hashed from (seed, u, v), perturbing the
// power the link needs. The nominal model (WithRadioModel or
// WithMaxRadius) remains the hardware curve — maximum power, schedules
// and node-side distance estimation still derive from it. Zero sigmaDB
// is valid and degenerates to the nominal law.
func WithShadowing(sigmaDB float64, seed uint64) Option {
	return func(s *settings) {
		s.useShadow = true
		s.shadowSigma = sigmaDB
		s.shadowSeed = seed
	}
}

// WithBattery gives every node a battery of the given capacity (energy
// units) and enables per-tick drain in Sessions and Fleets: each tick a
// live node is charged drain × p(radius) — its transmit power at the
// installed broadcast radius scaled by the drain coefficient — and a
// node whose battery empties dies (Sessions surface it via Depleted;
// LifetimeTick converts deaths into Leave events). Capacity must be
// positive and drain non-negative.
func WithBattery(capacity, drain float64) Option {
	return func(s *settings) {
		s.useBattery = true
		s.batteryCap = capacity
		s.batteryDrain = drain
	}
}

// WithShrinkBack enables optimization 1 (§3.1): after the growing phase
// each node drops trailing discovery-power levels whose removal leaves
// its cone coverage unchanged.
func WithShrinkBack() Option {
	return func(s *settings) { s.opts.ShrinkBack = true }
}

// WithAsymmetricRemoval enables optimization 2 (§3.2): keep only mutual
// edges instead of the symmetric closure. Requires α ≤ 2π/3; New rejects
// larger angles.
func WithAsymmetricRemoval() Option {
	return func(s *settings) { s.opts.AsymmetricRemoval = true }
}

// WithPairwiseRemoval enables optimization 3 (§3.3) under the given
// removal policy. Pass PairwiseLengthFiltered for the paper's practical
// rule; the zero policy value means the same default.
func WithPairwiseRemoval(policy PairwisePolicy) Option {
	return func(s *settings) {
		s.opts.PairwiseRemoval = true
		s.opts.PairwisePolicy = policy
	}
}

// WithAllOptimizations enables every optimization applicable at the
// engine's cone angle — the paper's "with all opt" configuration:
// shrink-back and pairwise removal always, asymmetric removal exactly
// when α ≤ 2π/3. It is applied at New time, after all other options, so
// it composes with WithAlpha in either order; a pairwise policy set by
// WithPairwiseRemoval is kept.
func WithAllOptimizations() Option {
	return func(s *settings) { s.allOpts = true }
}

// WithShrinkBackSchedule quantizes discovery-power tags to the discrete
// broadcast schedule p₀·factor^k (p₀ = MaxPower/1024), matching the
// power levels a real protocol run would use. The oracle's exact tags
// make shrink-back slightly too fine-grained compared to the paper's
// simulation; factor 1.5 reproduces the published Table 1 op1 row.
// Factor must exceed 1.
func WithShrinkBackSchedule(factor float64) Option {
	return func(s *settings) { s.scheduleFactor = factor }
}

// WithWorkers fixes the number of worker goroutines Engine.RunBatch
// fans placements across. Zero (the default) means GOMAXPROCS; one
// yields a deterministic serial batch.
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}
