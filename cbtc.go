// Package cbtc is a library implementation of the cone-based distributed
// topology control algorithm (CBTC) analyzed in:
//
//	Li Li, Joseph Y. Halpern, Paramvir Bahl, Yi-Min Wang, Roger
//	Wattenhofer. "Analysis of a Cone-Based Distributed Topology Control
//	Algorithm for Wireless Multi-hop Networks." PODC 2001.
//
// CBTC(α) lets every node of a wireless multi-hop network find the
// minimum transmission power such that every cone of degree α around it
// contains a reachable neighbor, using only directional (angle-of-
// arrival) information — no GPS. The paper proves α = 5π/6 is a tight
// bound for the resulting symmetric graph G_α to preserve the
// connectivity of the maximum-power graph G_R, and adds three
// power-reducing optimizations that keep the guarantee.
//
// # The Engine
//
// The primary entry point is the Engine, built once from functional
// options and then immutable and safe for concurrent use:
//
//	eng, err := cbtc.New(
//		cbtc.WithMaxRadius(500),
//		cbtc.WithAlpha(cbtc.AlphaConnectivity),
//		cbtc.WithAllOptimizations(),
//	)
//	res, err := eng.Run(ctx, nodes)
//
// An Engine offers three executors with one output type:
//
//   - Engine.Run computes the topology under the exact minimal-power
//     semantics of the paper's analysis (fast, deterministic; what the
//     evaluation harness uses).
//   - Engine.Simulate runs the actual distributed Hello/Ack protocol of
//     the paper's Figure 1 over a discrete-event radio simulator,
//     supporting lossy channels and angle-of-arrival noise.
//   - Engine.RunBatch fans many independent placements across a worker
//     pool — the shape of every Monte-Carlo experiment in the paper's §5.
//
// All executor methods honor context cancellation. Each returns a Result
// carrying the final graph and the per-node power assignment, plus the
// metrics the paper's Table 1 reports.
//
// # Sessions: dynamic reconfiguration (§4)
//
// Engine.NewSession maintains a long-lived, evolving topology under the
// paper's §4 reconfiguration semantics: Join, Leave and Move events
// repair the topology incrementally — only nodes whose neighborhood the
// event could have changed are recomputed — and Snapshot returns the
// live Result at any point. The maintained state always equals what a
// fresh Engine.Run over the current live placement would produce.
//
// # Configuration
//
// Options are the only way to configure an Engine. The paper's
// parameters map onto them one to one: the cone angle α (WithAlpha), the
// power model p(d) (WithRadioModel, or WithMaxRadius for the free-space
// law), and the three §3 optimizations (WithShrinkBack,
// WithAsymmetricRemoval, WithPairwiseRemoval, or WithAllOptimizations
// for every one applicable at α). New validates the whole stack once and
// rejects an invalid combination with ErrBadConfig:
//
//	eng, err := cbtc.New(
//		cbtc.WithRadioModel(cbtc.RadioModel{Exponent: 4, MaxRadius: 500, RefLoss: 1}),
//		cbtc.WithAlpha(cbtc.AlphaAsymmetric),
//		cbtc.WithShrinkBack(),
//		cbtc.WithAsymmetricRemoval(),
//	)
package cbtc

import (
	"errors"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
)

// Point is a node position in the plane.
type Point = geom.Point

// Graph is an undirected topology over node indices.
type Graph = graph.Graph

// Edge is an undirected edge between node indices.
type Edge = graph.Edge

// PairwisePolicy selects which redundant edges pairwise edge removal
// (§3.3) deletes; see the constants for the choices.
type PairwisePolicy = core.PairwisePolicy

// The pairwise edge removal policies of §3.3. Theorem 3.6 proves every
// subset of the redundant edges is safe to remove; the policies differ
// in the power/throughput trade-off.
const (
	// PairwiseLengthFiltered is the paper's practical rule: remove a
	// redundant edge only when it is longer than the longest
	// non-redundant edge at the detecting endpoint.
	PairwiseLengthFiltered = core.PairwiseLengthFiltered
	// PairwiseRemoveAll removes every redundant edge (Theorem 3.6).
	PairwiseRemoveAll = core.PairwiseRemoveAll
	// PairwiseEitherEndpoint removes a redundant edge that is longer than
	// the longest non-redundant edge at either endpoint.
	PairwiseEitherEndpoint = core.PairwiseEitherEndpoint
	// PairwiseBothEndpoints removes a redundant edge only when both
	// endpoints benefit.
	PairwiseBothEndpoints = core.PairwiseBothEndpoints
)

// The two cone angles the paper analyzes.
const (
	// AlphaConnectivity = 5π/6: the tight bound of Theorems 2.1/2.4.
	AlphaConnectivity = core.AlphaConnectivity
	// AlphaAsymmetric = 2π/3: the largest angle admitting asymmetric
	// edge removal (Theorem 3.2).
	AlphaAsymmetric = core.AlphaAsymmetric
)

// ErrBadConfig reports an invalid engine configuration.
var ErrBadConfig = errors.New("cbtc: invalid config")

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// SimOptions configures the distributed execution of Engine.Simulate.
type SimOptions struct {
	// Seed drives all simulator randomness. Same seed, same run.
	Seed uint64
	// Latency is the per-message delay; zero means 1 time unit.
	Latency float64
	// Jitter adds uniform random delay in [0, Jitter).
	Jitter float64
	// DropProb drops each delivery with this probability.
	DropProb float64
	// DupProb duplicates each delivery with this probability.
	DupProb float64
	// AoANoise is the bearing measurement noise (radians, std dev).
	AoANoise float64
	// InitialPower is p₀ of the growing phase; zero means MaxPower/1024.
	InitialPower float64
	// IncreaseFactor is the power growth multiplier per round; zero
	// means 2 (the paper's doubling).
	IncreaseFactor float64
}
