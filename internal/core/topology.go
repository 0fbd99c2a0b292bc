package core

import (
	"fmt"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
)

// Options selects which of the paper's optimizations (§3) to apply on
// top of the basic CBTC(α) growing phase. The zero value is the basic
// algorithm.
type Options struct {
	// ShrinkBack enables op1 (§3.1).
	ShrinkBack bool
	// AsymmetricRemoval enables op2 (§3.2): keep only mutual edges
	// (E⁻_α) instead of the symmetric closure (E_α). Valid only for
	// α ≤ 2π/3; BuildTopology rejects larger angles.
	AsymmetricRemoval bool
	// PairwiseRemoval enables op3 (§3.3).
	PairwiseRemoval bool
	// PairwisePolicy selects the op3 removal rule; the zero value means
	// PairwiseLengthFiltered, the paper's practical rule.
	PairwisePolicy PairwisePolicy
}

// Validate checks option consistency against the cone angle.
func (o Options) Validate(alpha float64) error {
	if o.AsymmetricRemoval && alpha > AlphaAsymmetric+geom.Eps {
		return fmt.Errorf("%w: alpha = %v", ErrAlphaTooLargeForAsym, alpha)
	}
	return nil
}

// Topology is the final output of the CBTC pipeline: the symmetric
// communication graph plus everything needed to analyze it.
type Topology struct {
	// Exec is the (possibly shrunk) execution the graph was derived from.
	Exec *Execution
	// Nalpha is the directed neighbor relation after per-node pruning
	// (shrink-back).
	Nalpha *graph.Digraph
	// G is the final symmetric graph: E_α, E^s_α, E⁻_α or the pairwise-
	// pruned variant, depending on Options.
	G *graph.Graph
	// Gpre is the symmetric graph before pairwise edge removal. The §4
	// beacon rule needs it: beacons must reach all neighbors in E_α, not
	// just the pairwise-pruned E^nr_α. Equal to G when op3 is off.
	Gpre *graph.Graph
	// RemovedRedundant lists the edges deleted by pairwise removal.
	RemovedRedundant []graph.Edge
	// Opts records the options the pipeline ran with.
	Opts Options
}

// BuildTopology applies the selected optimization stack to a CBTC
// execution, in the paper's order: shrink-back (op1), then symmetrization
// — closure for the basic algorithm, mutual subset under asymmetric edge
// removal (op2) — then pairwise edge removal (op3).
func BuildTopology(e *Execution, opts Options) (*Topology, error) {
	if err := opts.Validate(e.Alpha); err != nil {
		return nil, err
	}

	exec := e
	if opts.ShrinkBack {
		exec = ShrinkBack(exec)
	}

	n := exec.Nalpha()
	var g *graph.Graph
	if opts.AsymmetricRemoval {
		g = n.MutualSubgraph()
	} else {
		g = n.SymmetricClosure()
	}

	gpre := g
	var removed []graph.Edge
	if opts.PairwiseRemoval {
		g, removed = PairwiseRemoval(g, exec.Pos, opts.PairwisePolicy)
	}

	return &Topology{
		Exec:             exec,
		Nalpha:           n,
		G:                g,
		Gpre:             gpre,
		RemovedRedundant: removed,
		Opts:             opts,
	}, nil
}

// BeaconPower returns the power node u's NDP beacon must use so that
// reconfiguration preserves connectivity (§4):
//
//   - reach every neighbor in the pre-pairwise symmetric graph (E_α, or
//     E⁻_α under asymmetric removal) — pairwise-removed edges still need
//     beacon coverage;
//   - if shrink-back is on, boundary nodes must beacon with the power
//     the BASIC algorithm computed (maximum power), or two shrunk-back
//     boundary nodes drifting into range would never hear each other and
//     a re-joined network would stay partitioned.
func (t *Topology) BeaconPower(u int) float64 {
	p := t.Exec.Model.PowerFor(graph.NodeRadius(t.Gpre, t.Exec.Pos, u))
	if t.Opts.ShrinkBack && t.Exec.Nodes[u].Boundary {
		// GrowPower of a boundary node is the maximum power P.
		if gp := t.Exec.Nodes[u].GrowPower; gp > p {
			p = gp
		}
	}
	return p
}

// Radius returns node u's transmission radius in the final graph: the
// distance to its farthest neighbor in G.
func (t *Topology) Radius(u int) float64 {
	return graph.NodeRadius(t.G, t.Exec.Pos, u)
}

// Summary holds the aggregate statistics the paper's Table 1 reports.
type Summary struct {
	// AvgDegree is the mean node degree of the final graph.
	AvgDegree float64
	// AvgRadius is the mean per-node transmission radius.
	AvgRadius float64
	// Edges is the number of edges in the final graph.
	Edges int
	// Components is the number of connected components.
	Components int
	// BoundaryNodes counts nodes that still had an α-gap at max power.
	BoundaryNodes int
}

// Summarize computes the aggregate statistics of the topology.
func (t *Topology) Summarize() Summary {
	boundary := 0
	for _, nr := range t.Exec.Nodes {
		if nr.Boundary {
			boundary++
		}
	}
	return Summary{
		AvgDegree:     graph.AvgDegree(t.G),
		AvgRadius:     graph.AvgRadius(t.G, t.Exec.Pos),
		Edges:         t.G.EdgeCount(),
		Components:    graph.ComponentCount(t.G),
		BoundaryNodes: boundary,
	}
}
