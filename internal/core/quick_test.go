package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"cbtc/internal/graph"
	"cbtc/internal/workload"
)

// Theorem 2.1 as a quick property: any placement, any α ≤ 5π/6.
func TestQuickConnectivityPreserved(t *testing.T) {
	m := defaultModel()
	f := func(seed uint64, nRaw uint8, alphaRaw float64) bool {
		if math.IsNaN(alphaRaw) {
			return true
		}
		n := int(nRaw%50) + 5
		alpha := 0.3 + math.Mod(math.Abs(alphaRaw), 1)*(AlphaConnectivity-0.3)
		pos := workload.Uniform(workload.Rand(seed), n, 1500, 1500)
		exec, err := Run(context.Background(), pos, m, alpha, 1)
		if err != nil {
			return false
		}
		return graph.SamePartition(MaxPowerGraph(pos, m, nil, 1), exec.Nalpha().SymmetricClosure())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The oracle is a pure function of its inputs.
func TestQuickOracleDeterministic(t *testing.T) {
	m := defaultModel()
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		pos := workload.Uniform(workload.Rand(seed), n, 1500, 1500)
		a, err := Run(context.Background(), pos, m, AlphaConnectivity, 1)
		if err != nil {
			return false
		}
		b, err := Run(context.Background(), pos, m, AlphaConnectivity, 1)
		if err != nil {
			return false
		}
		for u := range pos {
			if a.Nodes[u].GrowPower != b.Nodes[u].GrowPower ||
				a.Nodes[u].Boundary != b.Nodes[u].Boundary ||
				len(a.Nodes[u].Neighbors) != len(b.Nodes[u].Neighbors) {
				return false
			}
			for i := range a.Nodes[u].Neighbors {
				if a.Nodes[u].Neighbors[i] != b.Nodes[u].Neighbors[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Per-node growing power is monotone non-increasing in α.
func TestQuickPowerMonotoneInAlpha(t *testing.T) {
	m := defaultModel()
	f := func(seed uint64, aRaw, bRaw float64) bool {
		if math.IsNaN(aRaw) || math.IsNaN(bRaw) {
			return true
		}
		a := 0.3 + math.Mod(math.Abs(aRaw), 1)*(AlphaConnectivity-0.3)
		b := 0.3 + math.Mod(math.Abs(bRaw), 1)*(AlphaConnectivity-0.3)
		if a > b {
			a, b = b, a
		}
		pos := workload.Uniform(workload.Rand(seed), 30, 1500, 1500)
		ea, err := Run(context.Background(), pos, m, a, 1)
		if err != nil {
			return false
		}
		eb, err := Run(context.Background(), pos, m, b, 1)
		if err != nil {
			return false
		}
		for u := range pos {
			// Wider cone (b ≥ a) is weaker: p_{u,b} ≤ p_{u,a}.
			if eb.Nodes[u].GrowPower > ea.Nodes[u].GrowPower+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The optimization pipeline only ever removes: all-ops ⊆ shrink-closure
// ⊆ basic closure ⊆ G_R.
func TestQuickPipelineSubgraphChain(t *testing.T) {
	m := defaultModel()
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 5
		pos := workload.Uniform(workload.Rand(seed), n, 1500, 1500)
		exec, err := Run(context.Background(), pos, m, AlphaConnectivity, 1)
		if err != nil {
			return false
		}
		basic, err := BuildTopology(exec, Options{})
		if err != nil {
			return false
		}
		shrunk, err := BuildTopology(exec, Options{ShrinkBack: true})
		if err != nil {
			return false
		}
		all, err := BuildTopology(exec, Options{ShrinkBack: true, PairwiseRemoval: true})
		if err != nil {
			return false
		}
		gr := MaxPowerGraph(pos, m, nil, 1)
		return all.G.IsSubgraphOf(shrunk.G) &&
			shrunk.G.IsSubgraphOf(basic.G) &&
			basic.G.IsSubgraphOf(gr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Shrink-back and non-contributing removal are idempotent.
func TestQuickShrinkIdempotent(t *testing.T) {
	m := defaultModel()
	f := func(seed uint64) bool {
		pos := workload.Uniform(workload.Rand(seed), 40, 1500, 1500)
		exec, err := Run(context.Background(), pos, m, AlphaConnectivity, 1)
		if err != nil {
			return false
		}
		once := ShrinkBack(exec)
		twice := ShrinkBack(once)
		for u := range pos {
			if len(once.Nodes[u].Neighbors) != len(twice.Nodes[u].Neighbors) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Clone isolation: transformations never mutate their input.
func TestQuickTransformsDoNotMutate(t *testing.T) {
	m := defaultModel()
	f := func(seed uint64) bool {
		pos := workload.Uniform(workload.Rand(seed), 30, 1500, 1500)
		exec, err := Run(context.Background(), pos, m, AlphaConnectivity, 1)
		if err != nil {
			return false
		}
		before := exec.Clone()
		_ = ShrinkBack(exec)
		if _, err := BuildTopology(exec, Options{ShrinkBack: true, PairwiseRemoval: true}); err != nil {
			return false
		}
		for u := range pos {
			if len(exec.Nodes[u].Neighbors) != len(before.Nodes[u].Neighbors) {
				return false
			}
			for i := range exec.Nodes[u].Neighbors {
				if exec.Nodes[u].Neighbors[i] != before.Nodes[u].Neighbors[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
