package cbtc

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestRunBaselineKinds(t *testing.T) {
	nodes := someNetwork(20, 80)
	for _, kind := range BaselineKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			res, err := paperEngine(t).Baseline(kind, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if !res.PreservesConnectivity() {
				t.Errorf("%v must preserve the G_R partition", kind)
			}
			if !res.G.IsSubgraphOf(res.GR) {
				t.Errorf("%v must be a subgraph of G_R", kind)
			}
			if res.AvgDegree <= 0 || res.AvgRadius <= 0 {
				t.Errorf("%v produced empty metrics", kind)
			}
			for u, rad := range res.Radii {
				if math.Abs(res.Powers[u]-res.PowerCost(rad)) > 1e-6 {
					t.Errorf("%v node %d: power/radius inconsistent", kind, u)
				}
			}
		})
	}
}

func TestRunBaselineUnknownKind(t *testing.T) {
	if _, err := paperEngine(t).Baseline(BaselineKind(99), someNetwork(1, 5)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
	if got := BaselineKind(99).String(); got != "BaselineKind(99)" {
		t.Errorf("String = %q", got)
	}
}

// The comparison the paper's related-work discussion implies: CBTC with
// all optimizations achieves degree and radius in the same class as the
// position-based constructions, without any position information.
func TestCBTCCompetitiveWithBaselines(t *testing.T) {
	nodes := someNetwork(21, 100)
	cbtcRes := paperRun(t, nodes, WithAllOptimizations())
	rng, err := paperEngine(t).Baseline(BaselineRNG, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Within a factor 2 of RNG on both metrics (empirically ~1.1-1.3).
	if cbtcRes.AvgDegree > 2*rng.AvgDegree {
		t.Errorf("CBTC degree %v not competitive with RNG %v", cbtcRes.AvgDegree, rng.AvgDegree)
	}
	if cbtcRes.AvgRadius > 2*rng.AvgRadius {
		t.Errorf("CBTC radius %v not competitive with RNG %v", cbtcRes.AvgRadius, rng.AvgRadius)
	}
}

// The min-max-radius baseline is optimal for the max-radius objective;
// nothing beats its bottleneck.
func TestMinMaxRadiusOptimality(t *testing.T) {
	nodes := someNetwork(22, 60)
	mm, err := paperEngine(t).Baseline(BaselineMinMaxRadius, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cbtcRes := paperRun(t, nodes, WithAllOptimizations())
	bottleneck := cbtcRes.BottleneckRadius()
	if mm.MaxRadius() < bottleneck-1e-9 {
		t.Errorf("min-max baseline %v beat the bottleneck %v (impossible)", mm.MaxRadius(), bottleneck)
	}
	if cbtcRes.MaxRadius() < bottleneck-1e-9 {
		t.Errorf("CBTC max radius %v beat the bottleneck %v (impossible)", cbtcRes.MaxRadius(), bottleneck)
	}
}

func TestInterferenceReduction(t *testing.T) {
	nodes := someNetwork(23, 100)
	maxp := paperMaxPower(t, nodes)
	opt := paperRun(t, nodes, WithAllOptimizations())
	if opt.AvgInterference() >= maxp.AvgInterference() {
		t.Errorf("topology control must reduce interference: %v vs %v",
			opt.AvgInterference(), maxp.AvgInterference())
	}
	if opt.MaxInterference() > maxp.MaxInterference() {
		t.Errorf("max interference must not grow: %v vs %v",
			opt.MaxInterference(), maxp.MaxInterference())
	}
}

func TestDiameterGrowsUnderSparsification(t *testing.T) {
	nodes := someNetwork(24, 100)
	maxp := paperMaxPower(t, nodes)
	opt := paperRun(t, nodes, WithAllOptimizations())
	if opt.Diameter() < maxp.Diameter() {
		t.Errorf("removing edges cannot shrink the diameter: %d vs %d",
			opt.Diameter(), maxp.Diameter())
	}
	if opt.Diameter() == 0 {
		t.Errorf("connected 100-node topology must have a positive diameter")
	}
}

func TestBiconnectivityReporting(t *testing.T) {
	// A dense clique-ish placement is biconnected at max power.
	nodes := []Point{Pt(0, 0), Pt(100, 0), Pt(50, 80), Pt(60, 30)}
	maxp := paperMaxPower(t, nodes)
	if !maxp.IsBiconnected() {
		t.Errorf("4-clique must be biconnected")
	}
	if pts := maxp.ArticulationPoints(); len(pts) != 0 {
		t.Errorf("clique has no articulation points, got %v", pts)
	}
	// A chain is connected but not biconnected; every interior node cuts.
	chain := []Point{Pt(0, 0), Pt(400, 0), Pt(800, 0), Pt(1200, 0)}
	res := paperRun(t, chain)
	if res.IsBiconnected() {
		t.Errorf("chain must not be biconnected")
	}
	if pts := res.ArticulationPoints(); len(pts) != 2 {
		t.Errorf("chain articulation points = %v, want the 2 interior nodes", pts)
	}
}

func TestRunBetaSkeletonPublicAPI(t *testing.T) {
	nodes := someNetwork(25, 60)
	gg, err := paperEngine(t).Baseline(BaselineGabriel, nodes)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := paperEngine(t).BetaSkeleton(1, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !b1.G.Equal(gg.G) {
		t.Errorf("β=1 skeleton must equal the Gabriel graph")
	}
	rng, err := paperEngine(t).Baseline(BaselineRNG, nodes)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := paperEngine(t).BetaSkeleton(2, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.G.Equal(rng.G) {
		t.Errorf("β=2 skeleton must equal the RNG")
	}
	if !b2.PreservesConnectivity() {
		t.Errorf("β=2 skeleton must preserve connectivity")
	}
	if _, err := paperEngine(t).BetaSkeleton(0.5, nodes); !errors.Is(err, ErrBadConfig) {
		t.Errorf("β < 1 must be rejected, got %v", err)
	}
}

// TestBaselinesInsideGR pins the single G_R authority: every
// position-based construction, on a nominal and on a shadowed engine,
// must stay inside G_R and report the very G_R Engine.MaxPower builds. A
// construction with a range predicate of its own fails on the shadowed
// engine, where links depend on more than distance.
func TestBaselinesInsideGR(t *testing.T) {
	engines := map[string]*Engine{
		"nominal":  paperEngine(t),
		"shadowed": paperEngine(t, WithShadowing(8, 9)),
	}
	for name, eng := range engines {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 20; seed++ {
				nodes := someNetwork(seed, 200)
				mp, err := eng.MaxPower(nodes)
				if err != nil {
					t.Fatal(err)
				}
				residual := make([]float64, len(nodes))
				for u := range residual {
					residual[u] = float64(u % 7) // every seventh node drained
				}
				check := func(label string, res *Result, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, label, err)
					}
					if !res.G.IsSubgraphOf(res.GR) {
						t.Errorf("seed %d %s: G is not a subgraph of its G_R", seed, label)
					}
					if !res.GR.Equal(mp.GR) {
						t.Errorf("seed %d %s: G_R differs from MaxPower's", seed, label)
					}
				}
				for _, kind := range BaselineKinds() {
					res, err := eng.Baseline(kind, nodes)
					check(kind.String(), res, err)
				}
				res, err := eng.EnergyBaseline(nodes, residual)
				check("energy-baseline", res, err)
				for _, beta := range []float64{1, 1.5, 2} {
					res, err := eng.BetaSkeleton(beta, nodes)
					check(fmt.Sprintf("beta-skeleton(%v)", beta), res, err)
				}
			}
		})
	}
}
