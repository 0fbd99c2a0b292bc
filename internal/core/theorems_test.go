package core

import (
	"math"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/workload"
)

// --- Theorem 2.1: for α ≤ 5π/6 the symmetric closure G_α preserves ---
// --- the connectivity of G_R.                                       ---

func TestConnectivityPreservedTheorem21(t *testing.T) {
	m := defaultModel()
	alphas := []float64{math.Pi / 3, math.Pi / 2, AlphaAsymmetric, 2.3, AlphaConnectivity}
	for _, alpha := range alphas {
		for seed := uint64(0); seed < 20; seed++ {
			pos := workload.Uniform(workload.Rand(seed), 70, 1500, 1500)
			gr := MaxPowerGraph(pos, m, nil, 1)
			e := mustRun(t, pos, m, alpha)
			galpha := e.Nalpha().SymmetricClosure()
			if !graph.SamePartition(gr, galpha) {
				t.Errorf("alpha=%.4f seed=%d: G_α changed the component partition", alpha, seed)
			}
		}
	}
}

func TestConnectivityPreservedOnStructuredLayouts(t *testing.T) {
	m := defaultModel()
	layouts := map[string][]geom.Point{
		"chain":     workload.Chain(30, 400),
		"ring":      workload.Ring(24, 700, 1500, 1500),
		"grid":      workload.Grid(workload.Rand(2), 49, 40, 1500, 1500),
		"clustered": workload.Clustered(workload.Rand(3), 60, 4, 120, 1500, 1500),
	}
	for name, pos := range layouts {
		t.Run(name, func(t *testing.T) {
			gr := MaxPowerGraph(pos, m, nil, 1)
			e := mustRun(t, pos, m, AlphaConnectivity)
			if !graph.SamePartition(gr, e.Nalpha().SymmetricClosure()) {
				t.Errorf("G_α changed the component partition")
			}
		})
	}
}

// --- Theorem 2.4: for α > 5π/6 connectivity can break (Figure 5). ---

func TestFigure5DisconnectsTheorem24(t *testing.T) {
	m := defaultModel()
	for _, eps := range []float64{0.05, 0.1, 0.3} {
		alpha := AlphaConnectivity + eps
		pos, err := workload.Figure5(eps, m.MaxRadius)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		gr := MaxPowerGraph(pos, m, nil, 1)
		if !graph.IsConnected(gr) {
			t.Fatalf("eps=%v: G_R must be connected", eps)
		}
		e := mustRun(t, pos, m, alpha)
		galpha := e.Nalpha().SymmetricClosure()
		if graph.IsConnected(galpha) {
			t.Errorf("eps=%v: G_α must be disconnected for α = 5π/6 + %v", eps, eps)
		}
		if got := graph.ComponentCount(galpha); got != 2 {
			t.Errorf("eps=%v: components = %d, want the 2 clusters", eps, got)
		}
		// The failure is precisely the loss of the (u0, v0) bridge.
		if galpha.HasEdge(0, 4) {
			t.Errorf("eps=%v: bridge edge (u0,v0) unexpectedly present", eps)
		}
		if !gr.HasEdge(0, 4) {
			t.Errorf("eps=%v: bridge edge (u0,v0) missing from G_R", eps)
		}
	}
}

// The same placement stays connected when run at exactly α = 5π/6: the
// bound is tight from both sides.
func TestFigure5ConnectedAtTightBound(t *testing.T) {
	m := defaultModel()
	pos, err := workload.Figure5(0.1, m.MaxRadius)
	if err != nil {
		t.Fatal(err)
	}
	e := mustRun(t, pos, m, AlphaConnectivity)
	galpha := e.Nalpha().SymmetricClosure()
	if !graph.IsConnected(galpha) {
		t.Errorf("G_{5π/6} must stay connected on the Figure 5 placement")
	}
}

// --- Example 2.1: N_α is not symmetric for 2π/3 < α ≤ 5π/6. ---

func TestExample21Asymmetry(t *testing.T) {
	m := defaultModel()
	for _, alpha := range []float64{2*math.Pi/3 + 0.1, 2*math.Pi/3 + 0.2, AlphaConnectivity} {
		pos, err := workload.Example21(alpha, m.MaxRadius)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		e := mustRun(t, pos, m, alpha)
		n := e.Nalpha()

		const u0, v = 0, 4
		if !n.HasArc(v, u0) {
			t.Errorf("alpha=%v: (v,u0) must be in N_α", alpha)
		}
		if n.HasArc(u0, v) {
			t.Errorf("alpha=%v: (u0,v) must NOT be in N_α", alpha)
		}
		// The paper states N_α(u0) = {u1, u2, u3} and N_α(v) = {u0}.
		if got := n.Successors(u0); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("alpha=%v: N_α(u0) = %v, want [1 2 3]", alpha, got)
		}
		if got := n.Successors(v); len(got) != 1 || got[0] != u0 {
			t.Errorf("alpha=%v: N_α(v) = %v, want [0]", alpha, got)
		}

		// Without the symmetric closure, u0 and v would be disconnected;
		// the closure restores the edge (the reason E_α is defined as the
		// closure).
		if !n.SymmetricClosure().HasEdge(u0, v) {
			t.Errorf("alpha=%v: symmetric closure must contain (u0,v)", alpha)
		}
		if n.MutualSubgraph().HasEdge(u0, v) {
			t.Errorf("alpha=%v: mutual subgraph must not contain (u0,v)", alpha)
		}
	}
}

// For α ≤ 2π/3 the relation needs no closure on Example 2.1-style
// configurations: Lemma 3.3's regime.
func TestNoAsymmetryBreakageBelowTwoThirds(t *testing.T) {
	m := defaultModel()
	for seed := uint64(0); seed < 15; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 60, 1500, 1500)
		gr := MaxPowerGraph(pos, m, nil, 1)
		e := mustRun(t, pos, m, AlphaAsymmetric)
		mutual := e.Nalpha().MutualSubgraph()
		if !graph.SamePartition(gr, mutual) {
			t.Errorf("seed=%d: E⁻_{2π/3} changed the component partition", seed)
		}
	}
}
