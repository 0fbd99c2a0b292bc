package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"cbtc/internal/geom"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

func defaultModel() radio.Model { return radio.Default(workload.PaperRadius) }

func mustRun(t *testing.T, pos []geom.Point, m radio.Model, alpha float64) *Execution {
	t.Helper()
	e, err := Run(context.Background(), pos, m, alpha, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

func TestRunValidation(t *testing.T) {
	m := defaultModel()
	pos := []geom.Point{geom.Pt(0, 0)}
	tests := []struct {
		name    string
		alpha   float64
		wantErr error
	}{
		{"zero alpha", 0, ErrBadAlpha},
		{"negative alpha", -1, ErrBadAlpha},
		{"alpha above 2π", 7, ErrBadAlpha},
		{"nan alpha", math.NaN(), ErrBadAlpha},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(context.Background(), pos, m, tt.alpha, 1); !errors.Is(err, tt.wantErr) {
				t.Errorf("Run error = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if _, err := Run(context.Background(), []geom.Point{{X: math.NaN()}}, m, math.Pi, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN position must be rejected")
	}
	if _, err := Run(context.Background(), pos, radio.Model{}, math.Pi, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("invalid model must be rejected")
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	m := defaultModel()
	e := mustRun(t, nil, m, AlphaConnectivity)
	if e.Len() != 0 {
		t.Errorf("empty network must stay empty")
	}
	e = mustRun(t, []geom.Point{geom.Pt(0, 0)}, m, AlphaConnectivity)
	nr := e.Nodes[0]
	if !nr.Boundary || nr.GrowPower != m.MaxPower() || len(nr.Neighbors) != 0 {
		t.Errorf("a lone node is a boundary node at max power: %+v", nr)
	}
}

func TestRunPair(t *testing.T) {
	m := defaultModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	e := mustRun(t, pos, m, AlphaConnectivity)
	for u := 0; u < 2; u++ {
		nr := e.Nodes[u]
		// A pair can never close every cone: both are boundary nodes, but
		// they do discover each other.
		if !nr.Boundary {
			t.Errorf("node %d: want boundary", u)
		}
		if len(nr.Neighbors) != 1 || nr.Neighbors[0].ID != 1-u {
			t.Errorf("node %d neighbors = %+v, want the other node", u, nr.Neighbors)
		}
		if !almostEq(nr.Neighbors[0].Dist, 100, 1e-9) {
			t.Errorf("node %d neighbor dist = %v, want 100", u, nr.Neighbors[0].Dist)
		}
	}
}

func TestRunOutOfRangePair(t *testing.T) {
	m := defaultModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(501, 0)}
	e := mustRun(t, pos, m, AlphaConnectivity)
	for u := 0; u < 2; u++ {
		if len(e.Nodes[u].Neighbors) != 0 {
			t.Errorf("node %d discovered an out-of-range neighbor", u)
		}
	}
}

// A node surrounded by a tight ring of neighbors stops at the ring
// distance: the minimal-power semantics.
func TestRunStopsAtMinimalPower(t *testing.T) {
	m := defaultModel()
	center := geom.Pt(750, 750)
	pos := []geom.Point{center}
	// 8 ring nodes at distance 100: consecutive angular gaps π/4 < 5π/6.
	for i := 0; i < 8; i++ {
		pos = append(pos, center.Polar(100, float64(i)*geom.TwoPi/8))
	}
	// A far node at distance 400 that must NOT be discovered by node 0.
	pos = append(pos, center.Polar(400, 0.3))

	e := mustRun(t, pos, m, AlphaConnectivity)
	nr := e.Nodes[0]
	if nr.Boundary {
		t.Fatalf("ring closes every cone; node 0 must not be a boundary node")
	}
	if !almostEq(nr.GrowPower, m.PowerFor(100), 1e-6) {
		t.Errorf("GrowPower = %v, want p(100) = %v", nr.GrowPower, m.PowerFor(100))
	}
	if len(nr.Neighbors) != 8 {
		t.Errorf("node 0 discovered %d neighbors, want exactly the 8-ring", len(nr.Neighbors))
	}
	for _, nb := range nr.Neighbors {
		if nb.ID == 9 {
			t.Errorf("far node was discovered despite closed cones")
		}
	}
}

// Growing stops only when the gap closes: with all ring nodes in a
// half-plane, the node keeps growing to max power.
func TestRunBoundaryWhenHalfPlaneEmpty(t *testing.T) {
	m := defaultModel()
	center := geom.Pt(100, 100)
	pos := []geom.Point{center}
	for i := 0; i < 5; i++ {
		// All neighbors in bearings [0, π/2].
		pos = append(pos, center.Polar(50+float64(i)*10, float64(i)*math.Pi/8))
	}
	e := mustRun(t, pos, m, AlphaConnectivity)
	nr := e.Nodes[0]
	if !nr.Boundary {
		t.Errorf("node with a 3π/2 empty sector must be a boundary node")
	}
	if nr.GrowPower != m.MaxPower() {
		t.Errorf("boundary node GrowPower = %v, want max power", nr.GrowPower)
	}
	if len(nr.Neighbors) != 5 {
		t.Errorf("boundary node must still discover all reachable nodes")
	}
}

// Power tags are the exact minimal powers in the oracle.
func TestRunPowerTags(t *testing.T) {
	m := defaultModel()
	center := geom.Pt(750, 750)
	pos := []geom.Point{center,
		center.Polar(100, 0),
		center.Polar(200, math.Pi/2),
		center.Polar(300, math.Pi),
		center.Polar(400, 3*math.Pi/2),
	}
	e := mustRun(t, pos, m, AlphaConnectivity)
	for _, nb := range e.Nodes[0].Neighbors {
		if want := m.PowerFor(nb.Dist); !almostEq(nb.Power, want, 1e-6) {
			t.Errorf("neighbor %d power tag = %v, want p(dist) = %v", nb.ID, nb.Power, want)
		}
	}
}

// Equidistant nodes are admitted together.
func TestRunEquidistantGroup(t *testing.T) {
	m := defaultModel()
	center := geom.Pt(750, 750)
	pos := []geom.Point{center}
	for i := 0; i < 4; i++ {
		pos = append(pos, center.Polar(200, float64(i)*math.Pi/2))
	}
	e := mustRun(t, pos, m, 3*math.Pi/2)
	nr := e.Nodes[0]
	// With α = 3π/2, a single node would leave a gap of 2π > α; two
	// opposite nodes leave π < 3π/2, so the first group suffices — but
	// all four are equidistant, so all four are discovered at once.
	if len(nr.Neighbors) != 4 {
		t.Errorf("equidistant group split: got %d neighbors, want 4", len(nr.Neighbors))
	}
}

func TestMaxPowerGraph(t *testing.T) {
	m := defaultModel()
	pos := []geom.Point{
		geom.Pt(0, 0), geom.Pt(500, 0), // exactly R apart: edge
		geom.Pt(0, 501), // out of range of node 0
	}
	g := MaxPowerGraph(pos, m, nil, 1)
	if !g.HasEdge(0, 1) {
		t.Errorf("distance exactly R must be an edge")
	}
	if g.HasEdge(0, 2) {
		t.Errorf("distance R+1 must not be an edge")
	}
	if !g.HasEdge(1, 2) {
		// d = sqrt(500² + 501²) ≈ 708 > 500.
		t.Skip("unreachable: documented for clarity")
	}
}

// p_{u,α} is monotone non-increasing in α: a wider cone is easier to
// cover, so the growing phase stops no later.
func TestGrowPowerMonotoneInAlpha(t *testing.T) {
	m := defaultModel()
	for seed := uint64(0); seed < 8; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 60, 1500, 1500)
		e23 := mustRun(t, pos, m, AlphaAsymmetric)
		e56 := mustRun(t, pos, m, AlphaConnectivity)
		for u := range pos {
			if e56.Nodes[u].GrowPower > e23.Nodes[u].GrowPower+1e-6 {
				t.Errorf("seed %d node %d: p_{u,5π/6} = %v > p_{u,2π/3} = %v",
					seed, u, e56.Nodes[u].GrowPower, e23.Nodes[u].GrowPower)
			}
		}
	}
}

// Every discovered neighbor is within range, and the relation N_α only
// contains G_R edges.
func TestNalphaSubgraphOfGR(t *testing.T) {
	m := defaultModel()
	for seed := uint64(0); seed < 5; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 80, 1500, 1500)
		e := mustRun(t, pos, m, AlphaConnectivity)
		gr := MaxPowerGraph(pos, m, nil, 1)
		if !e.Nalpha().SymmetricClosure().IsSubgraphOf(gr) {
			t.Errorf("seed %d: G_α is not a subgraph of G_R", seed)
		}
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
