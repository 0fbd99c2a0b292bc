package cbtc

import (
	"strings"
	"testing"
)

func TestDensitySweepBoundedDegree(t *testing.T) {
	rows, err := RunDensitySweep(DensitySweepParams{
		NodeCounts: []int{50, 100, 200},
		Networks:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]

	// Uncontrolled degree grows roughly linearly with density.
	if last.MaxPowerDegree < 3*first.MaxPowerDegree {
		t.Errorf("max-power degree must scale with density: %v -> %v",
			first.MaxPowerDegree, last.MaxPowerDegree)
	}
	// CBTC degree stays bounded: within ±1.5 across a 4x density change.
	for _, r := range rows {
		if r.CBTCDegree < 2 || r.CBTCDegree > 4.5 {
			t.Errorf("n=%d: CBTC degree %v outside the bounded band", r.Nodes, r.CBTCDegree)
		}
	}
	// Radius shrinks with density (nearer neighbors close the cones).
	for i := 1; i < len(rows); i++ {
		if rows[i].CBTCRadius >= rows[i-1].CBTCRadius {
			t.Errorf("radius must shrink with density: %v -> %v at n=%d",
				rows[i-1].CBTCRadius, rows[i].CBTCRadius, rows[i].Nodes)
		}
	}
	// Interference stays flat (bounded) while density quadruples.
	for _, r := range rows {
		if r.Interference > 6 {
			t.Errorf("n=%d: interference %v not bounded", r.Nodes, r.Interference)
		}
	}
}

func TestRenderDensitySweep(t *testing.T) {
	out := RenderDensitySweep([]DensitySweepRow{
		{Nodes: 100, MaxPowerDegree: 25.9, CBTCDegree: 2.9, CBTCRadius: 158.2, Interference: 2.9},
	})
	for _, want := range []string{"100", "25.9", "2.90", "158.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// The algorithm is purely geometric: the resulting graph is invariant
// under the path-loss exponent (only the power VALUES change). A
// downstream user can swap radio environments without re-planning the
// topology.
func TestTopologyInvariantUnderPathLossExponent(t *testing.T) {
	nodes := someNetwork(33, 80)
	free := paperRun(t, nodes, WithRadioModel(RadioModel{Exponent: 2, MaxRadius: 500, RefLoss: 1}), WithAllOptimizations())
	urban := paperRun(t, nodes, WithRadioModel(RadioModel{Exponent: 4, MaxRadius: 500, RefLoss: 1}), WithAllOptimizations())
	if !free.G.Equal(urban.G) {
		t.Errorf("topology must not depend on the path-loss exponent")
	}
	for u := range nodes {
		if free.Radii[u] != urban.Radii[u] {
			t.Errorf("node %d: radii differ across exponents", u)
		}
		// Powers DO differ: p(d) = d^n.
	}
	samePowers := true
	for u := range nodes {
		if free.Powers[u] != urban.Powers[u] {
			samePowers = false
			break
		}
	}
	if samePowers {
		t.Errorf("powers must differ across exponents (d² vs d⁴)")
	}
}
