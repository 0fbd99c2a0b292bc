package proto

import (
	"context"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/workload"
)

// §5: "CBTC(5π/6) will terminate sooner than CBTC(2π/3) and so expend
// less power during its execution (since p_{u,5π/6} < p_{u,2π/3})."
// Measured as the total transmission energy of the growing phase.
func TestExecutionEnergyLowerAtWiderAlpha(t *testing.T) {
	m := testModel()
	for seed := uint64(0); seed < 5; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 40, 1500, 1500)

		energy := func(alpha float64) float64 {
			_, rt, err := RunCBTC(context.Background(), pos, reliableOpts(m), Config{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			return rt.Sim.TotalEnergy()
		}
		e56 := energy(core.AlphaConnectivity)
		e23 := energy(core.AlphaAsymmetric)
		if e56 >= e23 {
			t.Errorf("seed %d: growing-phase energy at 5π/6 (%.0f) must be below 2π/3 (%.0f)",
				seed, e56, e23)
		}
	}
}

// Per-node energy accounting is consistent: the total is the sum and
// every broadcaster spent something.
func TestEnergyAccounting(t *testing.T) {
	m := testModel()
	pos := workload.Uniform(workload.Rand(9), 20, 1200, 1200)
	_, rt, err := RunCBTC(context.Background(), pos, reliableOpts(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for u := range pos {
		e := rt.Sim.Energy(u)
		if e <= 0 {
			t.Errorf("node %d spent no energy despite broadcasting Hellos", u)
		}
		sum += e
	}
	if total := rt.Sim.TotalEnergy(); total != sum {
		t.Errorf("TotalEnergy %v != sum of per-node energies %v", total, sum)
	}
}

// Boundary nodes are the expensive case: the center of a tight 3x3 grid
// closes its cones at low power and stops, while a corner node has an
// empty quadrant and must double all the way to maximum power.
func TestEnergyInteriorVsBoundary(t *testing.T) {
	m := testModel()
	var pos []geom.Point
	for row := 0; row < 3; row++ {
		for col := 0; col < 3; col++ {
			pos = append(pos, geom.Pt(float64(col)*75, float64(row)*75))
		}
	}
	const center, corner = 4, 0
	exec, rt, err := RunCBTC(context.Background(), pos, reliableOpts(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Nodes[center].Boundary {
		t.Fatalf("grid center must not be a boundary node")
	}
	if !exec.Nodes[corner].Boundary {
		t.Fatalf("grid corner must be a boundary node")
	}
	// The corner's Hello cascade to maximum power dominates; Acks (which
	// every node answers regardless) dilute the gap, so assert 2x.
	eCenter, eCorner := rt.Sim.Energy(center), rt.Sim.Energy(corner)
	if eCenter*2 > eCorner {
		t.Errorf("interior node energy %.0f must be well below boundary node %.0f", eCenter, eCorner)
	}
}
