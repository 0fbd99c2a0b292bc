package cbtc

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestAlphaSweepShape(t *testing.T) {
	rows, err := RunAlphaSweep(context.Background(), AlphaSweepParams{
		Alphas:   []float64{math.Pi / 3, math.Pi / 2, AlphaAsymmetric, AlphaConnectivity},
		Networks: 8,
		Nodes:    60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i, r := range rows {
		// Theorem 2.1: everything at or below 5π/6 preserves the partition.
		if r.Connected != 1 {
			t.Errorf("alpha %.3f: connected frac = %v, want 1", r.Alpha, r.Connected)
		}
		if r.BoundaryFrac <= 0 || r.BoundaryFrac > 1 {
			t.Errorf("alpha %.3f: boundary frac %v out of range", r.Alpha, r.BoundaryFrac)
		}
		if i == 0 {
			continue
		}
		// Monotone trade-off in α (averaged over networks): wider cones
		// mean fewer neighbors and less power.
		if rows[i].AvgDegree > rows[i-1].AvgDegree+1e-9 {
			t.Errorf("degree must not increase with alpha: %v -> %v at %.3f",
				rows[i-1].AvgDegree, rows[i].AvgDegree, r.Alpha)
		}
		if rows[i].AvgRadius > rows[i-1].AvgRadius+1e-9 {
			t.Errorf("radius must not increase with alpha: %v -> %v at %.3f",
				rows[i-1].AvgRadius, rows[i].AvgRadius, r.Alpha)
		}
		// A wider cone is easier to close, so fewer nodes stay boundary.
		if rows[i].BoundaryFrac > rows[i-1].BoundaryFrac+1e-9 {
			t.Errorf("boundary fraction must not increase with alpha: %v -> %v at %.3f",
				rows[i-1].BoundaryFrac, rows[i].BoundaryFrac, r.Alpha)
		}
	}
}

func TestAlphaSweepDefaults(t *testing.T) {
	rows, err := RunAlphaSweep(context.Background(), AlphaSweepParams{Networks: 1, Nodes: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("default sweep rows = %d, want 12", len(rows))
	}
	if !almostEqF(rows[0].Alpha, math.Pi/6) || !almostEqF(rows[11].Alpha, AlphaConnectivity) {
		t.Errorf("default sweep range [%v, %v], want [π/6, 5π/6]", rows[0].Alpha, rows[11].Alpha)
	}
}

func TestRenderAlphaSweep(t *testing.T) {
	rows := []AlphaSweepRow{{Alpha: math.Pi / 2, AvgDegree: 10, AvgRadius: 300, BoundaryFrac: 0.4, Connected: 1}}
	out := RenderAlphaSweep(rows)
	for _, want := range []string{"1.571", "90.0", "10.00", "300.0", "0.400", "1.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func almostEqF(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
