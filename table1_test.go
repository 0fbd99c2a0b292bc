package cbtc

import (
	"math"
	"strings"
	"testing"
)

// table1Fixture runs a reduced but statistically stable reproduction of
// Table 1 (30 networks instead of 100) once per test binary.
var table1Fixture *Table1Result

func table1(t *testing.T) *Table1Result {
	t.Helper()
	if table1Fixture == nil {
		res, err := RunTable1(Table1Params{Networks: 30})
		if err != nil {
			t.Fatalf("RunTable1: %v", err)
		}
		table1Fixture = res
	}
	return table1Fixture
}

func table1Cell(t *testing.T, name string) (Table1Column, Table1Cell) {
	t.Helper()
	res := table1(t)
	for i, col := range res.Columns {
		if col.Name == name {
			return col, res.Cells[i]
		}
	}
	t.Fatalf("column %q not found", name)
	return Table1Column{}, Table1Cell{}
}

// Every measured cell must land within a generous band of the paper's
// published value: ±25% for degrees, ±10% for radii. (The observed
// deviations are far smaller; the bands guard against regressions, not
// noise.)
func TestTable1WithinPaperBands(t *testing.T) {
	res := table1(t)
	for i, col := range res.Columns {
		cell := res.Cells[i]
		if r := cell.AvgDegree / col.PaperDegree; r < 0.75 || r > 1.25 {
			t.Errorf("%s: degree %v vs paper %v (ratio %.2f)", col.Name, cell.AvgDegree, col.PaperDegree, r)
		}
		if r := cell.AvgRadius / col.PaperRadius; r < 0.90 || r > 1.10 {
			t.Errorf("%s: radius %v vs paper %v (ratio %.2f)", col.Name, cell.AvgRadius, col.PaperRadius, r)
		}
	}
}

// The qualitative claims of §5, which must hold regardless of absolute
// calibration.
func TestTable1Shape(t *testing.T) {
	_, basic56 := table1Cell(t, "basic α=5π/6")
	_, basic23 := table1Cell(t, "basic α=2π/3")
	_, op156 := table1Cell(t, "op1 α=5π/6")
	_, op123 := table1Cell(t, "op1 α=2π/3")
	_, op12 := table1Cell(t, "op1+op2 α=2π/3")
	_, all56 := table1Cell(t, "all α=5π/6")
	_, all23 := table1Cell(t, "all α=2π/3")
	_, maxp := table1Cell(t, "max power")

	// A larger α means weaker cone constraints: smaller degree/radius.
	if basic56.AvgDegree >= basic23.AvgDegree {
		t.Errorf("basic: degree(5π/6)=%v must be below degree(2π/3)=%v", basic56.AvgDegree, basic23.AvgDegree)
	}
	if basic56.AvgRadius >= basic23.AvgRadius {
		t.Errorf("basic: radius(5π/6)=%v must be below radius(2π/3)=%v", basic56.AvgRadius, basic23.AvgRadius)
	}
	// Shrink-back strictly helps.
	if op156.AvgDegree >= basic56.AvgDegree || op156.AvgRadius >= basic56.AvgRadius {
		t.Errorf("op1 must reduce both metrics at 5π/6")
	}
	if op123.AvgDegree >= basic23.AvgDegree || op123.AvgRadius >= basic23.AvgRadius {
		t.Errorf("op1 must reduce both metrics at 2π/3")
	}
	// Asymmetric edge removal cuts the 2π/3 radius sharply (the paper's
	// central trade-off discussion in §3.2/§5).
	if op12.AvgRadius >= 0.75*op123.AvgRadius {
		t.Errorf("op2 must cut the radius sharply: %v vs %v", op12.AvgRadius, op123.AvgRadius)
	}
	// With all optimizations the two angles converge.
	if math.Abs(all56.AvgDegree-all23.AvgDegree) > 0.5 {
		t.Errorf("all-ops degrees must converge: %v vs %v", all56.AvgDegree, all23.AvgDegree)
	}
	if math.Abs(all56.AvgRadius-all23.AvgRadius) > 25 {
		t.Errorf("all-ops radii must converge: %v vs %v", all56.AvgRadius, all23.AvgRadius)
	}
	// Headline claim: topology control cuts degree by >5x and radius by
	// ~3x versus max power (paper: 7x and >3x).
	if maxp.AvgDegree < 5*all56.AvgDegree {
		t.Errorf("degree reduction below 5x: %v vs %v", maxp.AvgDegree, all56.AvgDegree)
	}
	if maxp.AvgRadius < 2.5*all56.AvgRadius {
		t.Errorf("radius reduction below 2.5x: %v vs %v", maxp.AvgRadius, all56.AvgRadius)
	}
	// Max power column is exact.
	if maxp.AvgRadius != 500 {
		t.Errorf("max power radius = %v, want exactly 500", maxp.AvgRadius)
	}
}

// The §3.2 remark: pu,5π/6 < pu,2π/3 per node (the basic 5π/6 radius is
// smaller), yet after asymmetric removal the 2π/3 stack wins on radius —
// the trade-off the paper highlights. Also reproduces the in-text
// "301.2" figure: basic + op2 without shrink-back.
func TestTable1AsymTradeoffAndInTextRadius(t *testing.T) {
	// Build the in-text configuration directly: basic 2π/3 with
	// asymmetric removal only (no shrink-back).
	var radius, degree float64
	const networks = 30
	for seed := uint64(0); seed < networks; seed++ {
		nodes := someNetwork(seed, 100)
		res := paperRun(t, nodes, WithAlpha(AlphaAsymmetric), WithAsymmetricRemoval())
		radius += res.AvgRadius
		degree += res.AvgDegree
	}
	radius /= networks
	degree /= networks
	// Paper reports 301.2 for this configuration.
	if radius < 301.2*0.9 || radius > 301.2*1.1 {
		t.Errorf("basic+op2 radius = %v, paper says 301.2", radius)
	}
	_, basic56 := table1Cell(t, "basic α=5π/6")
	if radius >= basic56.AvgRadius {
		t.Errorf("op2 at 2π/3 must beat basic 5π/6 on radius: %v vs %v", radius, basic56.AvgRadius)
	}
}

func TestTable1Render(t *testing.T) {
	out := table1(t).Render()
	for _, want := range []string{"basic α=5π/6", "max power", "degree(paper)", "radius(ours)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 10 { // header + separator + 8 columns
		t.Errorf("render has %d lines, want 10:\n%s", lines, out)
	}
}

func TestTable1Defaults(t *testing.T) {
	p := Table1Params{}.withDefaults()
	if p.Networks != 100 || p.Nodes != 100 || p.Width != 1500 || p.Height != 1500 || p.MaxRadius != 500 {
		t.Errorf("defaults do not match the paper's setup: %+v", p)
	}
}
