package cbtc

import (
	"math"
	"testing"
)

// §1 cites a competitiveness result from the companion paper [16]: for
// α ≤ π/2 (and power cost p(d) ∝ d^n, i.e. k = 1), the most
// power-efficient route in G_α costs at most 1 + 2·sin(α/2) times the
// optimum in G_R. Verify the bound empirically across seeds and angles.
func TestPowerStretchCompetitiveBound(t *testing.T) {
	for _, alpha := range []float64{math.Pi / 3, math.Pi / 2} {
		bound := 1 + 2*math.Sin(alpha/2)
		for seed := uint64(30); seed < 40; seed++ {
			nodes := someNetwork(seed, 60)
			res := paperRun(t, nodes, WithAlpha(alpha))
			got := res.PowerStretch()
			if math.IsInf(got, 1) {
				t.Fatalf("alpha=%.3f seed=%d: connectivity broken", alpha, seed)
			}
			if got > bound+1e-9 {
				t.Errorf("alpha=%.3f seed=%d: power stretch %.4f exceeds bound %.4f",
					alpha, seed, got, bound)
			}
		}
	}
}

// The stretch degrades gracefully as α grows: wider cones mean sparser
// graphs and longer routes. Monotonicity need not hold per-instance, but
// the α = 5π/6 stretch must stay modest (single digits) on the paper's
// workload — the qualitative claim behind "optimize performance metrics
// such as throughput".
func TestPowerStretchStaysModestAtTightBound(t *testing.T) {
	for seed := uint64(40); seed < 45; seed++ {
		nodes := someNetwork(seed, 60)
		res := paperRun(t, nodes)
		if got := res.PowerStretch(); got > 5 {
			t.Errorf("seed=%d: basic 5π/6 power stretch %.3f suspiciously large", seed, got)
		}
	}
}

// Optimizations trade power for route quality, but never break the
// stretch entirely: all-ops stretch stays finite and bounded on the
// paper's workload.
func TestAllOpsStretchBounded(t *testing.T) {
	for seed := uint64(50); seed < 55; seed++ {
		nodes := someNetwork(seed, 80)
		res := paperRun(t, nodes, WithAllOptimizations())
		ps, hs := res.PowerStretch(), res.HopStretch()
		if math.IsInf(ps, 1) || math.IsInf(hs, 1) {
			t.Fatalf("seed=%d: stretch infinite", seed)
		}
		if ps > 20 || hs > 30 {
			t.Errorf("seed=%d: stretch out of plausible range: power %.2f hops %.2f", seed, ps, hs)
		}
	}
}
