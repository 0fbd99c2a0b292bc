package proto

import (
	"context"
	"math"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/workload"
)

// Message complexity of the growing phase: each node broadcasts at most
// ⌈log₂(P/p₀)⌉ + 1 Hellos under the doubling schedule, and total
// transmissions are bounded by Hellos plus one Ack per received Hello.
func TestGrowingPhaseMessageComplexity(t *testing.T) {
	m := testModel()
	pos := workload.Uniform(workload.Rand(13), 40, 1500, 1500)
	_, rt, err := RunCBTC(context.Background(), pos, reliableOpts(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	maxRounds := int(math.Ceil(math.Log2(1024))) + 1 // p0 = P/1024
	totalRounds := 0
	for i, n := range rt.Nodes {
		if n.Rounds() > maxRounds {
			t.Errorf("node %d used %d rounds, bound is %d", i, n.Rounds(), maxRounds)
		}
		if n.Rounds() < 1 {
			t.Errorf("node %d never broadcast a Hello", i)
		}
		totalRounds += n.Rounds()
	}
	// Sent = Hellos + Acks; Acks ≤ deliveries of Hellos, so Sent is
	// bounded by rounds + delivered (loose but structural).
	st := rt.Sim.Stats()
	if st.Sent < totalRounds {
		t.Errorf("Sent %d below Hello count %d", st.Sent, totalRounds)
	}
	if st.Sent > totalRounds+st.Delivered {
		t.Errorf("Sent %d exceeds Hellos %d + deliveries %d", st.Sent, totalRounds, st.Delivered)
	}
}

// A node whose cones close immediately stops after few rounds; a lone
// boundary node runs the full schedule.
func TestRoundsReflectTermination(t *testing.T) {
	m := testModel()
	// A node at the center of a dense ring closes its cones at the first
	// power level that reaches the ring and stops early.
	ring := workload.Ring(8, 60, 1500, 1500)
	ringAndCenter := append(ring, ring[0].Midpoint(ring[4])) // center of the ring
	_, rt, err := RunCBTC(context.Background(), ringAndCenter, reliableOpts(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	centerIdx := len(ringAndCenter) - 1
	maxRounds := int(math.Ceil(math.Log2(1024))) + 1
	if got := rt.Nodes[centerIdx].Rounds(); got >= maxRounds {
		t.Errorf("ring center used %d rounds; must terminate early", got)
	}

	lone := workload.Chain(2, 1400) // two nodes out of range: full schedule
	_, rt2, err := RunCBTC(context.Background(), lone, reliableOpts(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.Nodes[0].Rounds(); got != maxRounds {
		t.Errorf("isolated node used %d rounds, want the full schedule %d", got, maxRounds)
	}
}

// Losing asymmetric-removal notices is safe: the resulting graph lies
// between E⁻_α and E_α and still preserves the partition.
func TestLossyAsymNoticesStaySafe(t *testing.T) {
	m := testModel()
	opts := reliableOpts(m)
	opts.DropProb = 0.3
	opts.Seed = 77
	pos := workload.Uniform(workload.Rand(77), 40, 1500, 1500)
	exec, rt, err := RunCBTC(context.Background(), pos, opts, Config{Alpha: core.AlphaAsymmetric, AsymRemoval: true})
	if err != nil {
		t.Fatal(err)
	}
	gr := core.MaxPowerGraph(pos, m, nil, 1)
	got := rt.AsymDigraph().SymmetricClosure()
	upper := exec.Nalpha().SymmetricClosure()
	if !got.IsSubgraphOf(upper) {
		t.Errorf("notice-derived graph must stay within E_α")
	}
	if !graph.SamePartition(gr, got) {
		t.Errorf("lossy asym removal broke the partition")
	}
}
