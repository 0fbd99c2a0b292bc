package proto

import (
	"context"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/netsim"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// The pooling contracts of the proto allocation pass: the per-round gap
// test runs entirely in the node's sorted direction scratch (MaxGap's
// normalize-and-sort copy is gone), the phase-end neighbor sort runs in
// a reused buffer, and the Reconfigurator's gap tests reuse its own
// scratch. These tests pin the reductions so they cannot silently erode;
// the benchguard alloc ceilings pin the macro effect on the full sim.

func allocTestNode(t *testing.T) *Node {
	t.Helper()
	m := radio.Default(400)
	pos := workload.Uniform(workload.Rand(21), 30, 900, 900)
	_, rt, err := RunCBTC(context.Background(), pos, netsim.DefaultOptions(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rt.Nodes {
		if len(n.discovered) >= 4 {
			return n
		}
	}
	t.Fatal("no node with enough neighbors")
	return nil
}

func TestDirectionsGapTestAllocationFree(t *testing.T) {
	n := allocTestNode(t)
	n.directions() // warm the sorted scratch to steady-state capacity
	if avg := testing.AllocsPerRun(200, func() {
		_ = n.directions()
	}); avg != 0 {
		t.Fatalf("directions() allocates %.1f per call; the sorted scratch should make it 0", avg)
	}
}

func TestPhaseEndNeighborsPooled(t *testing.T) {
	n := allocTestNode(t)
	n.nbrScratch = n.AppendNeighbors(n.nbrScratch[:0]) // warm the buffer
	if avg := testing.AllocsPerRun(200, func() {
		n.nbrScratch = n.AppendNeighbors(n.nbrScratch[:0])
	}); avg != 0 {
		t.Fatalf("AppendNeighbors into a warmed buffer allocates %.1f per call, want 0", avg)
	}
	// The public form pays exactly its output slice.
	if avg := testing.AllocsPerRun(200, func() {
		_ = n.Neighbors()
	}); avg > 1 {
		t.Fatalf("Neighbors() allocates %.1f per call, want ≤ 1", avg)
	}
}

func TestReconfiguratorGapTestAllocationFree(t *testing.T) {
	n := allocTestNode(t)
	rec := core.NewReconfigurator(core.AlphaConnectivity, radio.Default(400), n.Neighbors())
	rec.HasGap() // warm the direction scratch
	if avg := testing.AllocsPerRun(200, func() {
		_ = rec.HasGap()
	}); avg != 0 {
		t.Fatalf("Reconfigurator.HasGap allocates %.1f per call, want 0", avg)
	}
}
