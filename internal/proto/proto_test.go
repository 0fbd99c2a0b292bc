package proto

import (
	"context"
	"errors"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

func testModel() radio.Model { return radio.Default(workload.PaperRadius) }

func reliableOpts(m radio.Model) netsim.Options {
	return netsim.DefaultOptions(m)
}

func TestConfigValidate(t *testing.T) {
	m := testModel()
	good := Config{Alpha: core.AlphaConnectivity}.withDefaults(m, 1)
	if err := good.Validate(m); err != nil {
		t.Fatalf("defaulted config must validate: %v", err)
	}
	bad := good
	bad.Alpha = 0
	if err := bad.Validate(m); !errors.Is(err, ErrBadConfig) {
		t.Errorf("alpha 0: err = %v, want ErrBadConfig", err)
	}
	bad = good
	bad.P0 = 2 * m.MaxPower()
	if err := bad.Validate(m); !errors.Is(err, ErrBadConfig) {
		t.Errorf("p0 > P: err = %v, want ErrBadConfig", err)
	}
	bad = good
	bad.LeaveTimeout = bad.BeaconPeriod / 2
	if err := bad.Validate(m); !errors.Is(err, ErrBadConfig) {
		t.Errorf("timeout < period: err = %v, want ErrBadConfig", err)
	}
}

func TestBeaconPolicyString(t *testing.T) {
	if BeaconBasicPower.String() != "basic-power" || BeaconShrunkPower.String() != "shrunk-power" {
		t.Errorf("unexpected strings: %v %v", BeaconBasicPower, BeaconShrunkPower)
	}
}

func TestRunCBTCRejectsNDP(t *testing.T) {
	m := testModel()
	_, _, err := RunCBTC(context.Background(), workload.Chain(3, 100), reliableOpts(m), Config{Alpha: core.AlphaConnectivity, EnableNDP: true})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

// The distributed protocol under reliable channels discovers a superset
// of the oracle's neighbor sets (the discrete power schedule overshoots
// the minimal power by at most one Increase step), preserves the G_R
// partition, and brackets the oracle's p_{u,α}.
func TestProtocolBracketsOracle(t *testing.T) {
	m := testModel()
	for seed := uint64(0); seed < 6; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 40, 1500, 1500)
		cfg := Config{Alpha: core.AlphaConnectivity}
		exec, _, err := RunCBTC(context.Background(), pos, reliableOpts(m), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracle, err := core.Run(context.Background(), pos, m, core.AlphaConnectivity, 1)
		if err != nil {
			t.Fatal(err)
		}

		for u := range pos {
			po, pp := oracle.Nodes[u].GrowPower, exec.Nodes[u].GrowPower
			if pp < po-1e-6 {
				t.Errorf("seed %d node %d: protocol power %v below oracle %v", seed, u, pp, po)
			}
			if pp > 2*po+1e-6 && pp > m.MaxPower()/1024+1e-6 {
				t.Errorf("seed %d node %d: protocol power %v exceeds 2x oracle %v", seed, u, pp, po)
			}
			oracleIDs := make(map[int]bool)
			for _, nb := range oracle.Nodes[u].Neighbors {
				oracleIDs[nb.ID] = true
			}
			protoIDs := make(map[int]bool)
			for _, nb := range exec.Nodes[u].Neighbors {
				protoIDs[nb.ID] = true
			}
			for id := range oracleIDs {
				if !protoIDs[id] {
					t.Errorf("seed %d node %d: oracle neighbor %d missing from protocol", seed, u, id)
				}
			}
			if oracle.Nodes[u].Boundary != exec.Nodes[u].Boundary {
				t.Errorf("seed %d node %d: boundary flag mismatch", seed, u)
			}
		}

		gr := core.MaxPowerGraph(pos, m, nil, 1)
		if !graph.SamePartition(gr, exec.Nalpha().SymmetricClosure()) {
			t.Errorf("seed %d: distributed G_α changed the partition", seed)
		}
	}
}

// With a fine-grained power schedule the protocol's powers converge to
// the oracle's minimal powers.
func TestFineScheduleApproachesOracle(t *testing.T) {
	m := testModel()
	pos := workload.Uniform(workload.Rand(3), 35, 1500, 1500)
	inc, err := radio.Multiplicative(1.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alpha: core.AlphaConnectivity, Increase: inc}
	exec, _, err := RunCBTC(context.Background(), pos, reliableOpts(m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.Run(context.Background(), pos, m, core.AlphaConnectivity, 1)
	if err != nil {
		t.Fatal(err)
	}
	for u := range pos {
		po, pp := oracle.Nodes[u].GrowPower, exec.Nodes[u].GrowPower
		if pp > 1.05*po+1e-6 && pp > m.MaxPower()/1024*1.05 {
			t.Errorf("node %d: fine-schedule power %v not within 5%% of oracle %v", u, pp, po)
		}
	}
}

// Distance and bearing estimates from (tx, rx) match the true geometry
// under a noiseless channel.
func TestProtocolEstimatesMatchGeometry(t *testing.T) {
	m := testModel()
	pos := workload.Uniform(workload.Rand(7), 25, 1200, 1200)
	exec, _, err := RunCBTC(context.Background(), pos, reliableOpts(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	for u := range pos {
		for _, nb := range exec.Nodes[u].Neighbors {
			trueDist := pos[u].Dist(pos[nb.ID])
			if !almostEq(nb.Dist, trueDist, 1e-6*trueDist) {
				t.Errorf("node %d -> %d: estimated dist %v, true %v", u, nb.ID, nb.Dist, trueDist)
			}
			trueDir := pos[u].Bearing(pos[nb.ID])
			if geom.AngularDist(nb.Dir, trueDir) > 1e-9 {
				t.Errorf("node %d -> %d: bearing %v, true %v", u, nb.ID, nb.Dir, trueDir)
			}
		}
	}
}

// The asymmetric-removal notification protocol produces exactly the
// mutual subgraph E⁻_α.
func TestAsymmetricNoticesMatchMutualSubgraph(t *testing.T) {
	m := testModel()
	for seed := uint64(0); seed < 5; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 35, 1500, 1500)
		cfg := Config{Alpha: core.AlphaAsymmetric, AsymRemoval: true}
		exec, rt, err := RunCBTC(context.Background(), pos, reliableOpts(m), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromNotices := rt.AsymDigraph().SymmetricClosure()
		mutual := exec.Nalpha().MutualSubgraph()
		if !fromNotices.Equal(mutual) {
			t.Errorf("seed %d: notice-based E⁻_α differs from mutual subgraph", seed)
		}
		gr := core.MaxPowerGraph(pos, m, nil, 1)
		if !graph.SamePartition(gr, mutual) {
			t.Errorf("seed %d: distributed E⁻_α changed the partition", seed)
		}
	}
}

// All core optimization stacks apply unchanged to a distributed
// execution.
func TestOptimizationsOnDistributedExecution(t *testing.T) {
	m := testModel()
	pos := workload.Uniform(workload.Rand(11), 50, 1500, 1500)
	exec, _, err := RunCBTC(context.Background(), pos, reliableOpts(m), Config{Alpha: core.AlphaConnectivity})
	if err != nil {
		t.Fatal(err)
	}
	gr := core.MaxPowerGraph(pos, m, nil, 1)
	topo, err := core.BuildTopology(exec, core.Options{ShrinkBack: true, PairwiseRemoval: true})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SamePartition(gr, topo.G) {
		t.Errorf("all-ops stack on the distributed execution broke connectivity")
	}
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
