package proto

import (
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
	"cbtc/internal/workload"
)

// ndpConfig returns a fast-paced NDP configuration for tests.
func ndpConfig(alpha float64) Config {
	return Config{
		Alpha:        alpha,
		EnableNDP:    true,
		BeaconPeriod: 5,
		LeaveTimeout: 18,
	}
}

// startNDP builds a runtime and runs it until the growing phase has
// finished everywhere (NDP keeps the queue busy, so run to a deadline).
func startNDP(t *testing.T, pos []geom.Point, opts netsim.Options, cfg Config) *Runtime {
	t.Helper()
	rt, err := Start(pos, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Sim.Run(100)
	for i, n := range rt.Nodes {
		if !n.Finished() {
			t.Fatalf("node %d did not finish the growing phase by t=100", i)
		}
	}
	return rt
}

// survivorsGR returns G_R over the current positions with the crashed
// node's edges removed.
func survivorsGR(rt *Runtime) *graph.Graph {
	pos := make([]geom.Point, rt.Sim.Len())
	for i := range pos {
		pos[i] = rt.Sim.Position(i)
	}
	gr := core.MaxPowerGraph(pos, rt.Sim.Model(), nil, 1)
	for u := 0; u < gr.Len(); u++ {
		if rt.Sim.Crashed(u) {
			for _, v := range gr.Neighbors(u) {
				gr.RemoveEdge(u, v)
			}
		}
	}
	return gr
}

func TestCrashTriggersLeaveAndRepair(t *testing.T) {
	m := testModel()
	// A ring with one node in the middle: crashing the middle node must
	// be detected and the ring stays connected.
	pos := workload.Ring(10, 300, 1500, 1500)
	pos = append(pos, geom.Pt(750, 750)) // center node, index 10
	rt := startNDP(t, pos, reliableOpts(m), ndpConfig(core.AlphaConnectivity))

	rt.Sim.ScheduleAt(150, func() { rt.Sim.Crash(10) })
	rt.Sim.Run(400)

	leaves := 0
	for i, n := range rt.Nodes {
		if i == 10 {
			continue
		}
		leaves += n.Leaves
		for _, nb := range n.TableNeighbors() {
			if nb.ID == 10 {
				t.Errorf("node %d still has the crashed node in its table", i)
			}
		}
	}
	if leaves == 0 {
		t.Errorf("no leave events observed after the crash")
	}
	if !graph.SamePartition(survivorsGR(rt), rt.TableGraph()) {
		t.Errorf("survivor topology does not preserve survivor G_R partition")
	}
}

func TestCrashOfCutVertexRegrows(t *testing.T) {
	m := testModel()
	// Two tight clusters bridged by distance: left cluster, a middle
	// relay, right cluster. Crashing the relay partitions G_R, and the
	// table graph must reflect exactly that partition (no phantom edges).
	pos := []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(50, 80), // left
		geom.Pt(450, 0),                                    // relay, index 3
		geom.Pt(800, 0), geom.Pt(900, 0), geom.Pt(850, 80), // right
	}
	rt := startNDP(t, pos, reliableOpts(m), ndpConfig(core.AlphaConnectivity))
	if got := graph.ComponentCount(rt.TableGraph()); got != 1 {
		t.Fatalf("pre-crash components = %d, want 1", got)
	}

	rt.Sim.ScheduleAt(150, func() { rt.Sim.Crash(3) })
	rt.Sim.Run(500)

	if !graph.SamePartition(survivorsGR(rt), rt.TableGraph()) {
		t.Errorf("post-crash partition mismatch")
	}
	if got := graph.ComponentCount(rt.TableGraph()); got != 3 {
		// Two clusters plus the isolated crashed node.
		t.Errorf("post-crash components = %d, want 3", got)
	}
	regrows := 0
	for _, n := range rt.Nodes {
		regrows += n.Regrows
	}
	if regrows == 0 {
		t.Errorf("losing the only bridge must open an α-gap somewhere and trigger a regrow")
	}
}

func TestJoinOfNewNodeViaBeacons(t *testing.T) {
	m := testModel()
	// A pair far from a third node; the third moves into range later.
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(200, 0), geom.Pt(1400, 0)}
	rt := startNDP(t, pos, reliableOpts(m), ndpConfig(core.AlphaConnectivity))

	if rt.TableGraph().HasEdge(0, 2) || rt.TableGraph().HasEdge(1, 2) {
		t.Fatalf("node 2 must start disconnected")
	}
	rt.Sim.ScheduleAt(150, func() { rt.Sim.MoveNode(2, geom.Pt(600, 0)) })
	rt.Sim.Run(400)

	joins := rt.Nodes[0].Joins + rt.Nodes[1].Joins + rt.Nodes[2].Joins
	if joins == 0 {
		t.Errorf("no join events after the move")
	}
	if !graph.SamePartition(survivorsGR(rt), rt.TableGraph()) {
		t.Errorf("post-join partition mismatch: table graph %v components",
			graph.ComponentCount(rt.TableGraph()))
	}
}

func TestAngleChangeDetection(t *testing.T) {
	m := testModel()
	// Node 1 orbits node 0 from east to north: bearing change π/2 with
	// distance fixed, so only aChange events fire.
	pos := []geom.Point{geom.Pt(750, 750), geom.Pt(950, 750), geom.Pt(750, 550)}
	rt := startNDP(t, pos, reliableOpts(m), ndpConfig(core.AlphaConnectivity))

	center := geom.Pt(750, 750)
	for i := 1; i <= 6; i++ {
		step := float64(i) * geom.TwoPi / 24 // 15° per step
		at := 120.0 + 30*float64(i)
		rt.Sim.ScheduleAt(at, func() {
			rt.Sim.MoveNode(1, center.Polar(200, step))
		})
	}
	rt.Sim.Run(600)

	if rt.Nodes[0].AngleChanges == 0 {
		t.Errorf("orbiting neighbor produced no aChange events")
	}
	if !graph.SamePartition(survivorsGR(rt), rt.TableGraph()) {
		t.Errorf("post-orbit partition mismatch")
	}
}

// The §4 beacon-power counterexample, both ways: with the buggy
// shrunk-power beacons the re-joined clusters never reconnect; with the
// correct basic-power rule they do.
func TestBeaconPowerPartitionRejoin(t *testing.T) {
	m := testModel()
	s := workload.NewPartitionScenario(m.MaxRadius)

	run := func(policy BeaconPolicy) *Runtime {
		cfg := ndpConfig(core.AlphaConnectivity)
		cfg.Beacons = policy
		rt := startNDP(t, s.Pos, reliableOpts(m), cfg)
		rt.Sim.ScheduleAt(150, func() {
			moved := s.Moved()
			for i := s.Half; i < len(moved); i++ {
				rt.Sim.MoveNode(i, moved[i])
			}
		})
		rt.Sim.Run(800)
		return rt
	}

	t.Run("buggy shrunk-power beacons stay partitioned", func(t *testing.T) {
		rt := run(BeaconShrunkPower)
		if got := graph.ComponentCount(rt.TableGraph()); got < 2 {
			t.Errorf("components = %d, want ≥ 2 (the §4 failure mode)", got)
		}
		// Ground truth: the clusters ARE in range now.
		if graph.ComponentCount(survivorsGR(rt)) != 1 {
			t.Fatalf("scenario broken: moved G_R must be connected")
		}
	})

	t.Run("correct basic-power beacons reconnect", func(t *testing.T) {
		rt := run(BeaconBasicPower)
		if got := graph.ComponentCount(rt.TableGraph()); got != 1 {
			t.Errorf("components = %d, want 1 after re-join", got)
		}
		if !graph.SamePartition(survivorsGR(rt), rt.TableGraph()) {
			t.Errorf("re-joined partition mismatch")
		}
	})
}

// Under a lossy, jittery, duplicating channel the periodic beacons
// eventually repair every missing discovery: the table graph converges
// to the G_R partition.
func TestLossyChannelConvergesWithNDP(t *testing.T) {
	m := testModel()
	opts := reliableOpts(m)
	opts.DropProb = 0.15
	opts.DupProb = 0.05
	opts.Jitter = 0.5
	opts.Seed = 21

	pos := workload.Uniform(workload.Rand(21), 30, 1200, 1200)
	cfg := ndpConfig(core.AlphaConnectivity)
	rt, err := Start(pos, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Sim.Run(1500)
	for i, n := range rt.Nodes {
		if !n.Finished() {
			t.Fatalf("node %d never finished growing under loss", i)
		}
	}
	if !graph.SamePartition(survivorsGR(rt), rt.TableGraph()) {
		t.Errorf("lossy-channel topology did not converge to the G_R partition")
	}
	if st := rt.Sim.Stats(); st.Dropped == 0 || st.Duplicated == 0 {
		t.Errorf("channel fault injection had no effect: %+v", st)
	}
}

// Random-waypoint mobility: after motion stops, the topology stabilizes
// to the G_R partition of the final placement — the paper's §4
// stabilization guarantee.
func TestMobilityStabilization(t *testing.T) {
	m := testModel()
	rng := workload.Rand(31)
	pos := workload.Uniform(rng, 20, 1000, 1000)
	trace := workload.RandomWaypointTrace(rng, pos, 1000, 1000, 8, 10, 200)

	rt := startNDP(t, pos, reliableOpts(m), ndpConfig(core.AlphaConnectivity))
	for _, wp := range trace {
		wp := wp
		rt.Sim.ScheduleAt(120+wp.At, func() { rt.Sim.MoveNode(wp.Node, wp.Pos) })
	}
	// Motion ends at t=320; give reconfiguration time to settle.
	rt.Sim.Run(900)

	if !graph.SamePartition(survivorsGR(rt), rt.TableGraph()) {
		t.Errorf("mobile network did not stabilize to the final G_R partition")
	}
	events := 0
	for _, n := range rt.Nodes {
		events += n.Joins + n.Leaves + n.AngleChanges
	}
	if events == 0 {
		t.Errorf("mobility produced no reconfiguration events")
	}
}

// A brand-new node added to a running network (the §4 join case for a
// genuinely new participant, not just a mover): it runs its own growing
// phase, discovers the network, and the topology converges.
func TestRuntimeAddNode(t *testing.T) {
	m := testModel()
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(300, 0), geom.Pt(150, 250)}
	rt := startNDP(t, pos, reliableOpts(m), ndpConfig(core.AlphaConnectivity))

	// Advance to t=150, then add the newcomer between event batches.
	rt.Sim.Run(150)
	newcomer := rt.AddNode(geom.Pt(450, 100))
	rt.Sim.Run(600)

	if !rt.Nodes[newcomer].Finished() {
		t.Fatalf("newcomer never finished its growing phase")
	}
	g := rt.TableGraph()
	if got := graph.ComponentCount(g); got != 1 {
		t.Errorf("network with newcomer must be one component, got %d", got)
	}
	if g.Degree(newcomer) == 0 {
		t.Errorf("newcomer has no links")
	}
	if !graph.SamePartition(survivorsGR(rt), g) {
		t.Errorf("post-join partition mismatch")
	}
}

// Churn stress: a long run with interleaved crashes, moves, and
// additions; after the churn stops, the network stabilizes to the
// ground-truth partition — §4's "if the topology ever stabilizes"
// guarantee under sustained change.
func TestChurnStabilization(t *testing.T) {
	m := testModel()
	pos := workload.Uniform(workload.Rand(51), 25, 1200, 1200)
	rt := startNDP(t, pos, reliableOpts(m), ndpConfig(core.AlphaConnectivity))

	rng := workload.Rand(99)
	at := 120.0
	for i := 0; i < 12; i++ {
		at += 25
		switch i % 3 {
		case 0: // crash a random original node (avoid repeats by offset)
			victim := int(rng.Uint64() % 20)
			rt.Sim.ScheduleAt(at, func() { rt.Sim.Crash(victim) })
		case 1: // move a random node
			mover := 20 + int(rng.Uint64()%5)
			dest := geom.Pt(rng.Float64()*1200, rng.Float64()*1200)
			rt.Sim.ScheduleAt(at, func() {
				if !rt.Sim.Crashed(mover) {
					rt.Sim.MoveNode(mover, dest)
				}
			})
		case 2: // add a newcomer
			p := geom.Pt(rng.Float64()*1200, rng.Float64()*1200)
			rt.Sim.ScheduleAt(at, func() { rt.AddNode(p) })
		}
	}
	// Churn ends at ~420; give several leave timeouts to settle.
	rt.Sim.Run(1000)

	for i, n := range rt.Nodes {
		if !rt.Sim.Crashed(i) && !n.Finished() {
			t.Fatalf("live node %d never finished a growing phase", i)
		}
	}
	if !graph.SamePartition(survivorsGR(rt), rt.TableGraph()) {
		t.Errorf("post-churn topology does not match ground truth")
	}
}
