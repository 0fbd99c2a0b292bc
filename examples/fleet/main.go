// Fleet: many independent networks served by one Engine. A topology-
// control simulation service rarely runs a single deployment — it
// drives hundreds of networks, each evolving under its own mobility and
// membership churn. Engine.NewFleet owns M such networks, described by
// heterogeneous MemberSpecs: members can be built by the exact oracle
// or by actually running the paper's distributed protocol, can override
// engine options, and can tick at different rates per fleet round. One
// worker pool drives every member's private tick clock, longest measured
// work first, so a slow member never stalls the rest.
//
// Each member owns a private seeded RNG stream: the same config
// produces byte-identical per-member results at any worker count —
// scheduling changes only the wall-clock.
//
//	go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"cbtc"
)

func main() {
	// Eight 60-node networks drawn from the paper's evaluation density.
	const networks, nodes = 8, 60
	placement := func(i int) []cbtc.Point {
		rng := rand.New(rand.NewPCG(uint64(i), 42))
		pts := make([]cbtc.Point, nodes)
		for j := range pts {
			pts[j] = cbtc.Pt(rng.Float64()*1200, rng.Float64()*1200)
		}
		return pts
	}
	members := make([]cbtc.MemberSpec, networks)
	for i := range members {
		members[i] = cbtc.MemberSpec{Placement: placement(i)}
	}
	// Heterogeneity: member 0 is built by running the actual distributed
	// protocol, member 1 runs the full optimization stack and ticks twice
	// per fleet round.
	members[0].Kind = cbtc.MemberProtocol
	members[1].Options = []cbtc.Option{cbtc.WithAllOptimizations()}
	members[1].Ticks = 2

	eng, err := cbtc.New(cbtc.WithMaxRadius(500), cbtc.WithShrinkBack())
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := eng.NewFleet(context.Background(), cbtc.FleetConfig{
		Members: members,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ten fleet rounds of the standard drift/churn profile: a few nodes
	// wander each tick, nodes occasionally join and leave. Member 1's
	// weight makes that 20 ticks on its clock.
	rep, err := fleet.Run(context.Background(), 10, cbtc.DriftTick(cbtc.TickProfile{
		Moves:     4,
		Jitter:    60,
		JoinProb:  0.3,
		LeaveProb: 0.3,
		Width:     1200,
		Height:    1200,
	}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet of %d networks, ticks %d..%d per member, %d events applied\n",
		rep.Networks, rep.Watermarks.Min, rep.Watermarks.Max, rep.Events)
	fmt.Printf("degree  mean %.2f ± %.2f   (per-member per-tick observations)\n",
		rep.Series.Degree.Mean, rep.Series.Degree.StdDev())
	fmt.Printf("radius  mean %.1f (max power would be 500)\n", rep.Series.Radius.Mean)
	fmt.Printf("degree distribution p50=%d p95=%d over %d live nodes\n",
		rep.DegreeDist.Quantile(0.5), rep.DegreeDist.Quantile(0.95), rep.Live)
	fmt.Printf("connectivity preserved in %d/%d networks\n", rep.Preserved, rep.Networks)

	// Per-member drill-down: the same report shape fleetd serves over
	// HTTP, including the member's kind, clock and scheduling telemetry.
	nr := rep.PerNetwork[0]
	fmt.Printf("network 0 (%s): %d ticks, %d live nodes in %d components, busy %.1f ms (%.0f µs/tick)\n",
		nr.Kind, nr.Ticks, nr.Final.Live, nr.Final.Components, float64(nr.Sched.BusyNs)/1e6, float64(nr.Sched.TickNs)/1e3)
}
