// Command fleetsim drives a fleet of independent CBTC(α) networks
// through mobility/membership ticks on the Engine's work-stealing fleet
// scheduler and reports cross-network aggregate statistics — the
// many-networks workload class of a topology-control simulation service.
//
// Usage:
//
//	fleetsim [-m 16] [-n 250] [-kind uniform|clustered] [-ticks 20]
//	         [-workers 0] [-seed 7] [-moves n/16] [-jitter R/8]
//	         [-churn 0.25] [-protocol 0] [-chaos spec] [-slo connected] [-v]
//
// Every network runs its own deterministic RNG stream: each member's
// results are reproducible from the flags alone, at any worker count.
// -protocol k builds the first k members with the paper's distributed
// Figure 1 protocol instead of the oracle, exercising a heterogeneous
// fleet. -workers 1 forces a serial drive — timing serial vs default
// (GOMAXPROCS) shows the scheduler's speedup on multi-core machines.
//
// -chaos injects deterministic faults into member ticks to demonstrate
// quarantine isolation: the spec is comma-separated key=value pairs
// (e.g. -chaos seed=3,panic=0.02,delay=0.05,delaymax=2ms). Fault
// decisions are pure functions of (chaos seed, network, tick), so the
// same members panic at the same ticks at any worker count; a
// panicking member is quarantined — clock frozen, panic recorded — and
// reported in a casualty table while the healthy members' results stay
// identical to a chaos-free run.
//
// -slo connected turns every tick into a connectivity gate: an
// ObserveHook watches each member's per-tick component count — an
// O(changed) read off the session's maintained structure, so the gate
// costs the run essentially nothing — and records the first tick a
// member partitioned. Any violation makes fleetsim print a violation
// table (member, first partitioned tick) and exit nonzero; the
// lifetime-to-first-partition number is the energy-balance literature's
// headline metric.
//
// -lifetime runs the network-lifetime workload instead: every node gets
// a battery (-capacity, 0 = 2R²; -drain) drained each tick by
// drain × p(radius) of its installed broadcast radius, depleted nodes
// die as Leave events (LifetimeTick), and the same first-partition
// machinery the SLO gate uses measures each member's
// lifetime-to-first-partition. The summary grows residual-energy and
// energy-variance rows plus a per-member lifetime table; partitioning
// is the workload's expected endpoint, so it is reported, not failed —
// combine with -slo connected to keep the hard gate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"cbtc"
	"cbtc/internal/chaos"
	"cbtc/internal/stats"
	"cbtc/internal/workload"
)

func main() {
	var (
		m         = flag.Int("m", 16, "number of independent networks")
		n         = flag.Int("n", 250, "nodes per network")
		kind      = flag.String("kind", "uniform", "placement kind: uniform | clustered")
		ticks     = flag.Int("ticks", 20, "fleet rounds to drive")
		workers   = flag.Int("workers", 0, "scheduler pool size (0 = GOMAXPROCS, 1 = serial)")
		seed      = flag.Uint64("seed", 7, "base seed for placements and tick streams")
		moves     = flag.Int("moves", 0, "nodes drifting per tick (0 = n/16)")
		jitter    = flag.Float64("jitter", 0, "drift amplitude (0 = R/8)")
		churn     = flag.Float64("churn", 0.25, "per-tick join and leave probability")
		protocol  = flag.Int("protocol", 0, "build the first k members with the distributed protocol")
		chaosSpec = flag.String("chaos", "", "deterministic fault injection spec (seed=,panic=,delay=,delaymax=)")
		slo       = flag.String("slo", "", "per-tick SLO gate: 'connected' exits nonzero if any network ever partitions")
		lifetime  = flag.Bool("lifetime", false, "network-lifetime workload: batteries drain, depleted nodes die, lifetime-to-first-partition is reported")
		capacity  = flag.Float64("capacity", 0, "per-node battery capacity for -lifetime (0 = 2R²)")
		drain     = flag.Float64("drain", 1, "per-tick battery drain coefficient for -lifetime (scales p(radius))")
		verbose   = flag.Bool("v", false, "print the per-network table")
	)
	flag.Parse()
	faults, err := chaos.Parse(*chaosSpec)
	if err != nil {
		fail(err)
	}
	if *slo != "" && *slo != "connected" {
		fail(fmt.Errorf("unknown -slo gate %q (supported: connected)", *slo))
	}

	sc := workload.Fleet(*m, *n, *kind)
	if *moves > 0 {
		sc.Moves = *moves
	}
	if *jitter > 0 {
		sc.Jitter = *jitter
	}
	sc.JoinProb, sc.LeaveProb = *churn, *churn

	opts := []cbtc.Option{cbtc.WithMaxRadius(sc.Radius), cbtc.WithShrinkBack(), cbtc.WithWorkers(*workers)}
	if *lifetime {
		if *capacity == 0 {
			// ≈ a few dozen ticks at typical CBTC radii (r ≈ R/3 drains
			// 2R²/(R/3)² = 18 ticks' worth under the default exponent).
			*capacity = 2 * sc.Radius * sc.Radius
		}
		opts = append(opts, cbtc.WithBattery(*capacity, *drain))
	}
	eng, err := cbtc.New(opts...)
	if err != nil {
		fail(err)
	}
	members := make([]cbtc.MemberSpec, 0, sc.M)
	for i, placement := range sc.Placements(*seed) {
		spec := cbtc.MemberSpec{Placement: placement}
		if i < *protocol {
			spec.Kind = cbtc.MemberProtocol
		}
		members = append(members, spec)
	}
	cfg := cbtc.FleetConfig{Members: members, Seed: *seed}
	if *chaosSpec != "" {
		cfg.TickHook = chaos.New(faults).Tick
	}
	// The connectivity SLO — and the -lifetime workload's headline
	// lifetime-to-first-partition metric — watch every member tick
	// through the ObserveHook: per-member calls arrive in tick order, so
	// the CAS keeps exactly the first partitioned tick; members never
	// share a slot, so concurrent callbacks from different workers are
	// safe.
	var firstPartition []atomic.Int64
	if *slo == "connected" || *lifetime {
		firstPartition = make([]atomic.Int64, sc.M)
		for i := range firstPartition {
			firstPartition[i].Store(-1)
		}
		cfg.ObserveHook = func(net, tick int, ts cbtc.TickStats) {
			if ts.Components > 1 {
				firstPartition[net].CompareAndSwap(-1, int64(tick))
			}
		}
	}
	ctx := context.Background()
	buildStart := time.Now()
	fleet, err := eng.NewFleet(ctx, cfg)
	if err != nil {
		fail(err)
	}
	buildTime := time.Since(buildStart)

	profile := cbtc.TickProfile{
		Moves:     sc.Moves,
		Jitter:    sc.Jitter,
		JoinProb:  sc.JoinProb,
		LeaveProb: sc.LeaveProb,
		Width:     sc.Side,
		Height:    sc.Side,
	}
	tick := cbtc.DriftTick(profile)
	if *lifetime {
		tick = cbtc.LifetimeTick(profile)
	}
	runStart := time.Now()
	rep, err := fleet.Run(ctx, *ticks, tick)
	var quar *cbtc.QuarantineError
	if err != nil && !errors.As(err, &quar) {
		fail(err)
	}
	runTime := time.Since(runStart)

	fmt.Printf("fleet %s: %d networks × %d nodes, ticks %d..%d, workers=%d\n\n",
		sc.Name, rep.Networks, *n, rep.Watermarks.Min, rep.Watermarks.Max, *workers)
	tb := stats.NewTable("metric", "mean", "stddev", "min", "max")
	addStream := func(name string, s stats.Stream) {
		tb.AddRow(name, stats.F(s.Mean, 2), stats.F(s.StdDev(), 2), stats.F(s.Min(), 2), stats.F(s.Max(), 2))
	}
	addStream("avg degree", rep.Series.Degree)
	addStream("avg radius", rep.Series.Radius)
	addStream("components", rep.Series.Components)
	addStream("energy", rep.Series.Energy)
	if *lifetime {
		addStream("residual", rep.Series.Residual)
		addStream("energy var", rep.Series.EnergyVar)
	}
	fmt.Print(tb.String())
	fmt.Printf("\nlive nodes %d, edges %d, events %d, degree p50/p95 %d/%d, partition preserved %d/%d\n",
		rep.Live, rep.Edges, rep.Events,
		rep.DegreeDist.Quantile(0.5), rep.DegreeDist.Quantile(0.95),
		rep.Preserved, rep.Networks)
	var netTicks float64
	for _, nr := range rep.PerNetwork {
		netTicks += float64(nr.Ticks)
	}
	fmt.Printf("build %v; run %v — %.1f network-ticks/s, %.0f events/s\n",
		buildTime.Round(time.Millisecond), runTime.Round(time.Millisecond),
		netTicks/runTime.Seconds(), float64(rep.Events)/runTime.Seconds())

	if *verbose {
		fmt.Println()
		nt := stats.NewTable("net", "kind", "ticks", "events", "live", "edges", "comps", "degree", "radius", "max r", "energy", "tick µs", "preserved")
		for _, nr := range rep.PerNetwork {
			nt.AddRow(fmt.Sprint(nr.Net), nr.Kind.String(), fmt.Sprint(nr.Ticks), fmt.Sprint(nr.Events),
				fmt.Sprint(nr.Final.Live), fmt.Sprint(nr.Final.Edges), fmt.Sprint(nr.Final.Components),
				stats.F(nr.Final.AvgDegree, 2), stats.F(nr.Final.AvgRadius, 1), stats.F(maxRadius(fleet, &nr), 1),
				stats.F(nr.Final.Energy, 0), stats.F(float64(nr.Sched.TickNs)/1e3, 0), fmt.Sprint(nr.Preserved))
		}
		fmt.Print(nt.String())
	}
	if rep.Quarantined > 0 {
		fmt.Printf("\n%d network(s) quarantined:\n", rep.Quarantined)
		ct := stats.NewTable("net", "tick", "panic")
		for _, nr := range rep.PerNetwork {
			if nr.Quarantine != nil {
				ct.AddRow(fmt.Sprint(nr.Net), fmt.Sprint(nr.Quarantine.Tick), nr.Quarantine.Err)
			}
		}
		fmt.Print(ct.String())
	}
	// Quarantined members are excluded from Preserved (their sessions are
	// not readable), so the guarantee is judged over the healthy members.
	if rep.Preserved != rep.Networks-rep.Quarantined {
		fmt.Fprintln(os.Stderr, "fleetsim: SOME NETWORKS LOST THE GROUND-TRUTH PARTITION")
		os.Exit(1)
	}
	if *lifetime {
		// Partitioning is this workload's endpoint, not a failure: the
		// table reports each member's lifetime-to-first-partition next to
		// its energy balance, and the fleet's lifetime is the worst one.
		fmt.Println()
		lt := stats.NewTable("net", "kind", "first partition", "live", "residual", "energy var")
		fleetLifetime := int64(-1)
		for _, nr := range rep.PerNetwork {
			fp := "-"
			if t := firstPartition[nr.Net].Load(); t >= 0 {
				fp = fmt.Sprint(t)
				if fleetLifetime < 0 || t < fleetLifetime {
					fleetLifetime = t
				}
			}
			lt.AddRow(fmt.Sprint(nr.Net), nr.Kind.String(), fp,
				fmt.Sprint(nr.Final.Live), stats.F(nr.Final.Residual, 1), stats.F(nr.Final.EnergyVar, 1))
		}
		fmt.Print(lt.String())
		if fleetLifetime >= 0 {
			fmt.Printf("fleet lifetime: first partition at tick %d\n", fleetLifetime)
		} else {
			fmt.Println("fleet lifetime: no network partitioned within the run")
		}
	}
	if *slo == "connected" {
		violated := false
		vt := stats.NewTable("net", "first partitioned tick")
		for i := range firstPartition {
			if t := firstPartition[i].Load(); t >= 0 {
				violated = true
				vt.AddRow(fmt.Sprint(i), fmt.Sprint(t))
			}
		}
		if violated {
			fmt.Fprintln(os.Stderr, "\nfleetsim: SLO 'connected' VIOLATED:")
			fmt.Fprint(os.Stderr, vt.String())
			os.Exit(1)
		}
		fmt.Println("\nSLO 'connected' held: every network stayed connected at every tick")
	}
}

// maxRadius scans one member's live nodes through the session's cached
// per-node radii — Session.NodeRadius is an O(1) read, so the whole
// column costs one pass over the id space.
func maxRadius(fleet *cbtc.Fleet, nr *cbtc.FleetNetworkReport) float64 {
	if nr.Health != cbtc.MemberHealthy {
		return 0
	}
	sess := fleet.Session(nr.Net)
	var r float64
	for id := 0; id < sess.Len(); id++ {
		if !sess.Alive(id) {
			continue
		}
		nr, err := sess.NodeRadius(id)
		if err != nil {
			return 0
		}
		if nr > r {
			r = nr
		}
	}
	return r
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}
