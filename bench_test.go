package cbtc

// The benchmark harness maps every table and figure of the paper's
// evaluation (§5) to a regenerable workload:
//
//	BenchmarkTable1/...        — Table 1 columns (degree/radius per stack)
//	BenchmarkRunBatch/...      — serial vs parallel batch execution
//	BenchmarkFigure6           — the eight topology panels
//	BenchmarkExample21         — Figure 2 asymmetry construction
//	BenchmarkFigure5           — Theorem 2.4 disconnection construction
//	BenchmarkOracle/...        — scalability of the minimal-power executor
//	BenchmarkDistributed       — the full Hello/Ack protocol on netsim
//	BenchmarkPairwisePolicy/...— ablation X2: redundant-edge policies
//	BenchmarkPowerStretch      — extension X1: route-quality metric
//
// Absolute throughput is machine-dependent; the benchmarks exist so that
// `go test -bench=.` regenerates every experiment and verifies its
// invariant en passant (failed invariants abort the benchmark).

import (
	"bytes"
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
	"cbtc/internal/proto"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

// benchNetwork memoizes one paper-sized placement.
var benchNetwork = workload.PaperNetwork(1)

func benchModel() radio.Model { return radio.Default(workload.PaperRadius) }

func BenchmarkTable1(b *testing.B) {
	for _, col := range Table1Columns() {
		col := col
		b.Run(col.Name, func(b *testing.B) {
			m := benchModel()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if col.MaxPower {
					gr := core.MaxPowerGraph(benchNetwork, m)
					if graph.AvgDegree(gr) <= 0 {
						b.Fatal("empty baseline")
					}
					continue
				}
				exec, err := core.Run(benchNetwork, m, col.Alpha)
				if err != nil {
					b.Fatal(err)
				}
				topo, err := core.BuildTopology(exec, col.Opts)
				if err != nil {
					b.Fatal(err)
				}
				if s := topo.Summarize(); s.AvgDegree <= 0 {
					b.Fatal("empty topology")
				}
			}
		})
	}
}

// BenchmarkRunBatch measures the tentpole speedup of the Engine API:
// the same 16-network Table 1 workload pushed through Engine.RunBatch
// serially (one worker) and across GOMAXPROCS workers. The parallel/
// serial ratio is the recorded scaling factor; on a single-core machine
// the two converge.
func BenchmarkRunBatch(b *testing.B) {
	placements := make([][]Point, 16)
	for i := range placements {
		placements[i] = workload.Uniform(workload.Rand(uint64(i)), workload.PaperNodes, 1500, 1500)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			eng, err := New(
				WithMaxRadius(workload.PaperRadius),
				WithAllOptimizations(),
				WithWorkers(tc.workers),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := eng.RunBatch(ctx, placements)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(placements) {
					b.Fatal("missing results")
				}
			}
			workers := tc.workers
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

func BenchmarkTable1FullSweep(b *testing.B) {
	// One iteration = the entire Table 1 on a reduced network count;
	// regenerating the paper's full 100-network table is
	// `go run ./cmd/tablegen`.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunTable1(Table1Params{Networks: 3, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != 8 {
			b.Fatal("missing columns")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		panels, err := Figure6Panels(42)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 8 {
			b.Fatal("missing panels")
		}
	}
}

func BenchmarkExample21(b *testing.B) {
	m := benchModel()
	alpha := AlphaAsymmetric + 0.2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pos, err := workload.Example21(alpha, m.MaxRadius)
		if err != nil {
			b.Fatal(err)
		}
		exec, err := core.Run(pos, m, alpha)
		if err != nil {
			b.Fatal(err)
		}
		n := exec.Nalpha()
		if !n.HasArc(4, 0) || n.HasArc(0, 4) {
			b.Fatal("asymmetry lost")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	m := benchModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pos, err := workload.Figure5(0.1, m.MaxRadius)
		if err != nil {
			b.Fatal(err)
		}
		exec, err := core.Run(pos, m, AlphaConnectivity+0.1)
		if err != nil {
			b.Fatal(err)
		}
		if graph.IsConnected(exec.Nalpha().SymmetricClosure()) {
			b.Fatal("disconnection lost")
		}
	}
}

func BenchmarkOracle(b *testing.B) {
	m := benchModel()
	for _, n := range []int{50, 100, 300, 1000} {
		pos := workload.Uniform(workload.Rand(9), n, 1500, 1500)
		b.Run(benchName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(pos, m, AlphaConnectivity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDistributed(b *testing.B) {
	m := benchModel()
	pos := workload.Uniform(workload.Rand(10), 50, 1500, 1500)
	cfg := proto.Config{Alpha: AlphaConnectivity}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := netsim.DefaultOptions(m)
		opts.Seed = uint64(i)
		if _, _, err := proto.RunCBTC(pos, opts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation X2: how many edges each pairwise policy removes and at what
// cost. Run with -bench PairwisePolicy -benchtime 1x to see the
// reported removal counts.
func BenchmarkPairwisePolicy(b *testing.B) {
	m := benchModel()
	exec, err := core.Run(benchNetwork, m, AlphaConnectivity)
	if err != nil {
		b.Fatal(err)
	}
	base, err := core.BuildTopology(exec, core.Options{ShrinkBack: true})
	if err != nil {
		b.Fatal(err)
	}
	gr := core.MaxPowerGraph(benchNetwork, m)
	policies := []core.PairwisePolicy{
		core.PairwiseLengthFiltered,
		core.PairwiseRemoveAll,
		core.PairwiseEitherEndpoint,
		core.PairwiseBothEndpoints,
	}
	for _, policy := range policies {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			var removed int
			for i := 0; i < b.N; i++ {
				g, rm := core.PairwiseRemoval(base.G, benchNetwork, policy)
				if !graph.SamePartition(gr, g) {
					b.Fatal("policy broke connectivity")
				}
				removed = len(rm)
			}
			b.ReportMetric(float64(removed), "edges-removed")
		})
	}
}

// Extension X1: empirical stretch factors of the final topology.
func BenchmarkPowerStretch(b *testing.B) {
	res := paperRun(b, benchNetwork, WithAllOptimizations())
	b.ReportAllocs()
	var stretch float64
	for i := 0; i < b.N; i++ {
		stretch = res.PowerStretch()
		if stretch < 1 {
			b.Fatal("stretch below 1")
		}
	}
	b.ReportMetric(stretch, "power-stretch")
}

// Ablation: shrink-back tag granularity (exact oracle tags vs protocol
// power levels), the calibration knob of RunTable1.
func BenchmarkShrinkGranularity(b *testing.B) {
	m := benchModel()
	exec, err := core.Run(benchNetwork, m, AlphaConnectivity)
	if err != nil {
		b.Fatal(err)
	}
	schedule, err := radio.Schedule(m.MaxPower()/1024, m.MaxPower(), radio.Doubling())
	if err != nil {
		b.Fatal(err)
	}
	variants := map[string]*core.Execution{
		"exact-tags":    exec,
		"doubling-tags": core.QuantizeTags(exec, schedule),
	}
	for name, e := range variants {
		e := e
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var deg float64
			for i := 0; i < b.N; i++ {
				topo, err := core.BuildTopology(e, core.Options{ShrinkBack: true})
				if err != nil {
					b.Fatal(err)
				}
				deg = topo.Summarize().AvgDegree
			}
			b.ReportMetric(deg, "avg-degree")
		})
	}
}

// Extension X4: the related-work baselines on the paper's workload.
func BenchmarkBaselines(b *testing.B) {
	eng := paperEngine(b)
	for _, kind := range BaselineKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var deg float64
			for i := 0; i < b.N; i++ {
				res, err := eng.Baseline(kind, benchNetwork)
				if err != nil {
					b.Fatal(err)
				}
				if !res.PreservesConnectivity() {
					b.Fatal("baseline broke connectivity")
				}
				deg = res.AvgDegree
			}
			b.ReportMetric(deg, "avg-degree")
		})
	}
}

// Interference reduction (the motivation in §1 for fewer, shorter
// edges).
func BenchmarkInterference(b *testing.B) {
	res := paperRun(b, benchNetwork, WithAllOptimizations())
	b.ReportAllocs()
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = res.AvgInterference()
	}
	b.ReportMetric(avg, "avg-interference")
}

// Extension X5: total transmission energy of the distributed growing
// phase, per cone angle (§5: the wider cone terminates sooner).
func BenchmarkGrowingPhaseEnergy(b *testing.B) {
	m := benchModel()
	pos := workload.Uniform(workload.Rand(5), 40, 1500, 1500)
	for _, tc := range []struct {
		name  string
		alpha float64
	}{
		{"alpha=5pi6", AlphaConnectivity},
		{"alpha=2pi3", AlphaAsymmetric},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var energy float64
			for i := 0; i < b.N; i++ {
				_, rt, err := proto.RunCBTC(pos, netsim.DefaultOptions(m), proto.Config{Alpha: tc.alpha})
				if err != nil {
					b.Fatal(err)
				}
				energy = rt.Sim.TotalEnergy()
			}
			b.ReportMetric(energy, "total-energy")
		})
	}
}

// BenchmarkLargeN is the scaling suite of the spatial-index tentpole:
// the large-n scenario family (uniform + clustered, constant paper
// density) pushed through the oracle, the distributed simulator, and
// Session repair, with naive full-scan variants as the reference. The
// CI bench job asserts the grid keeps its ≥5× lead over the naive oracle
// at n = 5000 (in practice the gap is 1–2 orders of magnitude). Naive
// variants only run at the sizes where a single iteration stays
// interactive; run with -benchtime=1x to regenerate the README table.
func BenchmarkLargeN(b *testing.B) {
	ctx := context.Background()
	for _, sc := range workload.LargeN() {
		sc := sc
		pos := sc.Placement(7)
		m := radio.Default(sc.Radius)

		b.Run(sc.Name+"/oracle/grid", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunContext(ctx, pos, m, AlphaConnectivity); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The PR 3 tentpole: the same oracle fanned across an 8-worker
		// pool. Output is byte-identical to /oracle/grid (asserted by
		// TestRunParallelDeterministic); BENCH_PR3.json gates the
		// parallel-vs-serial ratio at n=10000 on multi-core runners.
		b.Run(sc.Name+"/oracle/par8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunParallel(ctx, pos, m, AlphaConnectivity, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
		if sc.N <= 5000 {
			b.Run(sc.Name+"/oracle/naive", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.RunNaive(ctx, pos, m, AlphaConnectivity); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		if sc.N <= 5000 {
			b.Run(sc.Name+"/sim/grid", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := netsim.DefaultOptions(m)
					opts.Seed = uint64(i)
					if _, _, err := proto.RunCBTC(pos, opts, proto.Config{Alpha: AlphaConnectivity}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if sc.N <= 1000 {
			b.Run(sc.Name+"/sim/naive", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					opts := netsim.DefaultOptions(m)
					opts.Seed = uint64(i)
					opts.NaiveDelivery = true
					if _, _, err := proto.RunCBTC(pos, opts, proto.Config{Alpha: AlphaConnectivity}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		b.Run(sc.Name+"/session-repair", func(b *testing.B) {
			eng, err := New(WithMaxRadius(sc.Radius))
			if err != nil {
				b.Fatal(err)
			}
			sess, err := eng.NewSession(ctx, pos)
			if err != nil {
				b.Fatal(err)
			}
			rng := workload.Rand(99)
			b.ReportAllocs()
			b.ResetTimer()
			var recomputed int
			for i := 0; i < b.N; i++ {
				id := rng.IntN(len(pos))
				if !sess.Alive(id) {
					continue
				}
				to := geom.Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)
				rep, err := sess.Move(id, to)
				if err != nil {
					b.Fatal(err)
				}
				recomputed += len(rep.Recomputed)
			}
			b.ReportMetric(float64(recomputed)/float64(b.N), "recomputed/op")
		})

		// Snapshot benchmarks: one Move then a fresh snapshot per
		// iteration. Before PR 3 every snapshot rebuilt the full topology
		// and ground-truth G_R; PR 3 cloned the maintained graphs; since
		// PR 4 the clones are copy-on-write — O(n) slice-header copies —
		// so the snapshot cost no longer scales with the edge count.
		snapshotBench := func(snapshot func(*Session) error, opts ...Option) func(*testing.B) {
			return func(b *testing.B) {
				eng, err := New(append([]Option{WithMaxRadius(sc.Radius)}, opts...)...)
				if err != nil {
					b.Fatal(err)
				}
				sess, err := eng.NewSession(ctx, pos)
				if err != nil {
					b.Fatal(err)
				}
				if err := snapshot(sess); err != nil {
					b.Fatal(err)
				}
				rng := workload.Rand(101)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id := rng.IntN(len(pos))
					if !sess.Alive(id) {
						continue
					}
					to := geom.Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)
					if _, err := sess.Move(id, to); err != nil {
						b.Fatal(err)
					}
					if err := snapshot(sess); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		maintained := func(sess *Session) error {
			_, err := sess.Snapshot()
			return err
		}
		b.Run(sc.Name+"/session-snapshot", snapshotBench(maintained, WithShrinkBack()))
		// The full stack on the same maintained path: the repair also
		// re-decides pairwise removal around the change.
		b.Run(sc.Name+"/session-snapshot-allops", snapshotBench(maintained, WithAllOptimizations()))
		// The in-run reference: the test-only full rebuild of the topology
		// and G_R per snapshot, which no Session takes. BENCH_PR10.json pins
		// the COW snapshot's lead over it at n=10000.
		b.Run(sc.Name+"/session-snapshot-full", snapshotBench(func(sess *Session) error {
			sess.mu.Lock()
			defer sess.mu.Unlock()
			_, err := fullRebuildLocked(sess)
			return err
		}, WithAllOptimizations()))

		// The §4 batch shape: one mobility tick moves a cluster of 32
		// nearby nodes a small step. apply-batch repairs the burst with
		// one region-union recompute; sequential-moves is the same burst
		// through 32 single Move calls. BENCH_PR4.json pins the batch's
		// lead at n=10000.
		b.Run(sc.Name+"/apply-batch32", func(b *testing.B) {
			benchMobilityTick(b, sc, pos, func(sess *Session, events []Event) {
				if _, err := sess.ApplyBatch(events); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run(sc.Name+"/sequential-moves32", func(b *testing.B) {
			benchMobilityTick(b, sc, pos, func(sess *Session, events []Event) {
				for _, ev := range events {
					if _, err := sess.Move(ev.ID, ev.Pos); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchMobilityTick drives one correlated-drift tick per iteration: the
// 32 live nodes nearest a rotating anchor node each jitter by ~R/8,
// applied through fn (batched or sequential). Both variants see
// identical event streams.
func benchMobilityTick(b *testing.B, sc workload.LargeNScenario, pos []Point, fn func(*Session, []Event)) {
	b.Helper()
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		b.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), pos)
	if err != nil {
		b.Fatal(err)
	}
	rng := workload.Rand(103)
	const tickSize = 32
	type cand struct {
		id int
		d2 float64
	}
	cands := make([]cand, 0, len(pos))
	events := make([]Event, 0, tickSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Assemble the tick outside the timer: the cluster around a
		// random live anchor, each member jittered.
		var center Point
		for {
			id := rng.IntN(sess.Len())
			if sess.Alive(id) {
				center = sess.Position(id)
				break
			}
		}
		cands = cands[:0]
		for id := 0; id < sess.Len(); id++ {
			if sess.Alive(id) {
				cands = append(cands, cand{id, sess.Position(id).Dist2(center)})
			}
		}
		slices.SortFunc(cands, func(a, c cand) int {
			if a.d2 != c.d2 {
				if a.d2 < c.d2 {
					return -1
				}
				return 1
			}
			return a.id - c.id
		})
		n := tickSize
		if n > len(cands) {
			n = len(cands)
		}
		events = events[:0]
		jitter := sc.Radius / 8
		for _, c := range cands[:n] {
			p := sess.Position(c.id)
			events = append(events, MoveEvent(c.id, geom.Pt(
				p.X+rng.Float64()*2*jitter-jitter,
				p.Y+rng.Float64()*2*jitter-jitter,
			)))
		}
		b.StartTimer()
		fn(sess, events)
	}
	b.ReportMetric(float64(tickSize), "moves/tick")
}

// BenchmarkFleet measures the PR 5 tentpole: the same 16-network fleet
// (250 nodes each, constant paper density, standard drift/churn ticks)
// advanced one synchronized tick per iteration — tick generation,
// batched repair, per-tick observation and the aggregated FleetReport —
// serially and across the shard pool. The networks are independent, so
// the sharded fleet's per-network results are byte-identical to the
// serial ones (TestFleetWorkerCountInvariance); BENCH_PR5.json gates
// the serial/sharded ratio on multi-core runners.
func BenchmarkFleet(b *testing.B) {
	sc := workload.Fleet(16, 250, "uniform")
	placements := sc.Placements(7)
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"sharded", 0},
	} {
		tc := tc
		b.Run(sc.Name+"/"+tc.name, func(b *testing.B) {
			eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
			if err != nil {
				b.Fatal(err)
			}
			fleet, err := eng.NewFleet(ctx, FleetConfig{Members: oracleMembers(placements), Seed: 11, Workers: tc.workers})
			if err != nil {
				b.Fatal(err)
			}
			tick := DriftTick(TickProfile{
				Moves:     sc.Moves,
				Jitter:    sc.Jitter,
				JoinProb:  sc.JoinProb,
				LeaveProb: sc.LeaveProb,
				Width:     sc.Side,
				Height:    sc.Side,
			})
			b.ReportAllocs()
			b.ResetTimer()
			var events int
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Run(ctx, 1, tick)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Preserved != rep.Networks {
					b.Fatalf("tick %d: only %d/%d networks preserve connectivity", i, rep.Preserved, rep.Networks)
				}
				events = rep.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			workers := tc.workers
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// BenchmarkFleetAsync measures the PR 7 tentpole on a straggler-skewed
// heterogeneous mix: 8 light networks (80 nodes, tick weight 4) plus
// one heavyweight straggler (2000 nodes, weight 1), all at paper density.
// Both arms apply the same per-member tick sequences; they differ only
// in scheduling:
//
//   - async: one fleet round per iteration on the work-stealing
//     scheduler — each fast member ticks 4×, the straggler once, and
//     nobody waits at a barrier.
//   - lockstep: weights flattened to 1 and four rounds driven with a
//     full drain between them — the retired PR 5 semantics, where every
//     round's fast ticks wait for a straggler tick.
//
// Per iteration the fast-member work is identical (32 ticks); the async
// arm pays the straggler once instead of four times. BENCH_PR7.json
// gates the lockstep/async ratio on ≥4-core runners.
func BenchmarkFleetAsync(b *testing.B) {
	mix := workload.StragglerMix(8, 80, 4, 2000)
	ctx := context.Background()
	ticks := make([]TickFunc, len(mix))
	for i, sz := range mix {
		moves := sz.N / 16
		ticks[i] = DriftTick(TickProfile{
			Moves:     moves,
			Jitter:    workload.PaperRadius / 8,
			JoinProb:  0.25,
			LeaveProb: 0.25,
			Width:     sz.Side,
			Height:    sz.Side,
		})
	}
	tick := func(net, tk int, rng *rand.Rand, s *Session) []Event {
		return ticks[net](net, tk, rng, s)
	}
	for _, tc := range []struct {
		name   string
		rounds int // rounds per iteration; 1 round of weight w ≡ w flattened rounds
		async  bool
	}{
		{"async", 1, true},
		{"lockstep", 4, false},
	} {
		tc := tc
		b.Run("straggler-m9/"+tc.name, func(b *testing.B) {
			eng, err := New(WithMaxRadius(workload.PaperRadius), WithShrinkBack())
			if err != nil {
				b.Fatal(err)
			}
			members := make([]MemberSpec, len(mix))
			for i, sz := range mix {
				members[i] = MemberSpec{Placement: workload.MemberPlacement(11, i, sz)}
				if tc.async {
					members[i].Ticks = sz.Ticks
				}
			}
			fleet, err := eng.NewFleet(ctx, FleetConfig{Members: members, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < tc.rounds; r++ {
					if err := fleet.Advance(ctx, 1, tick); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			rep, err := fleet.Report()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Preserved != rep.Networks {
				b.Fatalf("only %d/%d networks preserve connectivity", rep.Preserved, rep.Networks)
			}
			b.ReportMetric(float64(rep.Events)/float64(b.N), "events/op")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
		})
	}
}

// BenchmarkGraphClone isolates the substrate win: a copy-on-write clone
// of the n=10k maximum-power graph (O(n) slice-header copies) against a
// fully materialized deep copy (O(E) arena copy) — the cheapest possible
// version of what the map-based representation paid on every snapshot.
// BENCH_PR4.json pins the COW/deep ratio.
func BenchmarkGraphClone(b *testing.B) {
	var sc workload.LargeNScenario
	for _, s := range workload.LargeN() {
		if s.N == 10000 && s.Kind == "uniform" {
			sc = s
		}
	}
	if sc.N == 0 {
		b.Fatal("missing uniform n=10000 scenario")
	}
	pos := sc.Placement(7)
	gr := core.MaxPowerGraph(pos, radio.Default(sc.Radius))
	b.Run("cow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if gr.Clone().Len() != sc.N {
				b.Fatal("bad clone")
			}
		}
	})
	b.Run("deep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if gr.CloneDeep().Len() != sc.N {
				b.Fatal("bad clone")
			}
		}
	})
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkCheckpoint measures the durability layer at n=10000 uniform:
// /checkpoint serializes a live session (lock-light COW export plus the
// bulk arena encode) into a reusable buffer, /restore decodes and
// revalidates it back into a live session (including the spatial-index
// and reconfigurator rebuild). Fleet checkpoints are m independent
// session bodies behind one header, so the session-level numbers are
// the per-network cost. BENCH_PR6.json gates both absolutes and their
// allocation ceilings.
func BenchmarkCheckpoint(b *testing.B) {
	var sc workload.LargeNScenario
	for _, s := range workload.LargeN() {
		if s.N == 10000 && s.Kind == "uniform" {
			sc = s
		}
	}
	ctx := context.Background()
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		b.Fatal(err)
	}
	sess, err := eng.NewSession(ctx, sc.Placement(7))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	raw := bytes.Clone(buf.Bytes())

	b.Run(sc.Name+"/checkpoint", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := sess.Checkpoint(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "checkpoint-bytes")
	})
	b.Run(sc.Name+"/restore", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restored, err := eng.RestoreSession(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if restored.Len() != sess.Len() {
				b.Fatal("restored session truncated")
			}
		}
	})
}

// BenchmarkObserve is the PR 9 tentpole gate: per-tick metric reads off
// the session's maintained aggregates (live count, edge count, dynamic
// connectivity, cached radii) against the reference full scan — a
// component BFS plus a fresh per-node radius fold. Both run on the same
// dirtied session, and TestSessionObserveLockstep proves
// they return bitwise-identical TickStats; BENCH_PR9.json pins the
// maintained path's ≥5× lead at n = 10000.
func BenchmarkObserve(b *testing.B) {
	ctx := context.Background()
	for _, sc := range workload.LargeN() {
		if sc.Kind != "uniform" {
			continue
		}
		sc := sc
		pos := sc.Placement(7)
		eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
		if err != nil {
			b.Fatal(err)
		}
		sess, err := eng.NewSession(ctx, pos)
		if err != nil {
			b.Fatal(err)
		}
		// Dirty the session so the maintained state is mid-run, not
		// construction-fresh.
		rng := workload.Rand(3)
		for k := 0; k < 32; k++ {
			id := rng.IntN(len(pos))
			if !sess.Alive(id) {
				continue
			}
			to := geom.Pt(rng.Float64()*sc.Side, rng.Float64()*sc.Side)
			if _, err := sess.Move(id, to); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(sc.Name+"/incremental", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Observe(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sc.Name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess.mu.Lock()
				ts := observeGraph(sess.g, sess.alive, sess.pos, sess.nodes)
				sess.mu.Unlock()
				if ts.Live == 0 {
					b.Fatal("empty observe")
				}
			}
		})
	}
}

// BenchmarkLifetime is the PR 10 energy-workload suite on a
// paper-density 1000-node session. /drain-observe is the raw per-tick
// battery cost: one event-free Tick paying the Θ(live) drain pass plus
// the maintained O(changed) observation. /lifetime-tick is the full
// LifetimeTick driver a fleet runs — drift events, repair, drain,
// depletion scan — per tick. Capacities are sized so no node dies
// during timing: the live set stays constant and per-op figures are
// comparable across b.N.
func BenchmarkLifetime(b *testing.B) {
	ctx := context.Background()
	const n = 1000
	side := workload.LargeNSide(n)
	pos := workload.Uniform(workload.Rand(7), n, side, side)
	newBatterySession := func(b *testing.B) *Session {
		b.Helper()
		eng, err := New(WithMaxRadius(workload.PaperRadius), WithShrinkBack(), WithBattery(1e18, 1))
		if err != nil {
			b.Fatal(err)
		}
		sess, err := eng.NewSession(ctx, pos)
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}

	b.Run("uniform-1000/drain-observe", func(b *testing.B) {
		sess := newBatterySession(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, ts, err := sess.Tick(nil)
			if err != nil {
				b.Fatal(err)
			}
			if ts.Residual <= 0 || ts.Live != n {
				b.Fatalf("tick %d: live=%d residual=%v; capacity too small for the run", i, ts.Live, ts.Residual)
			}
		}
	})

	b.Run("uniform-1000/lifetime-tick", func(b *testing.B) {
		sess := newBatterySession(b)
		tick := LifetimeTick(TickProfile{
			Moves: 8, Jitter: workload.PaperRadius / 8,
			Width: side, Height: side,
		})
		rng := workload.Rand(19)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			events := tick(0, i, rng, sess)
			if _, _, err := sess.Tick(events); err != nil {
				b.Fatal(err)
			}
		}
	})
}
