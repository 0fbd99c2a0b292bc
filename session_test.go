package cbtc

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"cbtc/internal/core"
	"cbtc/internal/workload"
)

// sessionLiveMap returns the session's live node ids (ascending) and
// their positions — the placement a fresh run would see.
func sessionLiveMap(s *Session) ([]int, []Point) {
	ids := make([]int, 0, s.Len())
	pos := make([]Point, 0, s.Len())
	for id := 0; id < s.Len(); id++ {
		if s.Alive(id) {
			ids = append(ids, id)
			pos = append(pos, s.Position(id))
		}
	}
	return ids, pos
}

// fullRebuildLocked is the test oracle for Session.Snapshot: the
// from-scratch rebuild that bypasses every maintained graph —
// BuildTopology over the installed node rows plus a fresh max-power G_R
// with departed nodes isolated. The caller holds s.mu.
func fullRebuildLocked(s *Session) (*Result, error) {
	exec := &core.Execution{
		Alpha: s.eng.alpha,
		Model: s.eng.model,
		Pos:   append([]Point(nil), s.pos...),
		Nodes: append([]core.NodeResult(nil), s.nodes...),
	}
	topo, err := core.BuildTopology(exec, s.eng.opts)
	if err != nil {
		return nil, err
	}
	gr := core.MaxPowerGraphParallel(s.pos, s.eng.prop, s.workers)
	for u, alive := range s.alive {
		if !alive {
			gr.IsolateNode(u)
		}
	}
	return newResultWithGR(s.pos, s.eng.model, topo, gr), nil
}

// requireSessionMatchesFreshRun asserts the §4 convergence property:
// the incrementally-maintained topology equals a from-scratch Engine.Run
// over the current live placement, edge for edge and power for power.
func requireSessionMatchesFreshRun(t *testing.T, eng *Engine, s *Session) {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ids, livePos := sessionLiveMap(s)
	fresh, err := eng.Run(context.Background(), livePos)
	if err != nil {
		t.Fatal(err)
	}
	for fi, u := range ids {
		for fj, v := range ids {
			if snap.G.HasEdge(u, v) != fresh.G.HasEdge(fi, fj) {
				t.Fatalf("edge {%d,%d}: session=%v fresh=%v",
					u, v, snap.G.HasEdge(u, v), fresh.G.HasEdge(fi, fj))
			}
		}
		if snap.Radii[u] != fresh.Radii[fi] {
			t.Fatalf("node %d: session radius %v, fresh %v", u, snap.Radii[u], fresh.Radii[fi])
		}
		if snap.Powers[u] != fresh.Powers[fi] {
			t.Fatalf("node %d: session power %v, fresh %v", u, snap.Powers[u], fresh.Powers[fi])
		}
		if snap.Boundary[u] != fresh.Boundary[fi] {
			t.Fatalf("node %d: session boundary %v, fresh %v", u, snap.Boundary[u], fresh.Boundary[fi])
		}
		// The beacon power reads the graph before pairwise removal.
		if snap.BeaconPower(u) != fresh.BeaconPower(fi) {
			t.Fatalf("node %d: session beacon power %v, fresh %v", u, snap.BeaconPower(u), fresh.BeaconPower(fi))
		}
	}
	freshID := make(map[int]int, len(ids))
	for fi, u := range ids {
		freshID[u] = fi
	}
	removed := snap.RemovedRedundant()
	for i, e := range removed {
		removed[i] = Edge{U: freshID[e.U], V: freshID[e.V]}
	}
	if want := fresh.RemovedRedundant(); !slices.Equal(removed, want) {
		t.Fatalf("removed redundant edges: session %v, fresh %v", removed, want)
	}
	// The ground-truth G_R — incrementally maintained since PR 3 — must
	// match the fresh run's too.
	for fi, u := range ids {
		for fj, v := range ids {
			if snap.GR.HasEdge(u, v) != fresh.GR.HasEdge(fi, fj) {
				t.Fatalf("GR edge {%d,%d}: session=%v fresh=%v",
					u, v, snap.GR.HasEdge(u, v), fresh.GR.HasEdge(fi, fj))
			}
		}
	}
	// Departed nodes must be isolated.
	for id := 0; id < s.Len(); id++ {
		if !s.Alive(id) && snap.G.Degree(id) != 0 {
			t.Fatalf("departed node %d still has %d edges", id, snap.G.Degree(id))
		}
		if !s.Alive(id) && snap.GR.Degree(id) != 0 {
			t.Fatalf("departed node %d still has %d GR edges", id, snap.GR.Degree(id))
		}
	}
}

// The ISSUE's acceptance test: a join→leave→move event stream converges
// to the same topology as a fresh Engine.Run on the final placement —
// here checked after every single event, for the basic algorithm and
// for the full optimization stack.
func TestSessionConvergesToFreshRun(t *testing.T) {
	stacks := []struct {
		name string
		opts []Option
	}{
		{"basic", []Option{WithMaxRadius(500)}},
		{"all-ops", []Option{WithMaxRadius(500), WithAllOptimizations()}},
		{"asym-2pi3", []Option{WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithAllOptimizations()}},
		{"quantized", []Option{WithMaxRadius(500), WithShrinkBack(), WithShrinkBackSchedule(1.5)}},
		{"remove-all", []Option{WithMaxRadius(500), WithPairwiseRemoval(PairwiseRemoveAll)}},
		{"either-endpoint", []Option{WithMaxRadius(500), WithShrinkBack(), WithPairwiseRemoval(PairwiseEitherEndpoint)}},
		{"both-endpoints", []Option{WithMaxRadius(500), WithShrinkBack(), WithPairwiseRemoval(PairwiseBothEndpoints)}},
	}
	for _, st := range stacks {
		st := st
		t.Run(st.name, func(t *testing.T) {
			eng, err := New(st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(context.Background(), someNetwork(21, 40))
			if err != nil {
				t.Fatal(err)
			}
			requireSessionMatchesFreshRun(t, eng, sess)

			rng := workload.Rand(7)
			for step := 0; step < 18; step++ {
				switch step % 3 {
				case 0: // join somewhere in the region
					sess.Join(Pt(rng.Float64()*1500, rng.Float64()*1500))
				case 1: // leave a random live node
					ids, _ := sessionLiveMap(sess)
					if _, err := sess.Leave(ids[rng.IntN(len(ids))]); err != nil {
						t.Fatal(err)
					}
				case 2: // move a random live node, sometimes far away
					ids, _ := sessionLiveMap(sess)
					id := ids[rng.IntN(len(ids))]
					if _, err := sess.Move(id, Pt(rng.Float64()*1500, rng.Float64()*1500)); err != nil {
						t.Fatal(err)
					}
				}
				requireSessionMatchesFreshRun(t, eng, sess)
			}
		})
	}
}

// TestSessionLargeNIncrementalIndex runs a long mixed event stream over
// a dense several-hundred-node session — the regime the incremental
// spatial index exists for — and checks the maintained fixed point
// against a fresh run at checkpoints, plus the locality guarantee that
// each event only recomputes nodes near its site.
func TestSessionLargeNIncrementalIndex(t *testing.T) {
	const side = 3000.0
	eng, err := New(WithMaxRadius(500), WithAllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.Rand(31)
	sess, err := eng.NewSession(context.Background(), workload.Uniform(rng, 400, side, side))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 60; step++ {
		var rep EventReport
		var site Point
		switch step % 4 {
		case 0:
			site = Pt(rng.Float64()*side, rng.Float64()*side)
			_, rep = sess.Join(site)
		case 1:
			ids, _ := sessionLiveMap(sess)
			id := ids[rng.IntN(len(ids))]
			site = sess.Position(id)
			if rep, err = sess.Leave(id); err != nil {
				t.Fatal(err)
			}
		default:
			ids, _ := sessionLiveMap(sess)
			id := ids[rng.IntN(len(ids))]
			from := sess.Position(id)
			site = Pt(rng.Float64()*side, rng.Float64()*side)
			if rep, err = sess.Move(id, site); err != nil {
				t.Fatal(err)
			}
			// A move affects both the old and the new neighborhood.
			r := 2 * eng.RadioModel().MaxRadius
			for _, u := range rep.Recomputed {
				p := sess.Position(u)
				if p.Dist(site) > r*(1+1e-9) && p.Dist(from) > r*(1+1e-9) {
					t.Fatalf("step %d: recomputed node %d at %v is outside both event neighborhoods", step, u, p)
				}
			}
			if step%10 == 0 {
				requireSessionMatchesFreshRun(t, eng, sess)
			}
			continue
		}
		r := 2 * eng.RadioModel().MaxRadius
		for _, u := range rep.Recomputed {
			if sess.Position(u).Dist(site) > r*(1+1e-9) {
				t.Fatalf("step %d: recomputed node %d at %v is outside the event neighborhood of %v",
					step, u, sess.Position(u), site)
			}
		}
		if step%10 == 0 {
			requireSessionMatchesFreshRun(t, eng, sess)
		}
	}
	requireSessionMatchesFreshRun(t, eng, sess)
}

// TestPairwiseRepairMatchesRebuild pins the locality argument of the
// pairwise repair on a sparse network, where a node two hops from an
// event can lie outside the recomputed region: after every event the
// maintained §3.3 state must equal a from-scratch evaluation over the
// maintained pre-removal graph, and the final graph its pruning. A
// repair that re-measured only the nodes whose rows changed, and not
// their neighbors, leaves a stale longest non-redundant edge here.
func TestPairwiseRepairMatchesRebuild(t *testing.T) {
	const side = 5000.0
	eng, err := New(WithMaxRadius(500), WithPairwiseRemoval(PairwiseLengthFiltered))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.Rand(3)
	sess, err := eng.NewSession(context.Background(), workload.Uniform(rng, 1200, side, side))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 150; step++ {
		if _, err := sess.ApplyBatch(randomBatch(rng, sess, 1, side)); err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		red := core.NewRedundancy(sess.gpre, sess.pos)
		g, _ := red.Prune(sess.gpre, sess.pos, eng.opts.PairwisePolicy)
		sameRed := slices.Equal(red.Longest, sess.red.Longest) &&
			slices.EqualFunc(red.Apex, sess.red.Apex, slices.Equal[[]int32])
		sameG := g.Equal(sess.g)
		sess.mu.Unlock()
		if !sameRed || !sameG {
			t.Fatalf("step %d: maintained state diverges from the rebuild (redundancy equal %v, G equal %v)", step, sameRed, sameG)
		}
	}
}

// Replaying cmd/dynsim's built-in crash/move/add demo through the public
// Session API must preserve connectivity at every checkpoint (the §4
// guarantee at the oracle fixed point).
func TestSessionReplaysDynsimDemo(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Point{Pt(0, 0), Pt(300, 0), Pt(600, 0), Pt(900, 0), Pt(1200, 0)}
	sess, err := eng.NewSession(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, wantComponents int) {
		t.Helper()
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !snap.PreservesConnectivity() {
			t.Fatalf("%s: connectivity not preserved", label)
		}
		if got := snap.Components(); got != wantComponents {
			t.Errorf("%s: components = %d, want %d", label, got, wantComponents)
		}
	}

	check("steady state", 1)

	// The bridge node crashes: the chain splits, isolated crash slot
	// included the partition must still match G_R.
	if _, err := sess.Leave(2); err != nil {
		t.Fatal(err)
	}
	check("after bridge crash", 3) // {0,1}, {3,4}, {2 departed}

	// A replacement joins just off the old bridge position.
	if id, _ := sess.Join(Pt(600, 40)); id != 5 {
		t.Fatalf("replacement got id %d, want 5", id)
	}
	check("after replacement joins", 2) // {0,1,3,4,5}, {2 departed}

	// Move the replacement onto the exact bridge position.
	if _, err := sess.Move(5, Pt(600, 0)); err != nil {
		t.Fatal(err)
	}
	check("after replacement settles", 2)

	requireSessionMatchesFreshRun(t, eng, sess)

	st := sess.Stats()
	if st.Joins != 1 || st.Leaves != 1 || st.Moves != 1 {
		t.Errorf("stats = %+v, want 1 join / 1 leave / 1 move", st)
	}
	if st.Regrows == 0 {
		t.Errorf("crashing the only bridge must force at least one regrow, stats = %+v", st)
	}
}

func TestSessionEventErrors(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Leave(99); !errors.Is(err, ErrBadEvent) {
		t.Errorf("leave of unknown node = %v, want ErrBadEvent", err)
	}
	if _, err := sess.Leave(4); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Leave(4); !errors.Is(err, ErrBadEvent) {
		t.Errorf("double leave = %v, want ErrBadEvent", err)
	}
	if _, err := sess.Move(4, Pt(0, 0)); !errors.Is(err, ErrBadEvent) {
		t.Errorf("move of departed node = %v, want ErrBadEvent", err)
	}
	if sess.Alive(4) {
		t.Errorf("node 4 still alive after leave")
	}
	if sess.LiveCount() != 9 {
		t.Errorf("live count = %d, want 9", sess.LiveCount())
	}
}

// Sessions serialize events internally; concurrent readers and writers
// must be race-free (exercised under -race in CI).
func TestSessionConcurrentUse(t *testing.T) {
	eng, err := New(WithMaxRadius(500))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(5, 30))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				sess.Join(Pt(float64(100*g+i), float64(50*g)))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := sess.Snapshot(); err != nil {
					t.Error(err)
					return
				}
				sess.Stats()
				sess.LiveCount()
			}
		}()
	}
	wg.Wait()
	requireSessionMatchesFreshRun(t, eng, sess)
}
