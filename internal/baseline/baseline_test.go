package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/workload"
)

const testRadius = 500.0

// index builds the baseline index for a pure power-law model of maximum
// radius r.
func index(pos []geom.Point, r float64) *Index { return NewIndex(pos, radio.Default(r)) }

func maxPowerGraph(pos []geom.Point, r float64) *graph.Graph {
	g := graph.New(len(pos))
	for u := 0; u < len(pos); u++ {
		for v := u + 1; v < len(pos); v++ {
			if pos[u].Dist(pos[v]) <= r {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestRNGWitnessElimination(t *testing.T) {
	// Triangle where node 2 witnesses the long 0-1 edge.
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(50, 10)}
	g := index(pos, testRadius).RNG()
	if g.HasEdge(0, 1) {
		t.Errorf("witnessed edge must be eliminated")
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 2) {
		t.Errorf("short edges must survive")
	}
}

func TestGabrielDiametralCircle(t *testing.T) {
	// Node 2 inside the diametral circle of 0-1 kills the edge; node 2
	// outside it (but witnessing the RNG lune) does not.
	inside := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(50, 10)}
	if g := index(inside, testRadius).Gabriel(); g.HasEdge(0, 1) {
		t.Errorf("edge with node inside diametral circle must go")
	}
	lune := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(50, 60)}
	if g := index(lune, testRadius).Gabriel(); !g.HasEdge(0, 1) {
		t.Errorf("node outside the diametral circle must not kill the edge")
	}
	if g := index(lune, testRadius).RNG(); g.HasEdge(0, 1) {
		t.Errorf("the same node DOES witness the RNG lune (d<100 to both)")
	}
}

func TestYaoBasics(t *testing.T) {
	center := geom.Pt(0, 0)
	// Two nodes in the same sector: only the nearest gets the arc.
	pos := []geom.Point{center, center.Polar(100, 0.1), center.Polar(200, 0.2)}
	d, err := index(pos, testRadius).Yao(6)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasArc(0, 1) || d.HasArc(0, 2) {
		t.Errorf("Yao must keep only the nearest per sector: %v", d.Successors(0))
	}
	// Out-degree bounded by k.
	if got := d.OutDegree(0); got > 6 {
		t.Errorf("out-degree %d exceeds k", got)
	}
	if _, err := index(pos, testRadius).Yao(0); err == nil {
		t.Errorf("k=0 must be rejected")
	}
}

func TestYaoRespectsRange(t *testing.T) {
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(600, 0)}
	d, err := index(pos, testRadius).Yao(6)
	if err != nil {
		t.Fatal(err)
	}
	if d.ArcCount() != 0 {
		t.Errorf("out-of-range node must not get an arc")
	}
}

// Classical inclusion chain on random placements:
// EMST ⊆ RNG ⊆ Gabriel ⊆ G_R.
func TestInclusionChainProperty(t *testing.T) {
	f := func(seed uint64) bool {
		pos := workload.Uniform(workload.Rand(seed), 40, 1500, 1500)
		gr := maxPowerGraph(pos, testRadius)
		mst := graph.MST(gr, graph.EuclideanWeight(pos))
		rng := index(pos, testRadius).RNG()
		gg := index(pos, testRadius).Gabriel()
		return mst.IsSubgraphOf(rng) && rng.IsSubgraphOf(gg) && gg.IsSubgraphOf(gr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Every baseline preserves the G_R component partition (Yao needs k ≥ 6).
func TestBaselinesPreserveConnectivity(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 60, 1500, 1500)
		gr := maxPowerGraph(pos, testRadius)

		builders := map[string]func() *graph.Graph{
			"rng":     func() *graph.Graph { return index(pos, testRadius).RNG() },
			"gabriel": func() *graph.Graph { return index(pos, testRadius).Gabriel() },
			"yao6": func() *graph.Graph {
				g, err := index(pos, testRadius).YaoSymmetric(6)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			"yao8": func() *graph.Graph {
				g, err := index(pos, testRadius).YaoSymmetric(8)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			"minmax": func() *graph.Graph {
				g, _ := index(pos, testRadius).MinMaxRadius()
				return g
			},
		}
		for name, build := range builders {
			g := build()
			if !graph.SamePartition(gr, g) {
				t.Errorf("seed %d: %s changed the component partition", seed, name)
			}
			if !g.IsSubgraphOf(gr) {
				t.Errorf("seed %d: %s is not a subgraph of G_R", seed, name)
			}
		}
	}
}

func TestMinMaxRadiusProperties(t *testing.T) {
	pos := workload.Uniform(workload.Rand(3), 50, 1500, 1500)
	g, radii := index(pos, testRadius).MinMaxRadius()
	gr := maxPowerGraph(pos, testRadius)
	mst := graph.MST(gr, graph.EuclideanWeight(pos))

	// The spanning forest is contained in the induced graph.
	if !mst.IsSubgraphOf(g) {
		t.Errorf("MST must be contained in the min-max-radius graph")
	}
	// The maximum assigned radius equals the bottleneck radius.
	want := graph.BottleneckRadius(gr, graph.EuclideanWeight(pos))
	var got float64
	for _, r := range radii {
		if r > got {
			got = r
		}
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("max radius = %v, want bottleneck %v", got, want)
	}
	// No CBTC-style assignment can beat the bottleneck on max radius:
	// it is the optimum of the min-max objective.
	for u, r := range radii {
		if r > testRadius*(1+1e-9) {
			t.Errorf("node %d radius %v exceeds R", u, r)
		}
	}
}

// The RNG has bounded average degree on random instances (its expected
// degree is below 4 in the plane); sanity-check the construction is not
// degenerate.
func TestRNGDegreeSane(t *testing.T) {
	pos := workload.Uniform(workload.Rand(7), 100, 1500, 1500)
	g := index(pos, testRadius).RNG()
	if d := graph.AvgDegree(g); d <= 1 || d > 6 {
		t.Errorf("RNG average degree %v outside the plausible range (1, 6]", d)
	}
}

func TestYaoSectorBoundary(t *testing.T) {
	// A node exactly on the 0-bearing sector boundary must land in a
	// valid sector (no panic, one arc).
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}
	d, err := index(pos, testRadius).Yao(6)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasArc(0, 1) {
		t.Errorf("boundary-bearing neighbor lost")
	}
}

func TestBetaSkeletonSpecialCases(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		pos := workload.Uniform(workload.Rand(seed), 40, 1500, 1500)
		b1, err := index(pos, testRadius).BetaSkeleton(1)
		if err != nil {
			t.Fatal(err)
		}
		if !b1.Equal(index(pos, testRadius).Gabriel()) {
			t.Errorf("seed %d: β=1 skeleton must equal the Gabriel graph", seed)
		}
		b2, err := index(pos, testRadius).BetaSkeleton(2)
		if err != nil {
			t.Fatal(err)
		}
		if !b2.Equal(index(pos, testRadius).RNG()) {
			t.Errorf("seed %d: β=2 skeleton must equal the RNG", seed)
		}
	}
}

func TestBetaSkeletonMonotone(t *testing.T) {
	pos := workload.Uniform(workload.Rand(11), 50, 1500, 1500)
	var prev *graph.Graph
	for _, beta := range []float64{1, 1.3, 1.7, 2, 2.5} {
		g, err := index(pos, testRadius).BetaSkeleton(beta)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !g.IsSubgraphOf(prev) {
			t.Errorf("β=%v skeleton is not a subgraph of the previous (smaller β)", beta)
		}
		prev = g
	}
}

func TestBetaSkeletonValidation(t *testing.T) {
	if _, err := index(nil, 500).BetaSkeleton(0.5); err == nil {
		t.Errorf("β < 1 must be rejected")
	}
}

// β ≤ 2 skeletons contain the RNG, hence the EMST: connectivity holds.
func TestBetaSkeletonConnectivity(t *testing.T) {
	for _, beta := range []float64{1, 1.5, 2} {
		pos := workload.Uniform(workload.Rand(13), 60, 1500, 1500)
		g, err := index(pos, testRadius).BetaSkeleton(beta)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.SamePartition(maxPowerGraph(pos, testRadius), g) {
			t.Errorf("β=%v skeleton changed the partition", beta)
		}
	}
}
