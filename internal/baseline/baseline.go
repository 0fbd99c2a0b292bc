// Package baseline implements the position-based topology-control
// comparators the paper's related-work section cites: the relative
// neighborhood graph (Toussaint [15]), the Gabriel graph ([5]), the
// Yao/θ-graph ([3,7] — the position-based cousin of the cone idea), and
// the minimum-maximum-radius assignment in the spirit of Ramanathan &
// Rosales-Hain [12]. All constructions are restricted to the
// maximum-power graph G_R: only pairs joined by a G_R edge are considered.
//
// Unlike CBTC, every baseline here requires exact position information —
// reproducing the paper's argument that CBTC achieves comparable
// topologies from directional measurements alone.
//
// An Index built once per placement holds G_R — built by
// core.MaxPowerGraph, the module's single G_R authority, so a shadowed
// propagation model decides the baselines' candidate links exactly as it
// decides CBTC's — and the spatial grid that answers the witness scans'
// "nodes within r of p" queries. Every construction takes its candidate
// pairs from G_R's rows, so the baselines scale the way the CBTC oracle
// does and can never emit an edge outside G_R.
package baseline

import (
	"fmt"
	"math"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/radio"
	"cbtc/internal/spatial"
)

// Index is a reusable accelerator for one placement under one
// propagation model: every baseline construction over the placement
// shares its G_R and its grid. It is safe for concurrent use — all
// methods are read-only over the shared state.
type Index struct {
	pos  []geom.Point
	prop radio.Propagation
	grid *spatial.Grid
	gr   *graph.Graph
}

// NewIndex builds the shared accelerator for the placement under the
// propagation model p: a grid sized to the model's per-link radius bound,
// and G_R built over that grid by core.MaxPowerGraph.
func NewIndex(pos []geom.Point, p radio.Propagation) *Index {
	grid := spatial.New(pos, p.MaxLinkRadius())
	return &Index{pos: pos, prop: p, grid: grid, gr: core.MaxPowerGraph(pos, p, grid, 1)}
}

// GR returns the maximum-power graph every construction is restricted
// to. It is shared with the index: treat it as read-only.
func (ix *Index) GR() *graph.Graph { return ix.gr }

// within returns the ids within radius rad of p in ascending order — a
// tight superset query (widened by spatial.QuerySlack) whose results the
// witness scans re-check with their construction's exact predicate, so
// edge sets are identical to a naive full scan.
func (ix *Index) within(p geom.Point, rad float64) []int {
	return ix.grid.Within(p, rad*(1+spatial.QuerySlack))
}

// keepEdges returns the subgraph of G_R holding every edge {u,v} (u < v)
// for which blocked(u, v, d(u,v)²) is false — the shape of every
// construction that thins G_R edge by edge. Rows are emitted as ascending
// half rows into the packed bulk constructor.
func (ix *Index) keepEdges(blocked func(u, v int, d2 float64) bool) *graph.Graph {
	rows := make([][]int32, len(ix.pos))
	for u := range rows {
		for _, v := range ix.gr.Row(u) {
			if int(v) > u && !blocked(u, int(v), ix.pos[u].Dist2(ix.pos[v])) {
				rows[u] = append(rows[u], v)
			}
		}
	}
	return graph.NewFromHalfRows(rows)
}

// RNG returns the relative neighborhood graph over G_R: the edge {u,v}
// survives iff no witness w is strictly closer to both endpoints than
// they are to each other. The RNG contains the Euclidean MST of every
// component, so it preserves G_R's connectivity. Witnesses for {u,v} are
// strictly within d(u,v) of u, so the witness scan is a radius-d(u,v)
// query instead of a full placement pass.
func (ix *Index) RNG() *graph.Graph {
	return ix.keepEdges(func(u, v int, d2 float64) bool {
		for _, w := range ix.within(ix.pos[u], math.Sqrt(d2)) {
			if w != u && w != v && ix.pos[w].Dist2(ix.pos[u]) < d2 && ix.pos[w].Dist2(ix.pos[v]) < d2 {
				return true
			}
		}
		return false
	})
}

// Gabriel returns the Gabriel graph over G_R: the edge {u,v} survives
// iff no other node lies strictly inside the circle having uv as its
// diameter. RNG ⊆ Gabriel ⊆ G_R. The blocking circle has radius
// d(u,v)/2, so the witness scan is a radius query around the midpoint.
func (ix *Index) Gabriel() *graph.Graph {
	return ix.keepEdges(func(u, v int, d2 float64) bool {
		center := ix.pos[u].Midpoint(ix.pos[v])
		rad2 := d2 / 4
		for _, w := range ix.within(center, math.Sqrt(rad2)) {
			if w != u && w != v && ix.pos[w].Dist2(center) < rad2 {
				return true
			}
		}
		return false
	})
}

// Yao returns the Yao (θ-) digraph over G_R with k sectors: each node
// keeps, in each of k equal angular sectors, a directed edge to its
// nearest G_R neighbor (ties broken by index). For k ≥ 6 (sector angle
// ≤ π/3) the symmetric closure preserves G_R's connectivity — the
// positional analogue of CBTC's cone condition.
func (ix *Index) Yao(k int) (*graph.Digraph, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: Yao needs k ≥ 1 sectors, got %d", k)
	}
	n := len(ix.pos)
	d := graph.NewDigraph(n)
	sector := geom.TwoPi / float64(k)
	best := make([]int, k)
	bestD2 := make([]float64, k)
	for u := 0; u < n; u++ {
		for s := 0; s < k; s++ {
			best[s] = -1
			bestD2[s] = math.Inf(1)
		}
		for _, w := range ix.gr.Row(u) {
			v := int(w)
			d2 := ix.pos[u].Dist2(ix.pos[v])
			s := int(ix.pos[u].Bearing(ix.pos[v]) / sector)
			if s >= k { // bearing can round to exactly 2π
				s = k - 1
			}
			if d2 < bestD2[s] || (d2 == bestD2[s] && v < best[s]) {
				bestD2[s] = d2
				best[s] = v
			}
		}
		for s := 0; s < k; s++ {
			if best[s] >= 0 {
				d.AddArc(u, best[s])
			}
		}
	}
	return d, nil
}

// YaoSymmetric returns the symmetric closure of the Yao digraph.
func (ix *Index) YaoSymmetric(k int) (*graph.Graph, error) {
	d, err := ix.Yao(k)
	if err != nil {
		return nil, err
	}
	return d.SymmetricClosure(), nil
}

// BetaSkeleton returns the lune-based β-skeleton over G_R for β ≥ 1 —
// the "G_β graphs" family the paper cites alongside the RNG: the edge
// {u,v} survives iff no other node lies strictly inside the β-lune, the
// intersection of the two disks of radius β·d(u,v)/2 centered at the
// points (1-β/2)·u + (β/2)·v and (β/2)·u + (1-β/2)·v. β = 1 is the
// Gabriel graph; β = 2 is the relative neighborhood graph; the family
// is edge-monotone decreasing in β. Lune members lie within the first
// disk, so one radius query around its center bounds the witness scan.
func (ix *Index) BetaSkeleton(beta float64) (*graph.Graph, error) {
	if beta < 1 {
		return nil, fmt.Errorf("baseline: lune-based skeleton needs β ≥ 1, got %v", beta)
	}
	return ix.keepEdges(func(u, v int, d2 float64) bool {
		lRad := beta * math.Sqrt(d2) / 2
		c1 := ix.pos[u].Scale(1 - beta/2).Add(ix.pos[v].Scale(beta / 2))
		c2 := ix.pos[u].Scale(beta / 2).Add(ix.pos[v].Scale(1 - beta/2))
		for _, w := range ix.within(c1, lRad) {
			if w != u && w != v && ix.pos[w].Dist(c1) < lRad && ix.pos[w].Dist(c2) < lRad {
				return true
			}
		}
		return false
	}), nil
}

// MinMaxRadius assigns each node the smallest radius that keeps the
// network connected under a common spanning structure — the objective of
// Ramanathan & Rosales-Hain's centralized algorithm. Each node's radius
// is its longest incident edge in the Euclidean minimum spanning forest
// of G_R; the returned graph contains every G_R pair mutually within
// their assigned radii (which always includes the forest itself).
func (ix *Index) MinMaxRadius() (*graph.Graph, []float64) {
	mst := graph.MST(ix.gr, graph.EuclideanWeight(ix.pos))
	radii := make([]float64, len(ix.pos))
	for u := range radii {
		radii[u] = graph.NodeRadius(mst, ix.pos, u)
	}
	out := ix.keepEdges(func(u, v int, _ float64) bool {
		d := ix.pos[u].Dist(ix.pos[v])
		return d > radii[u]*(1+1e-12) || d > radii[v]*(1+1e-12)
	})
	return out, radii
}

// EnergyMST returns the minimum spanning forest of G_R under per-link
// transmission energy — the backbone of the energy-balanced
// reconfiguration baseline. With residual nil the weight of {u,v} is the
// power the propagation model requires to establish the link, so the
// forest minimizes total transmit energy. With residual batteries given
// (one per node, in energy units), each link's energy cost is divided by
// the smaller of its endpoints' residuals: links leaning on nearly-drained
// nodes become expensive and the forest routes around them, spreading
// drain across the population. A fully-depleted endpoint cannot transmit
// at all: its links are dropped before the spanning pass, so dead nodes
// come out isolated and the forest reroutes around them.
func (ix *Index) EnergyMST(residual []float64) *graph.Graph {
	gr := ix.gr
	if residual != nil {
		gr = ix.keepEdges(func(u, v int, _ float64) bool {
			return residual[u] <= 0 || residual[v] <= 0
		})
	}
	w := func(u, v int) float64 {
		d := ix.pos[u].Dist(ix.pos[v])
		cost := ix.prop.LinkPower(u, v, d)
		if residual != nil {
			cost /= math.Min(residual[u], residual[v])
		}
		return cost
	}
	return graph.MST(gr, w)
}
