package core

import (
	"fmt"
	"math"
	"slices"

	"cbtc/internal/geom"
	"cbtc/internal/graph"
)

// PairwisePolicy selects which redundant edges the pairwise edge removal
// optimization (§3.3) actually deletes. Theorem 3.6 proves that removing
// *all* redundant edges preserves connectivity, so removing any subset is
// sound; the policies differ in the power/throughput trade-off.
type PairwisePolicy int

const (
	// PairwiseLengthFiltered is the paper's practical rule: a node that
	// detects an incident edge as redundant (it is the apex u of
	// Definition 3.5) removes it only when the edge is longer than the
	// longest non-redundant edge incident to that node — shorter
	// redundant edges do not reduce the node's transmission power but do
	// help throughput, so they stay.
	PairwiseLengthFiltered PairwisePolicy = iota + 1
	// PairwiseRemoveAll removes every redundant edge (the setting of
	// Theorem 3.6). Used by the degree-minimization ablation.
	PairwiseRemoveAll
	// PairwiseEitherEndpoint removes a redundant edge when it is longer
	// than the longest non-redundant edge at either endpoint, regardless
	// of which endpoint detected the redundancy. More aggressive than
	// the paper's rule; kept for the ablation.
	PairwiseEitherEndpoint
	// PairwiseBothEndpoints removes a redundant edge only when both
	// endpoints benefit. More conservative than the paper's rule; kept
	// for the ablation.
	PairwiseBothEndpoints
)

// String implements fmt.Stringer.
func (p PairwisePolicy) String() string {
	switch p {
	case PairwiseLengthFiltered:
		return "length-filtered"
	case PairwiseRemoveAll:
		return "remove-all"
	case PairwiseEitherEndpoint:
		return "either-endpoint"
	case PairwiseBothEndpoints:
		return "both-endpoints"
	default:
		return fmt.Sprintf("PairwisePolicy(%d)", int(p))
	}
}

// EdgeID is the paper's lexicographic edge identifier
// eid(u,v) = (d(u,v), max(ID_u, ID_v), min(ID_u, ID_v)). Node indices
// serve as the unique node IDs the optimization requires.
type EdgeID struct {
	Dist  float64
	MaxID int
	MinID int
}

// rowEdgeID builds eid(u,v) from the already-measured distance d(u,v).
func rowEdgeID(u, v int, d float64) EdgeID {
	id := EdgeID{Dist: d}
	if u > v {
		id.MaxID, id.MinID = u, v
	} else {
		id.MaxID, id.MinID = v, u
	}
	return id
}

// Less orders edge IDs lexicographically.
func (a EdgeID) Less(b EdgeID) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.MaxID != b.MaxID {
		return a.MaxID < b.MaxID
	}
	return a.MinID < b.MinID
}

// Redundancy is the per-node state of pairwise edge removal over a
// pre-removal graph. Definition 3.5 is decided at the apex from its own
// neighbor row, and every removal policy consults only the longest
// non-redundant edge at each endpoint (Theorem 3.6), so both are per-node
// quantities: a caller that changes some rows of the graph refreshes
// Detect at exactly those nodes and Measure at those nodes plus their
// neighbors, and every other entry stays valid.
type Redundancy struct {
	// Apex[u] lists, ascending, the neighbors v for which u detected
	// (u,v) as redundant (u served as the apex of Definition 3.5).
	Apex [][]int32
	// Longest[u] is the length of u's longest incident edge that neither
	// endpoint detected as redundant; 0 when there is none.
	Longest []float64
}

// NewRedundancy evaluates Definition 3.5 and the longest non-redundant
// edge at every node of g.
func NewRedundancy(g *graph.Graph, pos []geom.Point) *Redundancy {
	r := &Redundancy{Apex: make([][]int32, g.Len()), Longest: make([]float64, g.Len())}
	for u := range r.Apex {
		r.Detect(g, pos, u)
	}
	for u := range r.Longest {
		r.Measure(g, pos, u)
	}
	return r
}

// Grow appends k nodes with no detections, matching graph.Grow.
func (r *Redundancy) Grow(k int) {
	r.Apex = append(r.Apex, make([][]int32, k)...)
	r.Longest = append(r.Longest, make([]float64, k)...)
}

// detectBuf sizes the stack buffer Detect keeps each neighbor's bearing
// and distance in; larger rows spill to the heap.
const detectBuf = 32

// Detect recomputes Apex[u] from u's row of g: (u,v) is redundant at u
// if u has another neighbor w with ∠vuw < π/3 and eid(u,w) < eid(u,v).
// The angle comparison is strict (an Eps guard keeps exactly-π/3
// configurations non-redundant, as the triangle argument of the proof
// requires).
func (r *Redundancy) Detect(g *graph.Graph, pos []geom.Point, u int) {
	const third = math.Pi / 3
	row := g.Row(u)
	var buf [2 * detectBuf]float64
	geo := buf[:0] // bearing, distance per row entry
	for _, v := range row {
		geo = append(geo, pos[u].Bearing(pos[v]), pos[u].Dist(pos[v]))
	}
	apex := r.Apex[u][:0]
	for i, v := range row {
		eidUV := rowEdgeID(u, int(v), geo[2*i+1])
		for j, w := range row {
			if j != i && rowEdgeID(u, int(w), geo[2*j+1]).Less(eidUV) &&
				geom.AngularDist(geo[2*i], geo[2*j]) < third-geom.Eps {
				apex = append(apex, v)
				break
			}
		}
	}
	r.Apex[u] = apex
}

// Measure recomputes Longest[u] from u's row of g and the current
// detections at u and at each of its neighbors.
func (r *Redundancy) Measure(g *graph.Graph, pos []geom.Point, u int) {
	longest := 0.0
	for _, v := range g.Row(u) {
		if !r.redundant(u, int(v)) {
			longest = max(longest, pos[u].Dist(pos[v]))
		}
	}
	r.Longest[u] = longest
}

// detected reports whether u detected (u,v) as redundant.
func (r *Redundancy) detected(u, v int) bool {
	_, found := slices.BinarySearch(r.Apex[u], int32(v))
	return found
}

func (r *Redundancy) redundant(u, v int) bool { return r.detected(u, v) || r.detected(v, u) }

// Drops reports whether policy removes the edge (u,v) of the pre-removal
// graph — the single keep/drop rule of §3.3. An endpoint benefits from
// the removal when the edge is longer than its longest non-redundant
// edge; a node whose incident edges are all redundant (Longest 0) never
// benefits, so it keeps them all (defensive: the theorem implies this
// cannot happen for non-isolated nodes, but floating-point edge cases
// must not isolate anyone). The zero policy is PairwiseLengthFiltered.
func (r *Redundancy) Drops(policy PairwisePolicy, pos []geom.Point, u, v int) bool {
	atU, atV := r.detected(u, v), r.detected(v, u)
	if !atU && !atV {
		return false
	}
	d := pos[u].Dist(pos[v])
	benefits := func(x int) bool { return r.Longest[x] > 0 && d > r.Longest[x] }
	switch policy {
	case PairwiseRemoveAll:
		return true
	case PairwiseEitherEndpoint:
		return benefits(u) || benefits(v)
	case PairwiseBothEndpoints:
		return benefits(u) && benefits(v)
	default: // PairwiseLengthFiltered: the detecting apex must benefit
		return (atU && benefits(u)) || (atV && benefits(v))
	}
}

// Prune returns g without the edges policy drops, together with those
// edges in canonical order (for reporting). r must be current for g.
func (r *Redundancy) Prune(g *graph.Graph, pos []geom.Point, policy PairwisePolicy) (*graph.Graph, []graph.Edge) {
	out := g.Clone()
	var removed []graph.Edge
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Row(u) {
			if int(v) > u && r.Drops(policy, pos, u, int(v)) {
				out.RemoveEdge(u, int(v))
				removed = append(removed, graph.Edge{U: u, V: int(v)})
			}
		}
	}
	return out, removed
}

// RedundantEdges returns the set of redundant edges of g under
// Definition 3.5.
func RedundantEdges(g *graph.Graph, pos []geom.Point) map[graph.Edge]bool {
	r := NewRedundancy(g, pos)
	out := make(map[graph.Edge]bool)
	for u, apex := range r.Apex {
		for _, v := range apex {
			out[graph.NewEdge(u, int(v))] = true
		}
	}
	return out
}

// PairwiseRemoval applies the pairwise edge removal optimization to the
// symmetric graph g and returns the pruned graph together with the edges
// it removed (sorted canonically, for reporting).
func PairwiseRemoval(g *graph.Graph, pos []geom.Point, policy PairwisePolicy) (*graph.Graph, []graph.Edge) {
	return NewRedundancy(g, pos).Prune(g, pos, policy)
}
