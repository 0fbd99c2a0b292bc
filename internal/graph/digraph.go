package graph

import "fmt"

// Digraph is a directed simple graph over nodes 0..N-1. It represents
// the asymmetric neighbor relation N_α = {(u,v) : v ∈ N_α(u)} computed
// by CBTC before any symmetrization: the same row store as Graph, read
// as successor rows, plus its arc count; see the package comment.
type Digraph struct {
	rows
	arcs int // cached arc count
}

// NewDigraph returns an empty directed graph with n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{rows: newRows(n)}
}

// NewDigraphFromRows builds a digraph from per-node successor rows
// packed into one shared arena. rows[u] must be strictly ascending,
// in-range, and free of self-loops; the rows are copied, not retained.
func NewDigraphFromRows(rows [][]int32) *Digraph {
	n := len(rows)
	checkNodeCount(n)
	total := 0
	for u, row := range rows {
		for i, v := range row {
			if int(v) < 0 || int(v) >= n || int(v) == u || (i > 0 && row[i-1] >= v) {
				panic(fmt.Sprintf("graph: successor row %d invalid at %d", u, v))
			}
		}
		total += len(row)
	}
	return &Digraph{rows: packRows(rows, total), arcs: total}
}

// AddArc inserts the directed edge u→v. Self-loops are ignored.
func (d *Digraph) AddArc(u, v int) {
	d.check(u)
	d.check(v)
	if u != v && d.insert(u, int32(v)) {
		d.arcs++
	}
}

// RemoveArc deletes the directed edge u→v if present.
func (d *Digraph) RemoveArc(u, v int) {
	d.check(u)
	d.check(v)
	if d.remove(u, int32(v)) {
		d.arcs--
	}
}

// HasArc reports whether the directed edge u→v is present.
func (d *Digraph) HasArc(u, v int) bool {
	d.check(u)
	d.check(v)
	return d.has(u, int32(v))
}

// OutDegree returns the number of outgoing edges of u.
func (d *Digraph) OutDegree(u int) int { return len(d.Row(u)) }

// Successors returns the sorted list of v with u→v as a fresh slice.
func (d *Digraph) Successors(u int) []int { return d.ints(u) }

// ArcCount returns the number of directed edges.
func (d *Digraph) ArcCount() int { return d.arcs }

// SymmetricClosure returns the smallest symmetric (undirected) graph
// containing every arc: {u,v} is an edge iff u→v or v→u. This is the
// paper's E_α.
func (d *Digraph) SymmetricClosure() *Graph {
	g := New(d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.adj[u] {
			g.AddEdge(u, int(v))
		}
	}
	return g
}

// MutualSubgraph returns the largest symmetric graph contained in the
// arc set: {u,v} is an edge iff both u→v and v→u. This is the paper's
// E⁻_α, used by the asymmetric edge removal optimization (§3.2).
func (d *Digraph) MutualSubgraph() *Graph {
	g := New(d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.adj[u] {
			if u < int(v) && d.HasArc(int(v), u) {
				g.AddEdge(u, int(v))
			}
		}
	}
	return g
}

// AsymmetricArcs returns every arc u→v whose reverse v→u is absent, in
// canonical order (ascending U, then V — which the sorted rows yield by
// construction). These are the arcs the asymmetric-removal protocol
// message ("remove me from your neighbor set") travels along.
func (d *Digraph) AsymmetricArcs() []Edge {
	var arcs []Edge
	for u := 0; u < d.n; u++ {
		for _, v := range d.adj[u] {
			if !d.HasArc(int(v), u) {
				arcs = append(arcs, Edge{U: u, V: int(v)}) // directed: U→V
			}
		}
	}
	return arcs
}

// Clone returns a copy-on-write clone sharing every successor row until
// one side mutates it; see Graph.Clone for the sharing contract (Clone
// counts as a mutation of the original for concurrency purposes).
func (d *Digraph) Clone() *Digraph {
	return &Digraph{rows: d.clone(), arcs: d.arcs}
}

// CloneDeep returns a fully materialized copy sharing no storage with
// the original; the reference for tests and clone benchmarks.
func (d *Digraph) CloneDeep() *Digraph {
	return &Digraph{rows: packRows(d.adj, d.arcs), arcs: d.arcs}
}

// Equal reports whether two digraphs have identical node and arc sets.
func (d *Digraph) Equal(o *Digraph) bool {
	return d.arcs == o.arcs && d.equal(&o.rows)
}
