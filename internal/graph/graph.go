// Package graph provides the graph substrate for topology control: the
// directed neighbor relation N_α computed by CBTC, its symmetric closure
// E_α and largest symmetric subset E⁻_α, connectivity queries (union-find
// and BFS), shortest paths, and the degree/radius/stretch metrics reported
// in the paper's evaluation.
//
// Nodes are dense integer indices 0..N-1, matching their position in the
// placement slice used by the rest of the system.
//
// # Representation
//
// Graph and Digraph embed one row store of packed sorted adjacency: one
// ascending []int32 row per node, bulk-built graphs packing all rows
// into a single shared arena (CSR-style). Graph keeps its rows symmetric
// and counts edges, Digraph counts arcs; sorted insert/remove,
// copy-on-write, dumps and dump validation belong to the store.
// Iteration order is therefore ascending by construction — every
// consumer is deterministic for free — and clones are copy-on-write:
// Clone shares the per-node rows with the original and either side
// copies a row only when it first mutates it. A long-lived Session
// snapshotting a 10k-node topology pays O(n) slice-header copies per
// snapshot plus O(dirty rows) copies per repair, instead of a full
// adjacency rebuild.
//
// Rows returned by Row are the live internal storage: callers must not
// mutate them, and a row is only valid until the graph's next mutation.
package graph

import "fmt"

// Edge is an undirected edge between two node indices with U < V.
type Edge struct {
	U, V int
}

// NewEdge returns the canonical (ordered) edge between a and b.
func NewEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// Graph is an undirected simple graph over nodes 0..N-1: a row store
// kept symmetric (v is in u's row iff u is in v's) plus its edge count.
type Graph struct {
	rows
	edges int // cached undirected edge count
}

// New returns an empty undirected graph with n nodes.
func New(n int) *Graph {
	return &Graph{rows: newRows(n)}
}

// NewFromHalfRows builds a graph from per-node "upper" rows packed into
// one shared arena: half[u] must list u's neighbors v > u in strictly
// ascending order. This is the bulk constructor the max-power graph
// builders use — degree counting plus two linear passes, no per-edge
// sorted inserts.
func NewFromHalfRows(half [][]int32) *Graph {
	n := len(half)
	checkNodeCount(n)
	deg := make([]int32, n)
	total := 0
	for u, row := range half {
		for i, v := range row {
			if int(v) <= u || int(v) >= n || (i > 0 && row[i-1] >= v) {
				panic(fmt.Sprintf("graph: half row %d invalid at %d", u, v))
			}
			deg[u]++
			deg[v]++
		}
		total += 2 * len(row)
	}
	arena := make([]int32, total)
	g := &Graph{rows: newRows(n), edges: total / 2}
	off := 0
	for u := 0; u < n; u++ {
		// Full-capacity-limited so appends never bleed into the next row.
		g.adj[u] = arena[off : off : off+int(deg[u])]
		off += int(deg[u])
	}
	// A single ascending pass fills every row in ascending order: row u
	// first receives its smaller neighbors w < u (as w's own half rows are
	// walked, in increasing w), then its own ascending half row.
	for u, row := range half {
		for _, v := range row {
			g.adj[u] = append(g.adj[u], v)
			g.adj[v] = append(g.adj[v], int32(u))
		}
	}
	return g
}

// AddEdge inserts the undirected edge {u, v}, reporting whether the
// edge was absent (so incremental consumers like LiveComponents can
// record the exact diff a mutation pass produced). Self-loops are
// ignored. It panics on out-of-range indices.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v || !g.insert(u, int32(v)) {
		return false
	}
	g.insert(v, int32(u))
	g.edges++
	return true
}

// RemoveEdge deletes the undirected edge {u, v} if present, reporting
// whether it was.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v || !g.remove(u, int32(v)) {
		return false
	}
	g.remove(v, int32(u))
	g.edges--
	return true
}

// IsolateNode removes every edge incident to u, leaving it an isolated
// vertex. Dynamic scenarios use it to model departed nodes in a
// ground-truth graph.
func (g *Graph) IsolateNode(u int) {
	g.check(u)
	row := g.adj[u]
	for _, v := range row {
		g.remove(int(v), int32(u))
	}
	g.edges -= len(row)
	g.adj[u] = nil
	g.shared[u] = false
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.has(u, int32(v))
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.Row(u)) }

// Neighbors returns the sorted neighbor list of u as a fresh slice.
func (g *Graph) Neighbors(u int) []int { return g.ints(u) }

// EachNeighbor calls fn for every neighbor of u in ascending order.
func (g *Graph) EachNeighbor(u int, fn func(v int)) {
	for _, v := range g.Row(u) {
		fn(int(v))
	}
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int { return g.edges }

// Edges returns all edges in canonical order (sorted by U, then V).
// Rows are ascending, so the canonical order falls out of one pass.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.edges)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if int(v) > u {
				edges = append(edges, Edge{U: u, V: int(v)})
			}
		}
	}
	return edges
}

// Clone returns a copy-on-write clone: both graphs share every per-node
// row until one side mutates it, at which point only that row is copied.
// Cloning is O(n) slice-header copies — independent of the edge count —
// which is what makes Session snapshots cheap. Clone marks the
// original's rows shared, so it counts as a mutation for concurrency
// purposes: do not clone a graph concurrently with other access to it.
func (g *Graph) Clone() *Graph {
	return &Graph{rows: g.clone(), edges: g.edges}
}

// CloneDeep returns a fully materialized copy sharing no storage with
// the original: every row is packed into one fresh arena. It is the
// reference the COW equivalence tests and the clone benchmarks compare
// against; prefer Clone everywhere else.
func (g *Graph) CloneDeep() *Graph {
	return &Graph{rows: packRows(g.adj, 2*g.edges), edges: g.edges}
}

// Equal reports whether two graphs have identical node and edge sets.
func (g *Graph) Equal(o *Graph) bool {
	return g.edges == o.edges && g.equal(&o.rows)
}

// IsSubgraphOf reports whether every edge of g is also an edge of o.
func (g *Graph) IsSubgraphOf(o *Graph) bool {
	if g.n != o.n {
		return false
	}
	for u := 0; u < g.n; u++ {
		mine, theirs := g.adj[u], o.adj[u]
		j := 0
		for _, v := range mine {
			// Both rows ascend: a merge walk beats per-edge binary search.
			for j < len(theirs) && theirs[j] < v {
				j++
			}
			if j == len(theirs) || theirs[j] != v {
				return false
			}
			j++
		}
	}
	return true
}
