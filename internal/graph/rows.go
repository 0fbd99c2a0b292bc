package graph

import (
	"fmt"
	"math"
	"slices"
)

// rows is the packed sorted adjacency store under both Graph and
// Digraph: one ascending []int32 row per node, with copy-on-write
// sharing between clones. It knows nothing about symmetry; Graph keeps
// its rows symmetric and counts edges, Digraph counts arcs.
type rows struct {
	n   int
	adj [][]int32 // per-node sorted rows
	// shared flags rows whose backing storage may be referenced by a
	// clone (or, after a bulk build, by sibling rows in the same arena
	// with adjacent capacity). A shared row is copied before its first
	// in-place mutation; flags are sticky until that copy happens.
	shared []bool
}

func newRows(n int) rows {
	checkNodeCount(n)
	return rows{n: n, adj: make([][]int32, n), shared: make([]bool, n)}
}

// packRows copies src into one fresh arena of the given total length,
// each row capacity-limited so appends never bleed into the next.
func packRows(src [][]int32, total int) rows {
	r := rows{n: len(src), adj: make([][]int32, len(src)), shared: make([]bool, len(src))}
	arena := make([]int32, 0, total)
	for u, row := range src {
		start := len(arena)
		arena = append(arena, row...)
		r.adj[u] = arena[start:len(arena):len(arena)]
	}
	return r
}

// Len returns the number of nodes.
func (r *rows) Len() int { return r.n }

// Row returns node u's row: ascending node ids, backed by the graph's
// internal storage. The caller must not mutate it, and the row is only
// valid until the graph's next mutation. It is the zero-copy form of
// Neighbors and Successors for the traversal hot paths.
func (r *rows) Row(u int) []int32 {
	r.check(u)
	return r.adj[u]
}

// ints returns node u's row as a fresh []int.
func (r *rows) ints(u int) []int {
	row := r.Row(u)
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}

// owned returns node u's row ready for in-place mutation, copying it
// first if a clone may still reference the storage.
func (r *rows) owned(u int) []int32 {
	if r.shared[u] {
		r.adj[u] = slices.Clone(r.adj[u])
		r.shared[u] = false
	}
	return r.adj[u]
}

// has reports whether v is in node u's row.
func (r *rows) has(u int, v int32) bool {
	_, found := slices.BinarySearch(r.adj[u], v)
	return found
}

// insert adds v to node u's sorted row if absent; reports insertion.
func (r *rows) insert(u int, v int32) bool {
	i, found := slices.BinarySearch(r.adj[u], v)
	if found {
		return false
	}
	r.adj[u] = slices.Insert(r.owned(u), i, v)
	return true
}

// remove deletes v from node u's sorted row if present; reports removal.
func (r *rows) remove(u int, v int32) bool {
	i, found := slices.BinarySearch(r.adj[u], v)
	if !found {
		return false
	}
	r.adj[u] = slices.Delete(r.owned(u), i, i+1)
	return true
}

// Grow appends k nodes with empty rows, extending the id space to
// Len()+k. Dynamic scenarios use it when a session admits a joining
// node.
func (r *rows) Grow(k int) {
	if k < 0 {
		panic(fmt.Sprintf("graph: negative growth %d", k))
	}
	checkNodeCount(r.n + k)
	r.adj = append(r.adj, make([][]int32, k)...)
	r.shared = append(r.shared, make([]bool, k)...)
	r.n += k
}

// clone returns a copy-on-write clone (see Graph.Clone): every row is
// marked shared on both sides, so either copies a row before mutating it.
func (r *rows) clone() rows {
	for i := range r.shared {
		r.shared[i] = true
	}
	return rows{n: r.n, adj: slices.Clone(r.adj), shared: slices.Clone(r.shared)}
}

// equal reports whether two stores hold identical rows.
func (r *rows) equal(o *rows) bool {
	if r.n != o.n {
		return false
	}
	for u := 0; u < r.n; u++ {
		if !slices.Equal(r.adj[u], o.adj[u]) {
			return false
		}
	}
	return true
}

// check panics on an out-of-range node index: indices come from trusted
// internal computations, so one out of range is a programming error.
func (r *rows) check(u int) {
	if u < 0 || u >= r.n {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", u, r.n))
	}
}

func checkNodeCount(n int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: node count %d exceeds the packed int32 id space", n))
	}
}
