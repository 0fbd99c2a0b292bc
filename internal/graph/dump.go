package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrBadDump reports an arena dump that does not describe a valid graph.
// Unlike the trusted-input constructors (NewFromHalfRows,
// NewDigraphFromRows), the dump loaders never panic: dumps cross a
// process boundary — checkpoint files, wire frames — and a corrupt one
// is an input error, not a programming error.
var ErrBadDump = errors.New("graph: invalid arena dump")

// Dump exports the graph's packed adjacency as a row-length vector and
// one concatenated arena: lens[u] is node u's degree and the next
// lens[u] entries of arena are its ascending neighbor row. The two
// slices are appended to lens and arena (pass nil to allocate fresh),
// so a caller serializing several graphs can reuse one pair of buffers.
// This is the checkpoint wire shape: two bulk writes regardless of node
// count.
func (g *Graph) Dump(lens, arena []int32) ([]int32, []int32) {
	return g.dump(lens, arena, 2*g.edges)
}

// NewFromDump rebuilds a graph from a Dump-shaped row-length vector and
// packed arena, validating everything a hostile dump could get wrong:
// consistent lengths, ascending in-range rows, no self-loops, and exact
// symmetry (v lists u iff u lists v, so the entry count is even). The
// rows are copied into one fresh arena; the input slices are not
// retained. It returns an ErrBadDump error instead of panicking on
// invalid input.
func NewFromDump(lens, arena []int32) (*Graph, error) {
	r, err := rowsFromDump(lens, arena)
	if err != nil {
		return nil, err
	}
	// Symmetry: every arc's reverse must exist. Rows are sorted, so one
	// binary search per directed entry suffices.
	for u := 0; u < r.n; u++ {
		for _, v := range r.adj[u] {
			if !r.has(int(v), int32(u)) {
				return nil, fmt.Errorf("%w: edge %d->%d has no reverse", ErrBadDump, u, v)
			}
		}
	}
	return &Graph{rows: r, edges: len(arena) / 2}, nil
}

// Dump exports the digraph's packed successor rows in the same shape as
// Graph.Dump: a row-length vector plus one concatenated arena, appended
// to the passed buffers.
func (d *Digraph) Dump(lens, arena []int32) ([]int32, []int32) {
	return d.dump(lens, arena, d.arcs)
}

// NewDigraphFromDump rebuilds a digraph from a Dump-shaped row-length
// vector and packed arena, validating row structure (ascending,
// in-range, no self-loops). The rows are copied; the input slices are
// not retained. It returns an ErrBadDump error instead of panicking on
// invalid input.
func NewDigraphFromDump(lens, arena []int32) (*Digraph, error) {
	r, err := rowsFromDump(lens, arena)
	if err != nil {
		return nil, err
	}
	return &Digraph{rows: r, arcs: len(arena)}, nil
}

// dump appends the row lengths to lens and the concatenated rows to
// arena; entries is the total row length, used to size arena once.
func (r *rows) dump(lens, arena []int32, entries int) ([]int32, []int32) {
	lens = slices.Grow(lens, r.n)
	arena = slices.Grow(arena, entries)
	for u := 0; u < r.n; u++ {
		lens = append(lens, int32(len(r.adj[u])))
		arena = append(arena, r.adj[u]...)
	}
	return lens, arena
}

// rowsFromDump rebuilds a row store from a dump, copying the arena and
// checking what every dump loader must: the row lengths add up to the
// arena, and each row is strictly ascending, in range and loop-free.
func rowsFromDump(lens, arena []int32) (rows, error) {
	n := len(lens)
	if n > math.MaxInt32 {
		return rows{}, fmt.Errorf("%w: node count %d exceeds the packed int32 id space", ErrBadDump, n)
	}
	total := 0
	for u, l := range lens {
		if l < 0 {
			return rows{}, fmt.Errorf("%w: negative row length %d at node %d", ErrBadDump, l, u)
		}
		total += int(l)
	}
	if total != len(arena) {
		return rows{}, fmt.Errorf("%w: row lengths sum to %d but arena holds %d entries", ErrBadDump, total, len(arena))
	}
	r := newRows(n)
	packed := slices.Clone(arena)
	off := 0
	for u := 0; u < n; u++ {
		row := packed[off : off+int(lens[u]) : off+int(lens[u])]
		off += int(lens[u])
		for i, v := range row {
			if int(v) < 0 || int(v) >= n {
				return rows{}, fmt.Errorf("%w: node %d lists out-of-range neighbor %d", ErrBadDump, u, v)
			}
			if int(v) == u {
				return rows{}, fmt.Errorf("%w: node %d lists itself", ErrBadDump, u)
			}
			if i > 0 && row[i-1] >= v {
				return rows{}, fmt.Errorf("%w: node %d row not strictly ascending at %d", ErrBadDump, u, v)
			}
		}
		r.adj[u] = row
	}
	return r, nil
}
